"""Per-layer metrics computed from a traced run's spans.

Span names are ``<module>.<function>`` as the tracer installs them. Each
entry of ``LAYER_METRICS`` is ``name -> (unit, better)``; ``layer_metrics``
returns a value for every entry, 0 where the workload never enters that
layer.
"""

from __future__ import annotations

import math
from statistics import median

# functions with enough calls for a per-call distribution
TIMED = ("covariance.cost_gradient", "kernels.kernel_bundle")
COUNTED = ("covariance.mean_sensitivity_triangle", "covariance.trace_cost",
           "covariance.covariance_profile", "covariance.fd_cost_slope",
           "numerics.cumulative_trapezoid",
           "simulation.empirical_statistics", "validation.write_csv")
SELF_ONLY = ("gain.optimize_gain", "simulation.simulate_ensemble", "cli.main")
# inclusive time of set-up layers
INCLUSIVE = ("system_model.build_scenario", "system_model.measure_averages",
             "gain.riccati_normal_flow")
# every traced function a metric reads; a rename in the library must not
# turn its metrics into silent zeros
FUNCTIONS = TIMED + COUNTED + SELF_ONLY + INCLUSIVE
CRITERIA = tuple(f"C{k}" for k in range(1, 9))
CRITERION_SPAN = "validation.ValidationSuite.criterion_"
# percentiles tried for the tail, highest first; the tail is the highest one
# with at least TAIL_MIN_BEYOND samples above it
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _fn in TIMED:
    LAYER_METRICS.update({f"{_fn}.calls": ("count", "lower"), f"{_fn}.self_s": ("s", "lower"),
                          f"{_fn}.ms_p50": ("ms", "lower"), f"{_fn}.ms_tail": ("ms", "lower")})
for _fn in COUNTED:
    LAYER_METRICS.update({f"{_fn}.calls": ("count", "lower"), f"{_fn}.self_s": ("s", "lower")})
for _fn in SELF_ONLY:
    LAYER_METRICS[f"{_fn}.self_s"] = ("s", "lower")
for _fn in INCLUSIVE:
    LAYER_METRICS[f"{_fn}.s"] = ("s", "lower")
for _cid in CRITERIA:
    LAYER_METRICS[f"validation.{_cid}.s"] = ("s", "lower")
LAYER_METRICS.update({
    "kernels.triangle_bytes": ("B", "lower"),
    "numerics.cumulative_trapezoid.bytes_in": ("B", "lower"),
    "gain.optimize_gain.iterations": ("count", "lower"),
    "gain.line_search_trials": ("count", "lower"),
    "gain.accepted_per_trial": ("ratio", "higher"),
    "simulation.ensemble_bytes": ("B", "lower"),
    "simulation.single_thread_s": ("s", "lower"),
    "validation.write_csv.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


# probes store computed sizes and counts on the spans they run for
PROBES = {
    "kernels.kernel_bundle": lambda args, kw, b: {
        "bytes": _nbytes(b.phi.values, b.psi.values, b.f.values)},
    "numerics.cumulative_trapezoid": lambda args, kw, _: {
        "bytes_in": (args[0] if args else kw["values"]).nbytes},
    "gain.optimize_gain": lambda args, kw, rep: {"iterations": rep.iterations},
    "validation.write_csv": lambda args, kw, _: {"bytes": args[0].stat().st_size},
}


def criterion_probe(args, kw, res) -> dict:
    """Probe of the ValidationSuite.criterion_* methods: which criterion ran."""
    return {"cid": res.cid}


class LargestEnsemble:
    """Probe of ``simulate_ensemble``: stores each ensemble's nbytes and
    keeps the arguments of the largest one, to re-run it single-threaded."""

    def __init__(self):
        self.bytes = 0
        self.call = None

    def __call__(self, args, kw, ens):
        nbytes = _nbytes(ens.x, ens.y, ens.z, ens.e)
        if nbytes > self.bytes:
            self.bytes, self.call = nbytes, (args, kw)
        return {"bytes": nbytes}


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with enough
    samples beyond it, or the maximum (100) when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return 100.0, ordered[-1]


class SpanTable:
    """Spans grouped by name, with inclusive and self durations."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.self_s = tracer.self_times()
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(tracer.spans):
            self.by_name.setdefault(s.name, []).append(i)

    def indices(self, name: str, parent: str | None = None) -> list[int]:
        idx = self.by_name.get(name, [])
        if parent is None:
            return idx
        spans = self.tracer.spans
        return [i for i in idx if self.tracer.parent_name(spans[i]) == parent]

    def durations(self, name: str) -> list[float]:
        spans = self.tracer.spans
        return [spans[i].end - spans[i].start for i in self.indices(name)]

    def self_total(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.indices(name))

    def attr_values(self, name: str, key: str) -> list[float]:
        spans = self.tracer.spans
        return [spans[i].attrs[key] for i in self.indices(name) if spans[i].attrs]

    def optimizer_counts(self) -> dict[str, int]:
        """Calls made directly by ``optimize_gain``. Each Armijo trial is
        one ``trace_cost``, after the one at the starting gain."""
        opt = "gain.optimize_gain"
        runs = len(self.indices(opt))
        return {
            "runs": runs,
            "iterations": int(sum(self.attr_values(opt, "iterations"))),
            "trials": len(self.indices("covariance.trace_cost", parent=opt)) - runs,
            "kernel_bundle": len(self.indices("kernels.kernel_bundle", parent=opt)),
            "cost_gradient": len(self.indices("covariance.cost_gradient", parent=opt)),
        }


def layer_metrics(table: SpanTable, extra: dict[str, float]) -> tuple[dict, dict]:
    """(metrics, notes): every ``LAYER_METRICS`` value, and the percentile
    and sample count behind each tail."""
    out: dict[str, float] = {}
    notes: dict[str, dict] = {}
    for fn in TIMED:
        ms = [1e3 * d for d in table.durations(fn)]
        out[f"{fn}.calls"] = len(ms)
        out[f"{fn}.self_s"] = table.self_total(fn)
        pct, tail = _tail(ms) if ms else (0.0, 0.0)
        out[f"{fn}.ms_p50"] = median(ms) if ms else 0.0
        out[f"{fn}.ms_tail"] = tail
        notes[fn] = {"tail_percentile": pct, "samples": len(ms)}
    for fn in COUNTED:
        out[f"{fn}.calls"] = len(table.indices(fn))
        out[f"{fn}.self_s"] = table.self_total(fn)
    for fn in SELF_ONLY:
        out[f"{fn}.self_s"] = table.self_total(fn)
    for fn in INCLUSIVE:
        out[f"{fn}.s"] = sum(table.durations(fn))
    spans = table.tracer.spans
    first: dict[str, tuple[float, float]] = {}
    for name, idx in table.by_name.items():
        if name.startswith(CRITERION_SPAN):
            for i in idx:  # the suite's own call precedes C8's re-run
                cid = spans[i].attrs["cid"]
                start, dur = spans[i].start, spans[i].end - spans[i].start
                if cid not in first or start < first[cid][0]:
                    first[cid] = (start, dur)
    for cid in CRITERIA:
        out[f"validation.{cid}.s"] = first[cid][1] if cid in first else 0.0
    bundle_bytes = table.attr_values("kernels.kernel_bundle", "bytes")
    out["kernels.triangle_bytes"] = (sum(bundle_bytes) / len(bundle_bytes)
                                     if bundle_bytes else 0)
    out["numerics.cumulative_trapezoid.bytes_in"] = sum(
        table.attr_values("numerics.cumulative_trapezoid", "bytes_in"))
    counts = table.optimizer_counts()
    out["gain.optimize_gain.iterations"] = counts["iterations"]
    out["gain.line_search_trials"] = counts["trials"]
    out["gain.accepted_per_trial"] = (counts["iterations"] / counts["trials"]
                                      if counts["trials"] else 0.0)
    out["simulation.ensemble_bytes"] = max(
        table.attr_values("simulation.simulate_ensemble", "bytes"), default=0)
    out["validation.write_csv.bytes"] = sum(
        table.attr_values("validation.write_csv", "bytes"))
    out.update(extra)
    missing = set(LAYER_METRICS) - set(out)
    if missing:
        raise KeyError(f"layer metrics not computed: {sorted(missing)}")
    return out, notes
