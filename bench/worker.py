"""Runs one workload in this process and prints its measurements as one
JSON line. Started by ``run.py``, which pins the BLAS threads and the
import path before this process starts.

    python3 bench/worker.py setup --workload NAME --seed N [--small]
    python3 bench/worker.py run --workload NAME --seed N --seconds S --trace 0|1 [--small]

``setup`` times the import of the library plus the workload's set-up and
prints ``{"setup_s": ...}``. ``run`` repeats the timed operation until
``--seconds`` would be exceeded (``--trace 0``), or runs it once untraced
and once traced (``--trace 1``), checking the outputs of every repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

_T0 = time.perf_counter()  # set-up time counts from here, before numpy is imported

WORK_DIR = Path(".bench_work")
# set-up is timed in fresh processes: PROBES_PER_REP after each repetition,
# then more until --seconds is used up, at least SETUP_PROBES in all; the
# fastest is reported (see "setup_s" in README.md)
PROBES_PER_REP = 3
SETUP_PROBES = 20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced problem sizes, for the benchmark's self-test")
    return p.parse_args(argv)


def _conditions(mk) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "mfk_threads": mk.simulation.worker_count(),
        "mfk_threads_env": os.environ.get("MFK_THREADS"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mfkalman_file": str(Path(mk.__file__).resolve().relative_to(Path.cwd())),
    }


def _setup_probe(args) -> float:
    """Set-up time measured in a fresh process (this script's ``setup``)."""
    cmd = [sys.executable, __file__, "setup", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--small"] if args.small else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _timed_reps(wl, state, args):
    """Repeat the operation while another repetition fits in ``--seconds``,
    with set-up probes after each and in the time left at the end, so that
    the probes sample the host over the whole run. The first repetition is
    a warm-up whenever there are three or more."""
    times, setups, checks = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t = time.perf_counter()
        result = wl.run(state)
        times.append(time.perf_counter() - t)
        checks += wl.check(state, result)
        del result
        setups += [_setup_probe(args) for _ in range(PROBES_PER_REP)]
        if deadline - time.perf_counter() < median(times):
            break
    while len(setups) < SETUP_PROBES or time.perf_counter() < deadline:
        setups.append(_setup_probe(args))
    return (times[1:] if len(times) >= 3 else times), setups, checks


def _traced(wl, state, args):
    from layers import (CRITERIA, FUNCTIONS, LAYER_METRICS, PROBES, LargestEnsemble,
                        SpanTable, criterion_probe, layer_metrics)
    from tracer import Tracer
    from workloads import mk

    t = time.perf_counter()
    result = wl.run(state)
    untraced = time.perf_counter() - t
    checks = wl.check(state, result)
    del result

    tracer = Tracer()
    ensembles = LargestEnsemble()
    probes = dict(PROBES, **{"simulation.simulate_ensemble": ensembles})
    installed = tracer.install("mfkalman", probes=probes)
    suite = mk.validation.ValidationSuite
    criteria = [attr for attr in vars(suite) if attr.startswith("criterion_")]
    for attr in criteria:
        tracer.patch(suite, attr, tracer.wrap(f"validation.ValidationSuite.{attr}",
                                              getattr(suite, attr), criterion_probe))
    checks.append(("layers_bound",
                   set(FUNCTIONS) <= set(installed) and len(criteria) == len(CRITERIA)))
    try:
        with tracer.span("bench.setup"):
            traced_state = wl.setup(args.seed, args.small)
        t = time.perf_counter()
        with tracer.span("bench.op"):
            result = wl.run(traced_state)
        traced = time.perf_counter() - t
    finally:
        tracer.uninstall()
    checks += wl.check(traced_state, result)
    del result

    extra = {"trace.overhead_s": traced - untraced,
             "simulation.single_thread_s": _single_thread_s(ensembles.call)}
    table = SpanTable(tracer)
    values, notes = layer_metrics(table, extra)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in LAYER_METRICS.items()}
    checks += _count_checks(table)
    WORK_DIR.mkdir(exist_ok=True)
    trace_file = WORK_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.dump(trace_file)
    notes["trace_file"] = str(trace_file)
    notes["traced_wall_s"] = traced
    notes["untraced_wall_s"] = untraced
    return metrics, notes, checks


def _single_thread_s(call) -> float:
    """Wall time of re-running the largest traced ensemble, untraced, with
    one simulation worker thread (0 when the workload simulates nothing)."""
    if call is None:
        return 0.0
    import mfkalman.simulation

    args, kwargs = call
    saved = os.environ.get("MFK_THREADS")
    os.environ["MFK_THREADS"] = "1"
    try:
        t = time.perf_counter()
        mfkalman.simulation.simulate_ensemble(*args, **kwargs)
        return time.perf_counter() - t
    finally:
        if saved is None:
            del os.environ["MFK_THREADS"]
        else:
            os.environ["MFK_THREADS"] = saved


def _count_checks(table) -> list[tuple[str, bool]]:
    """The calls made by each ``optimize_gain`` run match its own report;
    a binding the tracer missed breaks these counts."""
    counts = table.optimizer_counts()
    if not counts["runs"]:
        return []
    return [
        ("kernel_bundle_per_trial",
         counts["kernel_bundle"] == counts["trials"] + 2 * counts["runs"]),
        ("cost_gradient_per_iteration",
         counts["cost_gradient"] == counts["iterations"] + 2 * counts["runs"]),
    ]


def main(argv=None) -> int:
    args = _parse(argv)
    from workloads import WORKLOADS, mk  # imports numpy and mfkalman

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    src = Path.cwd() / "src"
    if src not in Path(mk.__file__).resolve().parents:
        print(f"mfkalman was imported from {mk.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.small)
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    conditions = _conditions(mk)
    checks = [("threads_within_nproc", conditions["mfk_threads"] <= conditions["nproc_usable"])]
    if args.trace:
        metrics, notes, more = _traced(wl, state, args)
    else:
        times, setups, more = _timed_reps(wl, state, args)
        metrics = {"setup_s": {"value": min(setups), "unit": "s"},
                   "wall_s": {"value": median(times), "unit": "s"},
                   "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024.0, "unit": "MB"}}
        notes = {"rep_times_s": times, "setup_probes_s": setups}
    checks += more
    failed = [name for name, ok in checks if not ok]
    print(json.dumps({"attempted": len(checks), "failed": len(failed), "failed_checks": failed,
                      "metrics": metrics, "notes": notes, "conditions": conditions}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
