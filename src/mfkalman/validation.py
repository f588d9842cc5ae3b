"""Acceptance suite: every release criterion as a checkable, reporting unit.

Each criterion function computes its quantities, writes its CSV
artifacts, and returns a :class:`CriterionResult` with one-line details.
The CLI ``validate`` subcommand prints one pass/fail line per criterion;
the pytest acceptance module asserts each result.

All randomness is derived from the suite seed through fixed offsets, so
two runs with the same seed produce byte-identical CSV output — which is
itself the final criterion. Its re-run goes in a fresh interpreter that
runs alongside the suite (see :meth:`ValidationSuite.criterion_determinism`).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .arbitration import (
    cost_gradient_transcribed,
    covariance_profile_transcribed,
    f_direction,
    f_direction_transcribed,
)
from .covariance import (
    cost_gradient,
    covariance_profile,
    drift_profile,
    fd_cost_slope,
)
from .gain import optimize_gain, riccati_classical, riccati_normal_flow
from .kernels import GainSchedule, kernel_bundle
from .numerics import _integer, _Record
from .scenarios import (
    classical_scenario,
    cross_pairing_probe,
    normal_flow_scenario,
    random_smooth_scenario,
    scenario_hash,
)
from .simulation import SimulationError, empirical_statistics, simulate_ensemble
from .system_model import Scenario, check_finite, measure_averages

__all__ = ["CriterionResult", "ValidationSuite", "write_csv", "DEFAULT_SEED"]

DEFAULT_SEED = 20240901
_BAND = 16  # kernel rows read from the O(N) tables at a time by the export
            # and the rate residuals: O(16 N) memory
_CSV_CHUNK = 1024  # rows formatted by one % operation in write_csv


class CriterionResult(_Record):
    """One criterion's outcome: its id, title, verdict and detail lines.
    ``passed`` is reassigned by :meth:`ValidationSuite._timed`."""

    cid: str
    title: str
    passed: bool
    details: list[str]

    def __init__(self, cid: str, title: str, passed: bool, details: list[str] | None = None):
        self.cid = cid
        self.title = title
        self.passed = passed
        self.details = [] if details is None else details

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.cid}: {self.title}"


def write_csv(path: Path, header: str, rows, meta: dict) -> None:
    """CSV with reproducibility metadata in leading comment rows.

    Floats (numpy's float64 included) are printed with 17 significant
    digits so a re-run with the same seed is byte-identical; any other
    value as ``str``. The first row fixes the file's format; each row is
    flattened and its length checked as it arrives, and runs of up to
    ``_CSV_CHUNK`` rows are formatted by one ``%`` operation and written
    as ``rows`` yields them. A later row of another length, or with a
    float where the first row has none or the reverse, raises ValueError;
    a row that raises removes the partial file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    try:
        with path.open("w") as f:
            f.write(_comment_rows(meta) + header + "\n")
            first = next(rows, None)
            if first is None:
                return
            floats = [isinstance(value, float) for value in first]
            fmt = ",".join("%.17g" if flt else "%s" for flt in floats) + "\n"
            width, rows = len(floats), chain((first,), rows)
            misfit = f"{path.name}: a row does not fit the columns of the first row, {first!r}"
            while True:
                # rows are flattened as they arrive and none is kept, so a
                # source that reuses its row tuple (zip does) makes only one
                flat, count = [], 0
                for count, row in enumerate(islice(rows, _CSV_CHUNK), 1):
                    if len(row) != width:
                        raise ValueError(misfit)
                    flat += row
                if not count:
                    break
                if any(issubclass(kind, float) is not flt for c, flt in enumerate(floats)
                       for kind in {*map(type, flat[c::width])}):
                    raise ValueError(misfit)
                f.write((fmt * count) % tuple(flat))
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _comment_rows(meta: dict) -> str:
    """The leading ``# key=value`` rows of every output file."""
    return "".join(f"# {key}={value}\n" for key, value in meta.items())


def _write_report(path: Path, scenario: Scenario, seed: int, lines: list[str]) -> None:
    """Text report: the metadata rows of :func:`_meta`, then ``lines``."""
    path.write_text(_comment_rows(_meta(scenario, seed)) + "\n".join(lines) + "\n")


def _meta(scenario: Scenario, seed: int, extra: dict | None = None) -> dict:
    return {"scenario_hash": scenario_hash(scenario), "seed": seed,
            "grid": f"T={scenario.grid.horizon:g},N={scenario.grid.n_steps}",
            "version": __version__, **(extra or {})}


def _dump_kernels(out: Path, bundle, seed: int) -> None:
    """Lower triangles of phi, psi and f as t,s,value rows, each file
    written from bands of ``_BAND`` rows read from the bundle's O(N) tables
    (:meth:`~mfkalman.kernels.ScalarTables.entries`): no triangle is
    built. Before any file is written, a row of phi or psi that overflows
    raises :class:`~mfkalman.system_model.NonFiniteError` naming the first:
    row i of exp(x[i] - x[j]) peaks at the least x[j], j <= i."""
    with np.errstate(over="ignore", invalid="ignore"):
        check_finite("kernel export", np.exp(np.stack(
            [x - np.minimum.accumulate(x) for x in (bundle.lhm, bundle.lh)], axis=1)))
    labels = ["%.17g" % t for t in bundle.grid.nodes.tolist()]
    meta = _meta(bundle.scenario, seed)

    def rows(kernel: int):
        for a in range(0, len(labels), _BAND):
            stop = min(a + _BAND, len(labels))
            band = bundle.entries(np.arange(a, stop)[:, None], np.arange(stop))[kernel]
            for i, values in enumerate(band.tolist(), start=a):
                yield from zip(repeat(labels[i]), labels, values[: i + 1])

    for kernel, name in enumerate(("kernel_phi.csv", "kernel_psi.csv", "kernel_f.csv")):
        write_csv(out / name, "t,s,value", rows(kernel), meta)


def _dump_optimizer(out: Path, scenario: Scenario, report, seed: int) -> None:
    """Cost/gradient trajectory and final gain of one optimizer run."""
    rows = [(i, J, gn) for i, (J, gn) in enumerate(
        zip(report.cost_trajectory, report.gradient_trajectory))]
    write_csv(out / "optimizer_trajectory.csv", "iter,J,grad_norm", rows, _meta(scenario, seed))
    write_csv(out / "optimizer_gain.csv", "t,gain",
              zip(scenario.grid.nodes.tolist(), report.gain.scalar.tolist()),
              _meta(scenario, seed))


def _rate_residuals(bundle) -> tuple[float, float]:
    """Sup over interior nodes of the central-difference residuals of the
    scalar rate equations d/dt f = M phi + H f and d/dt psi = H psi, on
    the cells below the diagonal. The kernels are read from the bundle's
    O(N) tables ``_BAND`` rows at a time, so no triangle is built."""
    dt, last = bundle.grid.dt, bundle.grid.n_steps
    M, H = bundle.M.reshape(-1, 1), bundle.H.reshape(-1, 1)
    sups = []
    for a in range(1, last, _BAND):
        mid = np.arange(a, min(a + _BAND, last))   # the band's interior rows i
        cols = np.arange(mid[-1])
        Pv, Sv, Fv = bundle.entries(np.arange(a - 1, mid[-1] + 2)[:, None], cols)
        below = cols < mid[:, None]   # the cells j < i
        f_rate = (Fv[2:] - Fv[:-2]) / (2 * dt) - M[mid] * Pv[1:-1] - H[mid] * Fv[1:-1]
        psi_rate = (Sv[2:] - Sv[:-2]) / (2 * dt) - H[mid] * Sv[1:-1]
        sups.append((np.max(np.abs(f_rate[below])), np.max(np.abs(psi_rate[below]))))
    f_sup, psi_sup = np.max(sups, axis=0)
    return float(f_sup), float(psi_sup)


def _rate_residual(K: np.ndarray, K1: np.ndarray, dt: float) -> float:
    """Sup over interior nodes of |central difference of K - 2 K1|, relative
    to sup |2 K1|; 0 where the drift vanishes."""
    scale = float(np.max(np.abs(2.0 * K1[1:-1])))
    if scale < 1e-13:
        return 0.0
    return float(np.max(np.abs((K[2:] - K[:-2]) / (2 * dt) - 2.0 * K1[1:-1]))) / scale


def _reference(name: str, grid):
    """Closed-form Riccati reference of a bundled scenario, else None."""
    if name == "classical":
        return riccati_classical(0.0, 1.0, 1.0, 1.0, grid)
    if name == "normal-flow":
        return riccati_normal_flow(0.0, 1.0, grid)
    return None


def _smooth_directions(grid, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic smooth probing directions; direction 0 is constant 1."""
    rng = np.random.default_rng(seed)
    t = grid.nodes / grid.horizon
    out = [np.ones(grid.n_nodes)]
    for _ in range(count - 1):
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        w = rng.integers(1, 4)
        out.append(a + b * np.sin(np.pi * w * t) + c * np.cos(2 * np.pi * t))
    return out


def _gradcheck(out: Path, scenario: Scenario, gain: GainSchedule, directions, seed: int,
               eps: float) -> list[tuple]:
    """Writes the gradient density at ``gain`` to ``gradient.csv`` and, for
    each nodal direction, the row (direction, pairing, fd_oracle, abs_diff)
    of its pairing against the central-difference cost slope of step
    ``eps`` to ``gradcheck.csv``, with ``eps`` in full; returns the rows."""
    bars = measure_averages(scenario)
    g = cost_gradient(scenario, kernel_bundle(scenario, gain), bars)
    rows = []
    for k, beta_vals in enumerate(directions):
        beta = GainSchedule(scenario.grid, beta_vals[:, None, None])
        pairing = g.pair(beta_vals)
        fd = fd_cost_slope(scenario, gain, beta, eps, bars)
        rows.append((k, pairing, fd, abs(pairing - fd)))
    write_csv(out / "gradcheck.csv", "direction,pairing,fd_oracle,abs_diff", rows,
              _meta(scenario, seed, {"eps": "%.17g" % eps}))
    write_csv(out / "gradient.csv", "t,g",
              zip(scenario.grid.nodes.tolist(), g.values.tolist()), _meta(scenario, seed))
    return rows


def _write_covariance(path: Path, scenario: Scenario, gain: GainSchedule, seed: int) -> float:
    """The CSV of :func:`_covariance_rows`; returns their worst residual."""
    rows, worst = _covariance_rows(scenario, gain)
    write_csv(path, "atom,t,K", rows, _meta(scenario, seed))
    return worst


def _covariance_rows(scenario: Scenario, gain: GainSchedule):
    """The (atom, t, K) rows of every atom at ``gain``, made as they are
    read, and the worst relative rate residual (:func:`_rate_residual`)
    over the atoms."""
    bundle = kernel_bundle(scenario, gain)
    bars = measure_averages(scenario)
    profiles = [covariance_profile(scenario, bundle, bars, a) for a in range(scenario.n_atoms)]
    worst = max(_rate_residual(K, drift_profile(scenario, bundle, bars, a), scenario.grid.dt)
                for a, K in enumerate(profiles))
    t = scenario.grid.nodes.tolist()
    rows = ((a, *row) for a, K in enumerate(profiles) for row in zip(t, K.tolist()))
    return rows, worst


def _write_paths(path: Path, scenario: Scenario, ens, seed: int, reps: int, stride: int) -> None:
    """(rep, atom, t, x, y, z, e) rows of the first ``reps`` kept
    replications, every atom, at every ``stride``-th node, with the
    ensemble's path count in the metadata."""
    t = scenario.grid.nodes[::stride].tolist()
    x, y, z, e = (v[:reps, :, ::stride, 0].tolist() for v in (ens.x, ens.y, ens.z, ens.e))
    rows = ((r, a, *row) for r in range(reps) for a in range(scenario.n_atoms)
            for row in zip(t, x[r][a], y[r][a], z[r][a], e[r][a]))
    write_csv(path, "rep,atom,t,x,y,z,e", rows, _meta(scenario, seed, {"n_paths": ens.n_paths}))


# what the re-run of criterion_determinism executes: argv is (shadow, seed)
_TWIN_CODE = """\
import sys
import mfkalman
from mfkalman.validation import ValidationSuite
print(mfkalman.__file__, flush=True)
ValidationSuite(sys.argv[1], int(sys.argv[2])).run_artifacts()
"""


class _Twin:
    """The artifact pipeline at ``seed`` in a fresh interpreter, writing its
    CSVs into ``out_dir/.determinism-recheck`` (the shadow directory). It
    inherits this process's environment with the package's own parent
    directory first on ``PYTHONPATH`` and ``MFK_THREADS=1``, so that its
    simulations draw on one thread while this run keeps its own setting,
    and C8 also shows that no artifact depends on the thread count; its
    standard output (the file it imported ``mfkalman`` from) and standard
    error go to temporary files."""

    def __init__(self, out_dir: Path, seed: int):
        import subprocess  # C8 alone starts a process
        self.shadow = shadow = out_dir / ".determinism-recheck"
        shutil.rmtree(shadow, ignore_errors=True)
        self.stdout, self.stderr = tempfile.TemporaryFile(), tempfile.TemporaryFile()
        root = str(Path(__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=root + os.pathsep + path if path else root,
                   MFK_THREADS="1")
        self.proc = subprocess.Popen([sys.executable, "-c", _TWIN_CODE, str(shadow), str(seed)],
                                     env=env, stdin=subprocess.DEVNULL,
                                     stdout=self.stdout, stderr=self.stderr)

    def wait(self) -> tuple[int, str, str]:
        """Exit status, standard output and standard error of the finished twin."""
        status = self.proc.wait()
        for f in (self.stdout, self.stderr):
            f.seek(0)
        return status, self.stdout.read().decode(), self.stderr.read().decode(errors="replace")

    def stop(self) -> None:
        """Terminate the twin if it still runs, reap it, close its files and
        remove the shadow directory; a second call does nothing new."""
        import subprocess
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stdout.close()
        self.stderr.close()
        shutil.rmtree(self.shadow, ignore_errors=True)


class ValidationSuite:
    """Runs the acceptance criteria and writes the CSV artifacts to ``out_dir``."""

    def __init__(self, out_dir: str | Path, seed: int = DEFAULT_SEED):
        self.seed = _integer(seed, SimulationError, f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise SimulationError(f"seed must be >= 0, got {seed}")
        self.out = Path(out_dir)
        self._twin: _Twin | None = None

    def criterion_kernels(self) -> CriterionResult:
        """Semigroup identity of the point-error operator and the mixed
        kernel's rate equation, at production resolution."""
        details = []
        scen = classical_scenario(steps=200)
        gain = GainSchedule.from_callable(scen.grid, np.tanh)
        bundle = kernel_bundle(scen, gain)
        nodes = np.arange(0, scen.grid.n_nodes, max(1, scen.grid.n_steps // 40))
        psi = bundle.entries(nodes[:, None], nodes[None, :])[1]   # on every stride-th node
        # psi(i, k) psi(k, j) against psi(i, j) at every (i, k, j), j <= k <= i
        i, k, j = np.ogrid[:len(nodes), :len(nodes), :len(nodes)]
        gap = np.abs(psi[:, :, None] * psi[None, :, :] - psi[:, None, :])
        worst = float(np.max(gap, where=(j <= k) & (k <= i), initial=0.0))
        semigroup_ok = worst <= 1e-10
        details.append(f"semigroup deviation {worst:.3e} (tol 1e-10)")

        rough = random_smooth_scenario(seed=self.seed + 11, steps=200)
        rgain = GainSchedule.from_callable(rough.grid, lambda t: 0.4 + 0.2 * np.cos(2 * np.pi * t))
        resid = _rate_residuals(kernel_bundle(rough, rgain))[0]
        pde_ok = resid <= 1e-3
        details.append(f"mixed-kernel rate residual {resid:.3e} (tol 1e-3)")

        _dump_kernels(self.out, bundle, self.seed)
        return CriterionResult("C1", "kernel correctness", semigroup_ok and pde_ok, details)

    def criterion_rate_consistency(self) -> CriterionResult:
        """Central difference of the covariance vs twice the drift, on both
        bundled scenarios, with the error shrinking under refinement."""
        details = []
        passed = True

        for name, build in (("classical", classical_scenario),
                            ("normal-flow", normal_flow_scenario)):
            rels = {}
            for steps in (400, 800):
                scen = build(steps=steps)
                rels[steps] = _covariance_rows(scen, _reference(name, scen.grid).gain())[1]
            ok_tol = rels[400] <= 0.02
            ratio = rels[400] / max(rels[800], 1e-300)
            ok_shrink = ratio >= 3.0
            passed = passed and ok_tol and ok_shrink
            details.append(
                f"{name}: rel residual {rels[400]:.3e} at N=400 (tol 2e-2), "
                f"refinement ratio {ratio:.2f} (need >= 3)"
            )

        scen = classical_scenario(steps=400)
        _write_covariance(self.out / "covariance_classical.csv", scen,
                          GainSchedule.from_callable(scen.grid, np.tanh), self.seed)
        return CriterionResult("C2", "covariance rate consistency", passed, details)

    def criterion_gradient(self) -> CriterionResult:
        """Gradient density against the central-difference cost slope, plus
        the closed-form spot value for the zero-gain benchmark."""
        scen = classical_scenario(steps=400)
        rows = _gradcheck(self.out, scen, GainSchedule.constant(scen.grid, 0.0),
                          _smooth_directions(scen.grid, 5, self.seed + 23), self.seed, 1e-4)
        passed = True
        details = []
        for k, pairing, _, diff in rows:
            tol = 1e-3 * (1.0 + abs(pairing))
            if diff > tol:
                passed = False
                details.append(f"direction {k}: |pairing - fd| = {diff:.3e} > {tol:.3e}")
        spot = rows[0][1]   # direction 0 is constant 1
        spot_err = abs(spot - (-1.0 / 3.0))
        spot_ok = spot_err <= 1e-5
        fd0_diff = rows[0][3]
        fd0_ok = fd0_diff <= 1e-5
        passed = passed and spot_ok and fd0_ok
        details.insert(0, f"constant direction: pairing {spot:.8f} vs -1/3 "
                          f"(err {spot_err:.2e}, tol 1e-5); fd gap {fd0_diff:.2e}")
        details.append(f"max fd gap over {len(rows)} directions: "
                       f"{max(r[3] for r in rows):.3e}")
        return CriterionResult("C3", "gradient correctness", passed, details)

    def criterion_classical_reference(self) -> CriterionResult:
        """Closed-form tangent reference: Riccati endpoint value and the
        optimizer reaching it from zero."""
        details = []
        scen = classical_scenario(steps=200)
        ref = _reference("classical", scen.grid)
        s_err = abs(ref.state[-1] - np.tanh(1.0))
        s_ok = s_err <= 1e-6
        details.append(f"Riccati endpoint error {s_err:.2e} (tol 1e-6)")

        report = optimize_gain(scen, grad_tol=1e-5, max_iter=2000)
        dev = float(np.max(np.abs(report.gain.scalar - np.tanh(scen.grid.nodes))))
        dev_ok = dev <= 5e-3
        res_ok = report.stationarity <= 1e-3
        mono = all(b <= a + 1e-15 for a, b in zip(report.cost_trajectory,
                                                  report.cost_trajectory[1:]))
        details.append(
            f"optimizer: {report.iterations} iterations, gain deviation {dev:.2e} "
            f"(tol 5e-3), stationarity {report.stationarity:.2e} (tol 1e-3), "
            f"descent monotone: {mono}"
        )
        _dump_optimizer(self.out, scen, report, self.seed)
        return CriterionResult("C4", "classical benchmark reproduction",
                               s_ok and dev_ok and res_ok and mono, details)

    def criterion_normal_flow_reference(self) -> CriterionResult:
        """Interacting benchmark: Riccati endpoint, variance identity,
        first-order stationarity of the implied gain, and the paper's
        necessary condition there (the averaged sensitivity kernel vanishes
        on its diagonal up to the quadrature error)."""
        details = []
        scen = normal_flow_scenario(steps=200)
        ref = _reference("normal-flow", scen.grid)
        m_err = abs(ref.state[-1] - np.tanh(1.0))
        m_ok = m_err <= 1e-6
        ident = float(np.max(np.abs(ref.mean_variance - ref.state)))
        ident_ok = ident <= 1e-6
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, ref.gain())
        field = cost_gradient(scen, bundle, bars)
        gsup = float(np.max(np.abs(field.values)))
        dsup = float(np.max(np.abs(field.diagonal_step)))
        g_ok, d_ok = gsup <= 1e-3, dsup <= 1e-5
        details.append(f"Riccati endpoint error {m_err:.2e} (tol 1e-6)")
        details.append(f"variance identity gap {ident:.2e} (tol 1e-6)")
        details.append(f"gradient sup-norm at reference gain {gsup:.2e} (tol 1e-3)")
        details.append(f"diagonal condition step at reference gain {dsup:.2e} (tol 1e-5)")
        return CriterionResult("C5", "interacting benchmark reproduction",
                               m_ok and ident_ok and g_ok and d_ok, details)

    def criterion_monte_carlo(self) -> CriterionResult:
        """Covariance representation against 20000-path simulation under
        the reference gain: variance within 3 SE, mean within 3 SE of 0."""
        scen = classical_scenario(steps=200)
        gain = GainSchedule.from_callable(scen.grid, np.tanh)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        K = covariance_profile(scen, bundle, bars, 0)
        n_paths = 20000
        probes = (0.25, 0.5, 1.0)
        nodes = [scen.grid.index_of(t) for t in probes]
        ens = simulate_ensemble(scen, gain, n_paths=n_paths, seed=self.seed, nodes=nodes)
        st = empirical_statistics(ens)   # position r is node nodes[r]
        details = []
        passed = True
        rows = []
        for r, (t_probe, j) in enumerate(zip(probes, nodes)):
            mean, var = st.mean[0, r, 0], st.cov[0, r, 0, 0]
            z_var = (var - K[j]) / st.var_se[0, r, 0]
            z_mean = mean / st.mean_se[0, r, 0]
            rows.append((t_probe, *map(float, (mean, var, K[j], z_var, z_mean))))
            ok = abs(z_var) <= 3.0 and abs(z_mean) <= 3.0
            passed = passed and ok
            details.append(
                f"t={t_probe}: var z-score {z_var:+.2f}, mean z-score {z_mean:+.2f}"
            )
        write_csv(self.out / "monte_carlo_stats.csv", "t,mean,var,analytic,z_var,z_mean", rows,
                  _meta(scen, self.seed, {"n_paths": n_paths}))
        _write_paths(self.out / "paths_sample.csv", scen, ens, self.seed, 5, 20)
        return CriterionResult("C6", "Monte Carlo validation", passed, details)

    def criterion_arbitration(self) -> CriterionResult:
        """Transcription arbitration: for each flagged formula, report which
        of the two algebraic forms the oracles support, with the measured
        discrepancies. Fails if the adopted (rederived) form disagrees with
        its oracle. The printed forms come from :mod:`mfkalman.arbitration`."""
        details = []
        rows = []
        passed = True

        # (a) covariance cross pairing, arbitrated by Monte Carlo
        probe = cross_pairing_probe(steps=200)
        gain = GainSchedule.constant(probe.grid, 0.7)
        bars = measure_averages(probe)
        bundle = kernel_bundle(probe, gain)
        ens = simulate_ensemble(probe, gain, n_paths=30000, seed=self.seed + 101,
                                nodes=[probe.grid.n_steps])
        st = empirical_statistics(ens)   # at the final node alone
        worst_adopted = 0.0
        worst_printed = 0.0
        for a in range(probe.n_atoms):
            var, se = st.cov[a, -1, 0, 0], st.var_se[a, -1, 0]
            k_re = covariance_profile(probe, bundle, bars, a)[-1]
            k_tr = covariance_profile_transcribed(probe, bundle, bars, a)[-1]
            worst_adopted = max(worst_adopted, abs(k_re - var) / se)
            worst_printed = max(worst_printed, abs(k_tr - var) / se)
        ok_a = worst_adopted <= 3.0
        passed = passed and ok_a
        rows.append(("covariance-cross-pairing", "rederived",
                     worst_adopted, worst_printed))
        details.append(
            f"covariance cross pairing: adopted=rederived, Monte Carlo z "
            f"{worst_adopted:.2f} (printed form z {worst_printed:.2f})"
        )

        # (b) mixed-kernel derivative, arbitrated by central differences
        rough = random_smooth_scenario(seed=self.seed + 13, steps=200)
        base_vals = 0.4 + 0.2 * np.cos(2 * np.pi * rough.grid.nodes)
        base = GainSchedule(rough.grid, base_vals[:, None, None])
        beta_vals = 0.7 - 0.5 * np.sin(3 * rough.grid.nodes)
        rb = kernel_bundle(rough, base)
        eps = 1e-4
        i, j = rough.grid.n_steps, 0
        up = kernel_bundle(rough, GainSchedule(rough.grid, base_vals + eps * beta_vals))
        dn = kernel_bundle(rough, GainSchedule(rough.grid, base_vals - eps * beta_vals))
        fd = (up.entries(i, j)[2] - dn.entries(i, j)[2]) / (2 * eps)
        d_re = abs(f_direction(rb, i, j, beta_vals) - fd)
        d_tr = abs(f_direction_transcribed(rb, i, j, beta_vals) - fd)
        tol_b = 1e-3 * (1.0 + abs(fd))
        ok_b = d_re <= tol_b
        passed = passed and ok_b
        rows.append(("mixed-kernel-derivative", "rederived", d_re, d_tr))
        details.append(
            f"mixed-kernel derivative: adopted=rederived, fd gap {d_re:.2e} "
            f"(printed form gap {d_tr:.2e})"
        )

        # (c) sensitivity-kernel scaling, arbitrated by the cost-slope oracle
        bars_r = measure_averages(rough)
        g_re = cost_gradient(rough, rb, bars_r)
        g_tr = cost_gradient_transcribed(rough, rb, bars_r)
        beta = GainSchedule(rough.grid, beta_vals[:, None, None])
        fd_j = fd_cost_slope(rough, base, beta, eps, bars_r)
        d_re_j = abs(g_re.pair(beta_vals) - fd_j)
        d_tr_j = abs(g_tr.pair(beta_vals) - fd_j)
        tol_c = 1e-3 * (1.0 + abs(fd_j))
        ok_c = d_re_j <= tol_c
        passed = passed and ok_c
        rows.append(("sensitivity-scaling", "rederived", d_re_j, d_tr_j))
        details.append(
            f"sensitivity scaling: adopted=rederived, cost-slope gap {d_re_j:.2e} "
            f"(printed form gap {d_tr_j:.2e})"
        )

        write_csv(self.out / "arbitration.csv",
                  "formula,adopted,discrepancy_adopted,discrepancy_printed", rows,
                  _meta(probe, self.seed))
        return CriterionResult("C7", "transcription arbitration", passed, details)

    # (method, wall-clock budget in seconds; None = no stated budget)
    ARTIFACT_CRITERIA = (
        ("criterion_kernels", 5.0),
        ("criterion_rate_consistency", 30.0),
        ("criterion_gradient", 60.0),
        ("criterion_classical_reference", 120.0),
        ("criterion_normal_flow_reference", 60.0),
        ("criterion_monte_carlo", 120.0),
        ("criterion_arbitration", None),
    )

    def _timed(self, name: str, budget: float | None) -> CriterionResult:
        """Run one criterion and append its runtime; over budget fails it."""
        start = time.perf_counter()
        res = getattr(self, name)()
        elapsed = time.perf_counter() - start
        if budget is None:
            res.details.append(f"runtime {elapsed:.2f}s")
        else:
            res.details.append(f"runtime {elapsed:.2f}s (budget {budget:g}s)")
            res.passed = res.passed and elapsed <= budget
        return res

    def run_artifacts(self) -> list[CriterionResult]:
        return [self._timed(name, budget) for name, budget in self.ARTIFACT_CRITERIA]

    def criterion_determinism(self) -> CriterionResult:
        """Re-run the whole artifact pipeline (C1–C7 with every CSV) at the
        same seed in a fresh interpreter and require byte-identical CSVs:
        every CSV in ``out_dir`` against every CSV of the re-run, both ways.

        :meth:`run_all` starts the re-run before C1 so that it runs on a
        second core while this process runs C1–C7; called on its own, this
        method starts it and waits. A fresh interpreter has its own hash
        seed and no state left from this run; it must import ``mfkalman``
        from the same file as this process. A re-run that exits non-zero
        fails the criterion with its exit status and last lines of stderr.
        """
        import filecmp
        twin = self._twin or _Twin(self.out, self.seed)
        try:
            status, twin_file, err = twin.wait()
            if status != 0:
                tail = err.strip().splitlines()[-5:]
                return CriterionResult("C8", "deterministic outputs", False,
                                       [f"re-run exited with status {status}; stderr ends:"]
                                       + [f"  {line}" for line in tail])
            mismatches = []
            own_file = Path(sys.modules[__package__].__file__).resolve()
            twin_file = Path(twin_file.strip()).resolve()
            if twin_file != own_file:
                mismatches.append(f"re-run imported mfkalman from {twin_file}, "
                                  f"this run from {own_file}")
            ours = {p.name for p in self.out.glob("*.csv")}
            theirs = {p.name for p in twin.shadow.glob("*.csv")}
            for name in sorted(ours | theirs):
                if name not in theirs:
                    mismatches.append(f"{name}: missing in re-run")
                elif name not in ours:
                    mismatches.append(f"{name}: missing in this run")
                elif not filecmp.cmp(self.out / name, twin.shadow / name, shallow=False):
                    mismatches.append(f"{name}: bytes differ")
        finally:
            twin.stop()
        details = mismatches or ["all CSV artifacts byte-identical across re-run"]
        return CriterionResult("C8", "deterministic outputs", not mismatches, details)

    def run_all(self) -> list[CriterionResult]:
        """C1–C7, then C8, whose re-run starts first and runs alongside them
        in its own process; the re-run is stopped and its shadow directory
        removed however this ends."""
        self._twin = _Twin(self.out, self.seed)
        try:
            return self.run_artifacts() + [self._timed("criterion_determinism", None)]
        finally:
            self._twin.stop()
            self._twin = None
