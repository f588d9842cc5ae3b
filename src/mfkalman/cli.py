"""Command-line interface: scenario loading, subcommand dispatch, CSV export.

Subcommands: simulate | kernels | covariance | gradcheck | optimize | validate.
Every output file records the scenario hash, seed, grid and package version
in leading comment rows; reruns with the same seed are byte-identical.
CSV export targets scalar scenarios (the bundled ones are scalar); matrix
scenarios are served by the library API.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .gain import optimize_gain
from .kernels import GainSchedule, kernel_bundle
from .scenarios import resolve_scenario
from .simulation import empirical_statistics, simulate_ensemble
from .validation import (
    DEFAULT_SEED,
    ValidationSuite,
    _dump_kernels,
    _dump_optimizer,
    _gradcheck,
    _meta,
    _rate_residuals,
    _reference,
    _smooth_directions,
    _write_covariance,
    _write_paths,
    _write_report,
    write_csv,
)

_DEFAULT_OUT = "mfk-out"


class CliError(RuntimeError):
    def __init__(self, stage: str, message: str, code: int = 1):
        super().__init__(f"error in stage {stage}: {message}")
        self.code = code


def _int_from(low: int):
    """argparse type of an integer option that must be >= ``low``: a bad
    value exits 2, naming the option, before any file is touched."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type of a float option that must be finite and > 0: a bad
    value exits 2, naming the option, before any file is touched."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfkalman",
        description="Minimum-variance filtering for interacting particle systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", default="classical",
                       help="bundled scenario name (classical, normal-flow) or YAML path")
        p.add_argument("--steps", type=_int_from(2), default=None, help="override grid steps")
        p.add_argument("--seed", type=_int_from(0), default=DEFAULT_SEED)
        p.add_argument("--out", default=_DEFAULT_OUT, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="allow overwriting existing output files")
        return p

    def at_gain(p):
        common(p).add_argument("--gain", choices=("zero", "reference"), default="zero",
                               help="gain at which to evaluate (reference = closed-form "
                                    "benchmark gain, bundled scenarios only)")
        return p

    p = at_gain(sub.add_parser("simulate", help="Monte Carlo ensemble and statistics"))
    p.add_argument("--paths", type=_int_from(2), default=2000)

    at_gain(sub.add_parser("kernels", help="transition/mixed kernel triangles"))
    at_gain(sub.add_parser("covariance", help="error covariance per atom and node"))

    p = at_gain(sub.add_parser("gradcheck", help="gradient vs central-difference oracle"))
    p.add_argument("--eps", type=_positive_float, default=1e-4)
    p.add_argument("--directions", type=_int_from(1), default=5)

    p = common(sub.add_parser("optimize", help="preconditioned descent to the optimal gain"))
    p.add_argument("--grad-tol", type=_positive_float, default=None)
    p.add_argument("--max-iter", type=_int_from(1), default=2000)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--seed", type=_int_from(0), default=DEFAULT_SEED)
    p.add_argument("--out", default=str(Path(_DEFAULT_OUT) / "validate"))
    p.add_argument("--force", action="store_true",
                   help="replace the CSV results already in --out")
    return parser


def _prepare_out(out: str, names: list[str], force: bool) -> Path:
    """``out`` as a path, refused if it holds one of ``names`` and not
    ``force``; it is created by the first file written, so a run that fails
    before writing leaves no directory behind."""
    out_dir = Path(out)
    if not force:
        for name in names:
            target = out_dir / name
            if target.exists():
                raise CliError("output", f"{target} exists (use --force to overwrite)", 2)
    return out_dir


def _load(args):
    """The scenario of ``args``, refused in matrix mode: CSV export
    supports scalar scenarios."""
    try:
        scenario = resolve_scenario(args.scenario, steps=args.steps)
    except Exception as exc:
        raise CliError("scenario", str(exc)) from exc
    if not scenario.scalar_mode:
        raise CliError(args.command, "CSV export supports scalar scenarios; "
                                     "use the library API for matrix systems")
    return scenario


def _gain_for(args, scenario) -> GainSchedule:
    if args.gain == "zero":
        return GainSchedule.constant(scenario.grid, 0.0, scenario.n, scenario.m)
    ref = _reference(args.scenario, scenario.grid)
    if ref is None:
        raise CliError("gain", "--gain reference is only defined for bundled scenarios")
    return ref.gain()


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    out = _prepare_out(args.out, ["paths.csv", "statistics.csv"], args.force)
    gain = _gain_for(args, scenario)
    ens = simulate_ensemble(scenario, gain, n_paths=args.paths, seed=args.seed)
    _write_paths(out / "paths.csv", scenario, ens, args.seed, len(ens.x), 1)  # the kept ones
    st = empirical_statistics(ens)
    t = scenario.grid.nodes.tolist()
    rows = [(a, *row) for a in range(scenario.n_atoms)
            for row in zip(t, st.mean[a, :, 0].tolist(), st.cov[a, :, 0, 0].tolist(),
                           st.mean_se[a, :, 0].tolist(), st.var_se[a, :, 0].tolist())]
    write_csv(out / "statistics.csv", "atom,t,mean,var,se_mean,se_var", rows,
              _meta(scenario, args.seed, {"n_paths": args.paths}))
    print(f"simulate: wrote {out / 'paths.csv'} and {out / 'statistics.csv'}")
    return 0


def _cmd_kernels(args) -> int:
    scenario = _load(args)
    names = ["kernel_phi.csv", "kernel_psi.csv", "kernel_f.csv", "kernels_report.txt"]
    out = _prepare_out(args.out, names, args.force)
    gain = _gain_for(args, scenario)
    bundle = kernel_bundle(scenario, gain)
    _dump_kernels(out, bundle, args.seed)
    f_resid, psi_resid = _rate_residuals(bundle)
    _write_report(out / "kernels_report.txt", scenario, args.seed, [
        f"mixed-kernel rate residual (sup, interior): {f_resid:.6e}",
        f"point-kernel rate residual (sup, interior): {psi_resid:.6e}",
    ])
    print(f"kernels: residuals {f_resid:.3e} / {psi_resid:.3e}; wrote {out}")
    return 0


def _cmd_covariance(args) -> int:
    scenario = _load(args)
    out = _prepare_out(args.out, ["covariance.csv", "covariance_report.txt"], args.force)
    worst = _write_covariance(out / "covariance.csv", scenario, _gain_for(args, scenario),
                              args.seed)
    _write_report(out / "covariance_report.txt", scenario, args.seed, [
        f"rate-consistency relative residual (sup, interior): {worst:.6e}",
    ])
    print(f"covariance: rate residual {worst:.3e}; wrote {out / 'covariance.csv'}")
    return 0


def _cmd_gradcheck(args) -> int:
    scenario = _load(args)
    out = _prepare_out(args.out, ["gradcheck.csv", "gradient.csv"], args.force)
    gain = _gain_for(args, scenario)
    rows = _gradcheck(out, scenario, gain,
                      _smooth_directions(scenario.grid, args.directions, args.seed),
                      args.seed, args.eps)
    worst = max(r[3] for r in rows)
    print(f"gradcheck: {len(rows)} directions, max |pairing - fd| = {worst:.3e}")
    return 0


def _cmd_optimize(args) -> int:
    scenario = _load(args)
    names = ["optimizer_trajectory.csv", "optimizer_gain.csv", "filter.csv",
             "optimizer_report.txt"]
    out = _prepare_out(args.out, names, args.force)
    report = optimize_gain(scenario, grad_tol=args.grad_tol, max_iter=args.max_iter)
    _dump_optimizer(out, scenario, report, args.seed)
    bundle = kernel_bundle(scenario, report.gain)
    write_csv(out / "filter.csv", "t,h,m,gain",
              zip(scenario.grid.nodes.tolist(), bundle.H[:, 0, 0].tolist(),
                  bundle.M[:, 0, 0].tolist(), report.gain.scalar.tolist()),
              _meta(scenario, args.seed))
    lines = [
        f"iterations: {report.iterations}",
        f"line-search trials: {sum(report.line_search_trials)}",
        f"converged: {report.converged}",
        f"final cost: {report.final_cost:.12g}",
        f"stationarity residual: {report.stationarity:.6e}",
    ]
    ref = _reference(args.scenario, scenario.grid)
    if ref is not None:
        dev = float(np.max(np.abs(report.gain.scalar - ref.gain_values)))
        lines.append(f"max gain deviation from closed-form reference: {dev:.6e}")
    _write_report(out / "optimizer_report.txt", scenario, args.seed, lines)
    print("\n".join(lines))
    if not report.converged:
        raise CliError("optimize", report.message or "did not converge")
    return 0


def _cmd_validate(args) -> int:
    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.glob("*.csv")) and not args.force:
        raise CliError("output", f"{out_dir} already holds results "
                                 f"(use --force to overwrite)", 2)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.csv"):   # C8 compares every CSV in out_dir
        stale.unlink()
    suite = ValidationSuite(out_dir, seed=args.seed)
    results = suite.run_all()
    failed = 0
    for res in results:
        print(res.line())
        for detail in res.details:
            print(f"    {detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed; "
          f"artifacts in {out_dir}")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "kernels": _cmd_kernels,
    "covariance": _cmd_covariance,
    "gradcheck": _cmd_gradcheck,
    "optimize": _cmd_optimize,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except Exception as exc:  # last-resort diagnostics
        print(f"error in stage {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
