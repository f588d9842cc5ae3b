"""Bundled scenarios and the scenario file format.

Two scenarios ship with the package:

* ``classical`` — constant unit coefficients, no mean coupling, point
  mass at the origin. The optimal gain is the hyperbolic tangent of time
  (for unit constants), making it the standard closed-form benchmark.
* ``normal-flow`` — loadings equal to the particle's start point with a
  standard normal initial law (11 Gauss-Hermite atoms), again with a
  closed-form tangent reference.

Scenario files are YAML with scalar coefficients given either as numbers
or as expressions in ``t`` (and ``u`` for the loadings), evaluated in a
restricted math namespace.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
import yaml

from .numerics import make_grid
from .system_model import (
    Scenario,
    ScenarioError,
    build_scenario,
    dirac_measure,
    discrete_measure,
    gauss_hermite_measure,
    standard_measure,
)

__all__ = [
    "classical_scenario",
    "normal_flow_scenario",
    "cross_pairing_probe",
    "random_smooth_scenario",
    "load_scenario",
    "resolve_scenario",
    "scenario_hash",
    "BUILTIN_SCENARIOS",
]

DEFAULT_STEPS = 400


def classical_scenario(steps: int = DEFAULT_STEPS, horizon: float = 1.0) -> Scenario:
    """Unit-coefficient filtering benchmark: A=B=D=0, C=sigma=gamma=1,
    point mass at zero."""
    grid = make_grid(horizon, steps)
    return build_scenario(
        grid,
        measure=dirac_measure(0.0),
        A=0.0, B=0.0, C=1.0, D=0.0,
        sigma=1.0, gamma=1.0,
        Q=1.0, Q0=1.0, Sigma=1.0,
    )


def normal_flow_scenario(steps: int = DEFAULT_STEPS, horizon: float = 1.0,
                         gh_nodes: int = 11) -> Scenario:
    """Interacting benchmark: loadings sigma(u,t) = gamma(u,t) = u with a
    standard normal initial law via Gauss-Hermite atoms."""
    grid = make_grid(horizon, steps)
    return build_scenario(
        grid,
        measure=gauss_hermite_measure(gh_nodes),
        A=0.0, B=0.0, C=1.0, D=0.0,
        sigma=lambda u, t: u, gamma=lambda u, t: u,
        Q=1.0, Q0=1.0, Sigma=1.0,
    )


def cross_pairing_probe(steps: int = 200, horizon: float = 1.0) -> Scenario:
    """Arbitration scenario for the covariance cross pairing.

    Mean coupling on (B, D nonzero), nonzero averaged loadings, and a
    two-atom measure: here the two candidate cross pairings differ by a
    margin that a modest Monte Carlo run resolves decisively.
    """
    grid = make_grid(horizon, steps)
    return build_scenario(
        grid,
        measure=discrete_measure([[-1.0], [1.0]], [0.5, 0.5]),
        A=0.2, B=0.5, C=1.0, D=0.3,
        sigma=lambda u, t: 1.0 + 0.25 * u,
        gamma=lambda u, t: 0.6 + 0.2 * u,
        Q=1.0, Q0=1.0, Sigma=1.0,
    )


def random_smooth_scenario(seed: int, steps: int = 200, horizon: float = 1.0,
                           mean_coupling: bool = True) -> Scenario:
    """Seeded scenario with smooth trigonometric coefficients.

    Used by the consistency checks that need generic time dependence;
    amplitudes are kept moderate so kernel magnitudes stay O(1) over the
    horizon. ``mean_coupling=False`` zeroes B and D.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.8, 0.8, size=9)

    def trig(a0, a1, a2, w1, w2):
        return lambda t: a0 + 0.5 * a1 * math.sin(w1 * t) + 0.5 * a2 * math.cos(w2 * t)

    A = trig(c[0], c[1], c[2], 2 * math.pi / horizon, math.pi / horizon)
    if mean_coupling:
        B = trig(c[3], c[4], 0.0, math.pi / horizon, 1.0)
        D = trig(c[5], 0.0, c[6], 1.0, 2 * math.pi / horizon)
    else:
        B = 0.0
        D = 0.0
    C = lambda t: 1.0 + 0.3 * math.sin(math.pi * t / horizon)  # noqa: E731
    s_off, g_off = 1.0 + 0.2 * c[7], 0.7 + 0.2 * c[8]
    grid = make_grid(horizon, steps)
    return build_scenario(
        grid,
        measure=discrete_measure([[-1.0], [1.0]], [0.5, 0.5]),
        A=A, B=B, C=C, D=D,
        sigma=lambda u, t: s_off + 0.25 * u,
        gamma=lambda u, t: g_off + 0.2 * u,
        Q=1.0, Q0=1.0, Sigma=1.0,
    )


BUILTIN_SCENARIOS = {
    "classical": classical_scenario,
    "normal-flow": normal_flow_scenario,
}

_EXPR_NAMES = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "tanh": math.tanh,
    "cosh": math.cosh, "sinh": math.sinh, "exp": math.exp, "log": math.log,
    "sqrt": math.sqrt, "abs": abs, "pi": math.pi, "e": math.e,
}


def _compile_expr(expr: str, args: tuple[str, ...]):
    """Compile a coefficient expression over the restricted namespace."""
    code = compile(expr, "<scenario>", "eval")
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in args:
            raise ScenarioError(f"name {name!r} not allowed in expression {expr!r}")

    def fn(*vals):
        scope = dict(_EXPR_NAMES)
        scope.update(zip(args, vals))
        return float(eval(code, {"__builtins__": {}}, scope))  # noqa: S307

    return fn


def _coeff_from_spec(value, args: tuple[str, ...]):
    if isinstance(value, str):
        return _compile_expr(value, args)
    return float(value)


# parameters a scenario file may leave out
_MEASURE_DEFAULTS = {"dirac": {"x0": 0.0}, "gauss_hermite": {"n_nodes": 11}}


def _measure_from_spec(spec: dict):
    kind = spec.get("kind")
    params = {key: value for key, value in spec.items() if key != "kind"}
    return standard_measure(kind, **{**_MEASURE_DEFAULTS.get(kind, {}), **params})


def load_scenario(path: str | Path, steps: int | None = None) -> Scenario:
    """Parse a YAML scenario file.

    Recognized keys: ``horizon``, ``steps``, ``measure`` (kind plus
    parameters), ``coefficients`` (A, B, C, D as numbers or expressions in
    t), ``sigma``/``gamma`` (numbers or expressions in u and t), ``noise``
    (Q, Q0) and ``cost_weight`` (Sigma). ``steps`` may be overridden.
    """
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario file {path} must be a mapping")
    horizon = float(raw.get("horizon", 1.0))
    n_steps = int(steps if steps is not None else raw.get("steps", DEFAULT_STEPS))
    grid = make_grid(horizon, n_steps)
    coeffs = raw.get("coefficients", {})
    noise = raw.get("noise", {})

    def time_coeff(name, default):
        return _coeff_from_spec(coeffs.get(name, default), ("t",))

    def atom_coeff(name, default):
        value = raw.get(name, default)
        if isinstance(value, str):
            return _compile_expr(value, ("u", "t"))
        return float(value)

    return build_scenario(
        grid,
        measure=_measure_from_spec(raw.get("measure", {"kind": "dirac", "x0": 0.0})),
        A=time_coeff("A", 0.0), B=time_coeff("B", 0.0),
        C=time_coeff("C", 1.0), D=time_coeff("D", 0.0),
        sigma=atom_coeff("sigma", 1.0), gamma=atom_coeff("gamma", 1.0),
        Q=float(noise.get("Q", 1.0)), Q0=float(noise.get("Q0", 1.0)),
        Sigma=_coeff_from_spec(raw.get("cost_weight", 1.0), ("t",)),
    )


def resolve_scenario(name_or_path: str, steps: int | None = None) -> Scenario:
    """A bundled scenario name, or a path to a scenario file."""
    if name_or_path in BUILTIN_SCENARIOS:
        if steps is None:
            return BUILTIN_SCENARIOS[name_or_path]()
        return BUILTIN_SCENARIOS[name_or_path](steps=steps)
    if Path(name_or_path).exists():
        return load_scenario(name_or_path, steps=steps)
    raise ScenarioError(
        f"{name_or_path!r} is neither a bundled scenario "
        f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor an existing file"
    )


def scenario_hash(scenario: Scenario) -> str:
    """Stable fingerprint of the sampled scenario data (for output headers)."""
    h = hashlib.sha256()
    h.update(np.array([scenario.grid.horizon, scenario.grid.n_steps,
                       scenario.n, scenario.m, scenario.d], dtype=float).tobytes())
    for arr in (scenario.A, scenario.B, scenario.C, scenario.D, scenario.Sigma,
                scenario.sigma, scenario.gamma, scenario.Q, scenario.Q0,
                scenario.measure.points, scenario.measure.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]
