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

import math
import types
from pathlib import Path

import numpy as np

from .numerics import _integer, make_grid
from .system_model import (
    InitialMeasure,
    Scenario,
    ScenarioError,
    build_scenario,
    dirac_measure,
    gauss_hermite_measure,
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


def classical_scenario(steps: int = DEFAULT_STEPS) -> Scenario:
    """Unit-coefficient filtering benchmark on [0, 1]: build_scenario's
    defaults (A=B=D=0, C=sigma=gamma=1) and a point mass at zero."""
    return build_scenario(make_grid(1.0, steps), measure=dirac_measure(0.0))


def normal_flow_scenario(steps: int = DEFAULT_STEPS) -> Scenario:
    """Interacting benchmark on [0, 1]: loadings sigma(u,t) = gamma(u,t) = u
    with a standard normal initial law via 11 Gauss-Hermite atoms."""
    return build_scenario(make_grid(1.0, steps), measure=gauss_hermite_measure(11),
                          sigma=lambda u, t: u, gamma=lambda u, t: u)


def cross_pairing_probe(steps: int = 200) -> Scenario:
    """Arbitration scenario for the covariance cross pairing, on [0, 1].

    Mean coupling on (B, D nonzero), nonzero averaged loadings, and a
    two-atom measure: here the two candidate cross pairings differ by a
    margin that a modest Monte Carlo run resolves decisively.
    """
    return build_scenario(
        make_grid(1.0, steps),
        measure=InitialMeasure([[-1.0], [1.0]], [0.5, 0.5]),
        A=0.2, B=0.5, D=0.3,
        sigma=lambda u, t: 1.0 + 0.25 * u,
        gamma=lambda u, t: 0.6 + 0.2 * u,
    )


def random_smooth_scenario(seed: int, steps: int = 200) -> Scenario:
    """Seeded scenario on [0, 1] with smooth trigonometric coefficients and
    mean coupling.

    Used by the consistency checks that need generic time dependence;
    amplitudes are kept moderate so kernel magnitudes stay O(1) over the
    horizon.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.8, 0.8, size=9)

    def trig(a0, a1, a2, w1, w2):
        return lambda t: a0 + 0.5 * a1 * math.sin(w1 * t) + 0.5 * a2 * math.cos(w2 * t)

    s_off, g_off = 1.0 + 0.2 * c[7], 0.7 + 0.2 * c[8]
    return build_scenario(
        make_grid(1.0, steps),
        measure=InitialMeasure([[-1.0], [1.0]], [0.5, 0.5]),
        A=trig(c[0], c[1], c[2], 2 * math.pi, math.pi),
        B=trig(c[3], c[4], 0.0, math.pi, 1.0),
        C=lambda t: 1.0 + 0.3 * math.sin(math.pi * t),
        D=trig(c[5], 0.0, c[6], 1.0, 2 * math.pi),
        sigma=lambda u, t: s_off + 0.25 * u,
        gamma=lambda u, t: g_off + 0.2 * u,
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


def _compile_expr(expr: str, args: tuple[str, ...], key: str):
    """Compile the expression of coefficient ``key`` over the restricted
    namespace. It must parse, the names it reads must be those of
    ``_EXPR_NAMES`` or ``args``, and it may hold no nested code (a lambda,
    a comprehension or a generator), whose names the check would not see;
    anything else raises :class:`ScenarioError` before any evaluation.
    It is then compiled once, as a function of ``args`` over that
    namespace, inside parentheses on lines of their own, which a trailing
    comment cannot swallow; the function first rebinds t to a Python
    float, whose power overflow and division by zero raise where the
    node's ``np.float64`` would warn and give an infinity. An evaluation
    that fails (an overflow, a division by zero, a math domain error, a
    call of a number) raises :class:`ScenarioError` naming ``key``, the
    expression and its arguments."""
    try:
        code = compile(expr, "<scenario>", "eval")
    except (SyntaxError, ValueError) as exc:
        raise ScenarioError(f"{key}: cannot parse expression {expr!r} "
                            f"({getattr(exc, 'msg', exc)})") from None
    if any(isinstance(const, types.CodeType) for const in code.co_consts):
        raise ScenarioError(f"{key}: nested code (a lambda or a comprehension) not allowed "
                            f"in expression {expr!r}")
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in args:
            raise ScenarioError(f"{key}: name {name!r} not allowed in expression {expr!r}")

    space = {"__builtins__": {}, "_float": float, **_EXPR_NAMES}
    exec(compile(f"def raw({', '.join(args)}):\n t = _float(t)\n return (\n{expr}\n)",
                 "<scenario>", "exec"), space)  # noqa: S102
    raw = space["raw"]

    def fn(*vals):
        try:
            return float(raw(*vals))
        except (ArithmeticError, ValueError, TypeError) as exc:
            at = ", ".join(f"{arg}={val}" for arg, val in zip(args, vals))
            raise ScenarioError(f"{key}: expression {expr!r} raised {type(exc).__name__} "
                                f"at {at}: {exc}") from None

    return fn


def _mapping(value, where: str, keys) -> dict:
    """``value``, checked to be a mapping whose keys are among ``keys``."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a mapping, got {value!r}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ScenarioError(f"unknown key {unknown[0]!r} in {where}")
    return value


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{key} must be a number, got {value!r}")
    return float(value)


def _numbers(value, key: str):
    """A number or a (nested) list of them, entry by entry by :func:`_number`'s
    rule; an entry is named by its index, as in ``weights[0]``."""
    if isinstance(value, list):
        return [_numbers(entry, f"{key}[{i}]") for i, entry in enumerate(value)]
    return _number(value, key)


def _coeff_from_spec(value, args: tuple[str, ...], key: str):
    """An expression in ``args`` or, with no ``args`` or no string, a number."""
    if args and isinstance(value, str):
        return _compile_expr(value, args, key)
    return _number(value, key)


# each measure kind: its constructor, and its parameters with the defaults
# a file may leave out (None: required)
_MEASURE_PARAMS = {"dirac": (dirac_measure, {"x0": 0.0}),
                   "discrete": (InitialMeasure, {"points": None, "weights": None}),
                   "gauss_hermite": (gauss_hermite_measure, {"n_nodes": 11})}


def _measure_from_spec(spec):
    """The measure of a file's ``measure`` mapping: ``n_nodes`` a positive
    integer, every other parameter read by :func:`_numbers`; an error
    names the measure kind."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    make, defaults = _MEASURE_PARAMS.get(kind, (None, {})) if isinstance(kind, str) else (None, {})
    params = {**defaults, **_mapping(spec, "measure", {"kind", *defaults})}
    if make is None:
        raise ScenarioError(f"unknown measure kind {kind!r}")
    params.pop("kind")
    missing = [key for key, value in params.items() if value is None]
    if missing:
        raise ScenarioError(f"measure {kind!r} needs the parameter {missing[0]!r}")
    try:
        return make(**{key: _integer(value, ScenarioError, f"{key} must be a positive "
                                                           f"integer, got {value!r}", 1)
                       if key == "n_nodes" else _numbers(value, key)
                       for key, value in params.items()})
    except ScenarioError as exc:  # a parameter's or the measure's own check
        raise ScenarioError(f"measure {kind!r} {exc}") from None


def load_scenario(path: str | Path, steps: int | None = None) -> Scenario:
    """Parse a YAML scenario file.

    Recognized keys: ``horizon``, ``steps``, ``measure`` (kind plus
    parameters), ``coefficients`` (A, B, C, D as numbers or expressions in
    t), ``sigma``/``gamma`` (numbers or expressions in u and t), ``noise``
    (Q, Q0) and ``cost_weight`` (Sigma). ``steps`` may be overridden. A
    file without ``horizon``, ``steps`` or ``measure`` has 1, ``DEFAULT_STEPS``
    and a point mass at 0; any other value it leaves out is
    :func:`build_scenario`'s default. An unknown key, a missing measure
    parameter or a value of the wrong type raises :class:`ScenarioError`
    naming the key (and the measure kind, for a measure parameter).
    """
    import yaml  # on first use, like hashlib below: an import of mfkalman loads neither

    raw = _mapping(yaml.safe_load(Path(path).read_text()), f"scenario file {path}",
                   {"horizon", "steps", "measure", "coefficients", "sigma", "gamma", "noise",
                    "cost_weight"})
    if steps is None:
        steps = raw.get("steps", DEFAULT_STEPS)
        _integer(steps, ScenarioError, f"steps must be an integer, got {steps!r}")
    grid = make_grid(_number(raw.get("horizon", 1.0), "horizon"), steps)
    coeffs = _mapping(raw.get("coefficients", {}), "coefficients", {"A", "B", "C", "D"})
    noise = _mapping(raw.get("noise", {}), "noise", {"Q", "Q0"})
    measure = _measure_from_spec(raw.get("measure", {"kind": "dirac"}))
    # build_scenario's name of each value, in reading order: where the file
    # holds it, its key and its expression's arguments (none: a number)
    read = {**{key: (coeffs, key, ("t",)) for key in "ABCD"},
            "sigma": (raw, "sigma", ("u", "t")), "gamma": (raw, "gamma", ("u", "t")),
            "Q": (noise, "Q", ()), "Q0": (noise, "Q0", ()), "Sigma": (raw, "cost_weight", ("t",))}
    return build_scenario(grid, measure=measure, **{
        name: _coeff_from_spec(where[key], args, key)
        for name, (where, key, args) in read.items() if key in where})


def resolve_scenario(name_or_path: str, steps: int | None = None) -> Scenario:
    """A bundled scenario name, or a path to a scenario file."""
    if name_or_path in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name_or_path](DEFAULT_STEPS if steps is None else steps)
    if Path(name_or_path).exists():
        return load_scenario(name_or_path, steps=steps)
    raise ScenarioError(
        f"{name_or_path!r} is neither a bundled scenario "
        f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor an existing file"
    )


def scenario_hash(scenario: Scenario) -> str:
    """Stable fingerprint of the sampled scenario data (for output headers)."""
    import hashlib

    h = hashlib.sha256()
    h.update(np.array([scenario.grid.horizon, scenario.grid.n_steps,
                       scenario.n, scenario.m, scenario.d], dtype=float).tobytes())
    for arr in (scenario.A, scenario.B, scenario.C, scenario.D, scenario.Sigma,
                scenario.sigma, scenario.gamma, scenario.Q, scenario.Q0,
                scenario.measure.points, scenario.measure.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]
