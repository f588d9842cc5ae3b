"""Gain optimization and closed-form Riccati references.

The optimizer drives the gain to first-order stationarity of the trace
cost, using the exact gradient density g from the covariance module. The
first-order optimality target is

    int_t^T Sigma(s) * (averaged sensitivity kernel)(s, t) ds = 0
    for every t,

whose sup-norm over nodes is the reported stationarity residual.

Three structural facts shape the implementation:

* g is affine in the gain at each node once the variances and costates
  are frozen, and its slope there, the curvature d of
  :class:`~mfkalman.covariance.GradientField`, vanishes linearly as
  t -> T. Plain descent therefore needs O(N) iterations; stepping along
  p = -g / d instead (a diagonally preconditioned Newton step with an
  Armijo line search, Nocedal & Wright, Numerical Optimization, ch. 3)
  takes the same handful of iterations on every mesh. When the mean
  coupling vanishes the step is the pointwise diagonal solve below.
* at the optimum the averaged sensitivity kernel vanishes pointwise on its
  diagonal (the paper's necessary condition), solved by the gradient's
  ``diagonal_step``: the Newton step at the horizon, where g = d = 0, and
  one pass of it on the final few nodes finishes a converged run
  ("endpoint completion"), where g and d are both O(dt).
* for the two reference families the stationarity system collapses to
  scalar Riccati equations, solved here with classical Runge-Kutta as
  independent references for the optimizer.
"""

from __future__ import annotations

import time

import numpy as np

from .covariance import GradientField, cost_gradient, trace_cost
from .kernels import GainSchedule, kernel_bundle
from .numerics import TimeGrid, _integer, _ReadOnly
from .system_model import (
    BarQuantities,
    NonFiniteError,
    Scenario,
    ScenarioError,
    measure_averages,
)

__all__ = [
    "OptimizationReport",
    "RiccatiSolution",
    "optimize_gain",
    "riccati_classical",
    "riccati_normal_flow",
]

_ARMIJO_C1 = 1e-4
_ARMIJO_SHRINK = 0.5
_STEP_FLOOR = 1e-14
_COMPLETION_NODES = 3
_CURVATURE_FLOOR = 1e-12  # relative to the largest curvature
_RICCATI_BLOWUP = 1e8


class OptimizationReport(_ReadOnly):
    """Outcome of a gain optimization run.

    ``cost_trajectory`` and ``gradient_trajectory`` (sup over all nodes)
    are aligned per descent iterate (entry 0 is the starting point, and
    every iterate moves the terminal node too), before endpoint
    completion. ``step_sizes`` (the accepted Armijo step) and
    ``line_search_trials`` (cost evaluations it took) are aligned with
    ``cost_trajectory[1:]``; the trials of a failed line search are not
    recorded; ``iterations`` is their length. ``rejected_trials``, also
    aligned with ``step_sizes``, lists for each iteration why each of its
    rejected trials failed, in order: ``"armijo"`` (J did not fall enough)
    or ``"non-finite cost"`` (:func:`~mfkalman.covariance.trace_cost`
    raised); a candidate whose gain is not finite is no trial.
    ``iteration_seconds``, also aligned with ``step_sizes``, is each
    iteration's wall time: its direction, line search and gradient.
    ``final_cost`` and the stationarity residual (over all nodes) are
    those of the returned gain, from its
    :func:`~mfkalman.covariance.cost_gradient` evaluation: the completed
    last iterate of a converged run, else the last iterate.
    """

    gain: GainSchedule
    cost_trajectory: list[float]
    gradient_trajectory: list[float]
    step_sizes: list[float]
    line_search_trials: list[int]
    iteration_seconds: list[float]
    stationarity: float
    iterations: int
    converged: bool
    final_cost: float
    message: str
    rejected_trials: list[list[str]]

    def __init__(self, gain: GainSchedule, cost_trajectory: list[float],
                 gradient_trajectory: list[float], step_sizes: list[float],
                 line_search_trials: list[int], iteration_seconds: list[float],
                 stationarity: float, iterations: int, converged: bool, final_cost: float,
                 message: str = "", rejected_trials: list[list[str]] | None = None):
        self.__dict__.update(gain=gain, cost_trajectory=cost_trajectory,
                             gradient_trajectory=gradient_trajectory, step_sizes=step_sizes,
                             line_search_trials=line_search_trials,
                             iteration_seconds=iteration_seconds, stationarity=stationarity,
                             iterations=iterations, converged=converged,
                             final_cost=final_cost, message=message,
                             rejected_trials=[] if rejected_trials is None else rejected_trials)


class RiccatiSolution(_ReadOnly):
    """Closed-form reference: Riccati state, implied gain, and (for the
    interacting family) the co-integrated mean error variance."""

    grid: TimeGrid
    state: np.ndarray                    # (N+1,)
    gain_values: np.ndarray              # (N+1,)
    mean_variance: np.ndarray | None

    def __init__(self, grid: TimeGrid, state: np.ndarray, gain_values: np.ndarray,
                 mean_variance: np.ndarray | None = None):
        self.__dict__.update(grid=grid, state=state, gain_values=gain_values,
                             mean_variance=mean_variance)

    def gain(self) -> GainSchedule:
        return GainSchedule(self.grid, self.gain_values[:, None, None])


def _newton_direction(field: GradientField) -> np.ndarray:
    """p = -g / d, and 0 where the curvature d is below a relative floor
    (nodes without observation energy), except at the terminal node: there
    g = d = 0 and p is the limit of -g / d, the field's ``diagonal_step``."""
    d = field.curvature
    live = d > _CURVATURE_FLOOR * d.max()
    p = np.zeros_like(d)
    p[live] = -field.values[live] / d[live]
    p[-1] = field.diagonal_step[-1]
    return p


def optimize_gain(scenario: Scenario, *, initial_gain: GainSchedule | None = None,
                  max_iter: int = 2000, grad_tol: float | None = None,
                  bars: BarQuantities | None = None) -> OptimizationReport:
    """Drive the gain to first-order stationarity of the trace cost.

    Each iteration steps along the preconditioned direction p = -g / d
    (see :func:`_newton_direction`); the Armijo search tries the step 1
    first and halves it until J decreases by at least 1e-4 times the step
    times the slope <g, p> (``field.pair(p)``). ``grad_tol`` defaults to the
    scale-free 1e-4 * (1 + |J|) at the start, and convergence is declared
    on the gradient sup-norm over all nodes. Endpoint completion then adds
    the gradient's ``diagonal_step`` on the final ``_COMPLETION_NODES``
    nodes, whose curvature vanishes with the mesh; one ``cost_gradient``
    call gives the completed gain's cost and stationarity. A given
    ``grad_tol`` must be finite and positive, and ``max_iter`` an integer
    >= 1.

    The search starts from ``initial_gain``, zero by default. Scalar
    mode only. A trial whose gain or cost is not finite is rejected like
    one that does not decrease J, and raises no warning. A failed line
    search (step underflow, or no descent direction), the iteration
    limit, or an endpoint completion that is not finite returns the last
    iterate, not completed, with ``converged=False``.
    """
    if not scenario.scalar_mode:
        raise ScenarioError("gain optimization requires a scalar scenario")
    if grad_tol is not None and not 0.0 < grad_tol < np.inf:
        raise ScenarioError(f"grad_tol must be finite and positive, got {grad_tol!r}")
    _integer(max_iter, ScenarioError, f"max_iter must be an integer >= 1, got {max_iter!r}", 1)
    if bars is None:
        bars = measure_averages(scenario)
    gain = GainSchedule.constant(scenario.grid, 0.0) if initial_gain is None else initial_gain

    bundle = kernel_bundle(scenario, gain)
    J = trace_cost(scenario, bundle, bars)
    if grad_tol is None:
        grad_tol = 1e-4 * (1.0 + abs(J))
    trajectory = [J]
    steps: list[float] = []
    trials: list[int] = []
    rejected: list[list[str]] = []
    seconds: list[float] = []
    message = ""
    field = cost_gradient(scenario, bundle, bars)
    grad_trajectory = [float(np.max(np.abs(field.values)))]

    # the tolerance is tested after every accepted step, the last one too
    while not (converged := grad_trajectory[-1] <= grad_tol):
        if len(steps) == max_iter:
            message = "iteration limit reached"
            break
        start = time.perf_counter()
        p = _newton_direction(field)
        # a direction that is not finite gives no finite candidate gain,
        # and no step can meet an infinite decrease: every trial is rejected
        slope = field.pair(p) if np.isfinite(p).all() else -np.inf
        if not slope < 0.0:
            message = "no descent direction"
            break
        eta, tried, reasons = 1.0, 0, []
        while eta >= _STEP_FLOOR:
            # a candidate whose gain or cost is not finite is a rejected
            # trial; its overflows are seen in the values, not as warnings
            with np.errstate(over="ignore", invalid="ignore"):
                values = gain.scalar + eta * p
                if np.isfinite(values).all():
                    cand = GainSchedule(gain.grid, values)
                    cand_bundle = kernel_bundle(scenario, cand)
                    tried += 1
                    try:
                        J_cand = trace_cost(scenario, cand_bundle, bars)
                    except NonFiniteError:
                        reasons.append("non-finite cost")
                    else:
                        if J_cand <= J + _ARMIJO_C1 * eta * slope:
                            break
                        reasons.append("armijo")
            eta *= _ARMIJO_SHRINK
        else:
            message = "line search step underflow"
            break
        gain, bundle, J = cand, cand_bundle, J_cand
        trajectory.append(J)
        steps.append(eta)
        trials.append(tried)
        rejected.append(reasons)
        field = cost_gradient(scenario, bundle, bars)
        grad_trajectory.append(float(np.max(np.abs(field.values))))
        seconds.append(time.perf_counter() - start)

    if converged:
        completed = gain.scalar.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            completed[-_COMPLETION_NODES:] += field.diagonal_step[-_COMPLETION_NODES:]
        if not np.isfinite(completed).all():
            converged, message = False, "endpoint completion gave a non-finite gain"
        else:
            done = GainSchedule(gain.grid, completed)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    done_field = cost_gradient(scenario, kernel_bundle(scenario, done), bars)
            except NonFiniteError:
                converged, message = False, "endpoint completion gave a non-finite cost"
            else:
                gain, field, J = done, done_field, done_field.cost
    return OptimizationReport(
        gain=gain,
        cost_trajectory=trajectory,
        gradient_trajectory=grad_trajectory,
        step_sizes=steps,
        line_search_trials=trials,
        iteration_seconds=seconds,
        stationarity=float(np.max(np.abs(field.values))),
        iterations=len(steps),
        converged=converged,
        final_cost=J,
        message=message,
        rejected_trials=rejected,
    )


def _as_time_fn(value):
    return value if callable(value) else lambda t, _v=float(value): _v


def _rk4(rhs, y0: tuple[float, ...], grid: TimeGrid) -> np.ndarray:
    """Classical RK4 of y' = rhs(t, y) on the grid; returns (N+1, len(y0)).

    The state is a short sequence of Python floats, and ``rhs`` returns
    one: on one or two components a numpy array costs more per operation
    than the arithmetic. Each component follows the textbook step on
    arrays, y + h/6 (k1 + 2 k2 + 2 k3 + k4) with the stages at t, t + h/2
    and t + h, operation by operation, so the values are the same to the
    bit. A state above ``_RICCATI_BLOWUP`` in size, or not finite,
    raises."""
    h = grid.dt
    half, sixth = 0.5 * h, h / 6.0
    y = list(y0)
    rows = [y]
    for t in grid.nodes[:-1]:
        k1 = rhs(t, y)
        k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        # not (|v| <= bound) also catches nan
        if not all(abs(v) <= _RICCATI_BLOWUP for v in y):
            raise ScenarioError(f"Riccati state blew up near t = {t + h:g}")
        rows.append(y)
    return np.array(rows, dtype=float)


def riccati_classical(A, C, sigma0, gamma0, grid: TimeGrid) -> RiccatiSolution:
    """Classical filtering reference (no mean coupling, point mass start).

    Integrates S' = 2 A S - (C^2 / gamma0^2) S^2 + sigma0^2 from S(0) = 0
    with RK4 and returns the induced gain C S / gamma0^2 — the classical
    optimal-gain/variance pair for unit noise covariances.
    """
    A_f, C_f = _as_time_fn(A), _as_time_fn(C)
    s_f, g_f = _as_time_fn(sigma0), _as_time_fn(gamma0)
    for t in grid.nodes:
        if abs(g_f(t)) < 1e-12:
            raise ScenarioError(f"gamma0 vanishes at t = {t:g}")

    def rhs(t, y):
        (s,) = y
        g2 = g_f(t) ** 2
        return (2.0 * A_f(t) * s - (C_f(t) ** 2 / g2) * s * s + s_f(t) ** 2,)

    S = _rk4(rhs, (0.0,), grid)[:, 0]
    gain = np.array([C_f(t) * S[i] / g_f(t) ** 2 for i, t in enumerate(grid.nodes)])
    return RiccatiSolution(grid=grid, state=S, gain_values=gain)


def riccati_normal_flow(A, C, grid: TimeGrid) -> RiccatiSolution:
    """Interacting-family reference (loadings equal to the start point,
    standard normal start, no mean coupling).

    Integrates the reduced equation M' = 1 + 2 A M - C^2 M^2, M(0) = 0
    (gain = C M) jointly with the mean error variance
    Kbar' = 1 + C^2 M^2 + 2 (A - C^2 M) Kbar, Kbar(0) = 0; the two agree
    identically, which the joint integration exposes to round-off.
    """
    A_f, C_f = _as_time_fn(A), _as_time_fn(C)
    for t in grid.nodes:
        if abs(C_f(t)) < 1e-12:
            raise ScenarioError(f"C vanishes at t = {t:g}")

    def rhs(t, y):
        m, kb = y
        a, c2 = A_f(t), C_f(t) ** 2
        dm = 1.0 + 2.0 * a * m - c2 * m * m
        dkb = 1.0 + c2 * m * m + 2.0 * (a - c2 * m) * kb
        return dm, dkb

    state = _rk4(rhs, (0.0, 0.0), grid)
    M = state[:, 0]
    gain = np.array([C_f(t) for t in grid.nodes]) * M
    return RiccatiSolution(grid=grid, state=M, gain_values=gain,
                           mean_variance=state[:, 1])
