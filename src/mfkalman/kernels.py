"""Two-time transition operators, the mixed coupling kernel, and their
gain derivatives.

Three kernels drive everything:

* ``phi(t, s)`` solves d/dt phi = (H + M) phi, phi(s, s) = I, where
  H = A - gain*C and M = B - gain*D are the closed-loop drifts;
* ``psi(t, s)`` solves d/dt psi = H psi, psi(s, s) = I;
* ``f(t, s) = int_s^t psi(t, r) M(r) phi(r, s) dr`` transports the mean
  error into the pointwise error and satisfies f(t, t) = 0 and
  d/dt f = M phi + H f.

In scalar mode the operators are plain exponentials of running integrals,
so every kernel value reduces to one-dimensional cumulative trapezoid
tables; the dense lower-triangle storage is generated from those tables
and agrees with the defining quadratures to round-off. Matrix mode
integrates the operator ODEs column-wise with classical Runge-Kutta.

The directional (Gateaux) derivatives with respect to the gain are
available in scalar mode through :class:`DerivativeKernels`. The mixed
kernel's derivative is the form obtained by re-deriving the variation
term by term; it agrees with the central-difference oracle of ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    TimeGrid,
    TriangularKernel,
    cumulative_trapezoid,
    trapezoid,
)
from .system_model import Scenario, ScenarioError

__all__ = [
    "GainSchedule",
    "KernelBundle",
    "DerivativeKernels",
    "compute_phi",
    "compute_psi",
    "compute_f",
    "kernel_bundle",
    "derivative_kernels",
]


@dataclass(frozen=True)
class GainSchedule:
    """Nodal gain values, read as piecewise-linear between nodes.

    This is the control variable of the whole problem: values are
    (n, m) matrices per node, plain scalars in scalar mode. A direction
    of differentiation is just another schedule on the same grid.
    """

    grid: TimeGrid
    values: np.ndarray  # (N+1, n, m)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None, None]
        if values.ndim != 3 or values.shape[0] != self.grid.n_nodes:
            raise ScenarioError(
                f"gain values must be ({self.grid.n_nodes}, n, m), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ScenarioError("gain values must be finite at all nodes")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: TimeGrid, value, n: int = 1, m: int = 1) -> "GainSchedule":
        val = np.asarray(value, dtype=float)
        if val.ndim == 0:
            val = float(val) * np.eye(n, m) if n == m else np.full((n, m), float(val))
        return cls(grid, np.broadcast_to(val, (grid.n_nodes,) + val.shape).copy())

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn, n: int = 1, m: int = 1) -> "GainSchedule":
        vals = np.empty((grid.n_nodes, n, m))
        for j, t in enumerate(grid.nodes):
            v = np.asarray(fn(t), dtype=float)
            vals[j] = v if v.ndim else np.full((n, m), float(v))
        return cls(grid, vals)

    @property
    def scalar(self) -> np.ndarray:
        """(N+1,) view; only meaningful for 1x1 gains."""
        if self.values.shape[1:] != (1, 1):
            raise ScenarioError("scalar view requires a 1x1 gain")
        return self.values.reshape(self.grid.n_nodes)

    def with_values(self, values: np.ndarray) -> "GainSchedule":
        return GainSchedule(self.grid, values)

    def at_midpoint(self, j: int) -> np.ndarray:
        """Piecewise-linear value between nodes j and j+1."""
        return 0.5 * (self.values[j] + self.values[j + 1])


class ScalarTables:
    """Cumulative-integral tables for the scalar exponential kernel algebra.

    ``H``/``M`` are the closed-loop drifts from :func:`_closed_loop_drifts`,
    ``lh``/``lhm`` their running integrals (of H and H + M), ``epsi``/``ephi``
    the exponentials (the operators anchored at time 0), and ``c_mix``
    the running integral of M * ephi / epsi, so that

        psi(t_i, t_j) = epsi[i] / epsi[j]
        phi(t_i, t_j) = ephi[i] / ephi[j]
        f(t_i, t_j)   = epsi[i] * (c_mix[i] - c_mix[j]) / ephi[j]

    with the last identity exactly the composite-trapezoid value of the
    defining integral (trapezoid is linear, and the integrand factors).
    """

    def __init__(self, scenario: Scenario, gain: GainSchedule, H: np.ndarray,
                 M: np.ndarray):
        if not scenario.scalar_mode:
            raise ScenarioError("scalar kernel tables require a scalar scenario")
        grid = scenario.grid
        self.grid = grid
        self.gain = gain.scalar
        self.C = scenario.flat("C")
        self.D = scenario.flat("D")
        self.H = H.reshape(grid.n_nodes)
        self.M = M.reshape(grid.n_nodes)
        dt = grid.dt
        self.lh = cumulative_trapezoid(self.H, dt)
        self.lhm = cumulative_trapezoid(self.H + self.M, dt)
        self.epsi = np.exp(self.lh)
        self.ephi = np.exp(self.lhm)
        self.c_mix = cumulative_trapezoid(self.M * self.ephi / self.epsi, dt)
        self._mask = None

    @property
    def mask(self) -> np.ndarray:
        """(N+1, N+1) array with ones on j <= i."""
        if self._mask is None:
            n = self.grid.n_nodes
            self._mask = np.tril(np.ones((n, n)))
        return self._mask

    def psi_value(self, i: int, j: int) -> float:
        return float(np.exp(self.lh[i] - self.lh[j]))

    def phi_value(self, i: int, j: int) -> float:
        return float(np.exp(self.lhm[i] - self.lhm[j]))

    def f_value(self, i: int, j: int) -> float:
        return float(self.epsi[i] * (self.c_mix[i] - self.c_mix[j]) / self.ephi[j])

    def psi_triangle(self) -> np.ndarray:
        return np.exp(self.lh[:, None] - self.lh[None, :]) * self.mask

    def phi_triangle(self) -> np.ndarray:
        return np.exp(self.lhm[:, None] - self.lhm[None, :]) * self.mask

    def f_triangle(self) -> np.ndarray:
        out = (self.epsi[:, None] * (self.c_mix[:, None] - self.c_mix[None, :])
               / self.ephi[None, :])
        return out * self.mask

    def psi_row(self, i: int) -> np.ndarray:
        return np.exp(self.lh[i] - self.lh[: i + 1])

    def f_row(self, i: int) -> np.ndarray:
        return self.epsi[i] * (self.c_mix[i] - self.c_mix[: i + 1]) / self.ephi[: i + 1]


def _closed_loop_drifts(scenario: Scenario, gain: GainSchedule):
    """H = A - gain C and M = B - gain D at every node, shape (N+1, n, n)."""
    if not scenario.grid.same_as(gain.grid):
        raise ScenarioError("gain and scenario live on different grids")
    G = gain.values
    H = scenario.A - np.einsum("jnm,jmk->jnk", G, scenario.C)
    M = scenario.B - np.einsum("jnm,jmk->jnk", G, scenario.D)
    return H, M


def _scalar_tables(scenario: Scenario, gain: GainSchedule) -> ScalarTables:
    return ScalarTables(scenario, gain, *_closed_loop_drifts(scenario, gain))


def _generator_at(scenario: Scenario, gain: GainSchedule, j: int, which: str):
    """Generator at node j and at the midpoint of [t_j, t_{j+1}] for RK4."""
    t_mid = scenario.grid.nodes[j] + 0.5 * scenario.grid.dt
    G_mid = gain.at_midpoint(j)

    def gen(A, B, C, D, G):
        if which == "phi":
            return (A + B) - G @ (C + D)
        return A - G @ C

    g_left = gen(scenario.A[j], scenario.B[j], scenario.C[j], scenario.D[j],
                 gain.values[j])
    g_mid = gen(np.atleast_2d(scenario.coeff_at("A", t_mid)),
                np.atleast_2d(scenario.coeff_at("B", t_mid)),
                np.atleast_2d(scenario.coeff_at("C", t_mid)),
                np.atleast_2d(scenario.coeff_at("D", t_mid)),
                G_mid)
    g_right = gen(scenario.A[j + 1], scenario.B[j + 1], scenario.C[j + 1],
                  scenario.D[j + 1], gain.values[j + 1])
    return g_left, g_mid, g_right


def _rk4_transition(scenario: Scenario, gain: GainSchedule, which: str) -> np.ndarray:
    """Column-wise RK4 solve of d/dt G(t, s) = gen(t) G(t, s), G(s, s) = I."""
    grid = scenario.grid
    n = scenario.n
    nn = grid.n_nodes
    out = np.zeros((nn, nn, n, n))
    eye = np.eye(n)
    h = grid.dt
    # precompute generators once per step
    gens = [_generator_at(scenario, gain, j, which) for j in range(grid.n_steps)]
    for s in range(nn):
        out[s, s] = eye
        val = eye.copy()
        for i in range(s, grid.n_steps):
            gl, gm, gr = gens[i]
            k1 = gl @ val
            k2 = gm @ (val + 0.5 * h * k1)
            k3 = gm @ (val + 0.5 * h * k2)
            k4 = gr @ (val + h * k3)
            val = val + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            out[i + 1, s] = val
    return out


def compute_phi(scenario: Scenario, gain: GainSchedule) -> TriangularKernel:
    """Transition operator of the mean-error dynamics (generator H + M).

    Scalar mode takes the exponential of the running H + M integral;
    matrix mode integrates the operator ODE with RK4, column by column.
    """
    if scenario.scalar_mode:
        return TriangularKernel(scenario.grid, _scalar_tables(scenario, gain).phi_triangle())
    return TriangularKernel(scenario.grid, _rk4_transition(scenario, gain, "phi"))


def compute_psi(scenario: Scenario, gain: GainSchedule) -> TriangularKernel:
    """Transition operator of the pointwise error dynamics (generator H)."""
    if scenario.scalar_mode:
        return TriangularKernel(scenario.grid, _scalar_tables(scenario, gain).psi_triangle())
    return TriangularKernel(scenario.grid, _rk4_transition(scenario, gain, "psi"))


def compute_f(scenario: Scenario, gain: GainSchedule,
              phi: TriangularKernel, psi: TriangularKernel) -> TriangularKernel:
    """Mixed kernel f(t, s) = int_s^t psi(t, r) M(r) phi(r, s) dr.

    Composite trapezoid in r for every node pair; the diagonal is exactly
    zero. Scalar mode evaluates the algebraically identical cumulative
    form (the integrand factors through the anchored exponentials).
    """
    if not scenario.grid.same_as(phi.grid) or not scenario.grid.same_as(psi.grid):
        raise ScenarioError("phi/psi triangles live on a different grid")
    if scenario.scalar_mode:
        return TriangularKernel(scenario.grid, _scalar_tables(scenario, gain).f_triangle())
    _, M = _closed_loop_drifts(scenario, gain)
    nn = scenario.grid.n_nodes
    n = scenario.n
    dt = scenario.grid.dt
    out = np.zeros((nn, nn, n, n))
    for i in range(1, nn):
        # integrand[r, j] = psi(i, r) M(r) phi(r, j) for j <= r <= i
        pm = np.einsum("rab,rbc->rac", psi.values[i, : i + 1], M[: i + 1])
        integrand = np.einsum("rab,rjbc->rjac", pm, phi.values[: i + 1, : i + 1])
        r_idx = np.arange(i + 1)
        integrand *= (r_idx[:, None] >= r_idx[None, :]).astype(float)[:, :, None, None]
        # full-range trapezoid of the masked integrand gives int_j^i plus a
        # spurious half weight on the r = j sample (from the zeroed side)
        total = trapezoid(integrand, dt)
        total[1:i + 1] -= 0.5 * dt * pm[1:i + 1]  # phi(j, j) = I
        total[i] = 0.0
        out[i, : i + 1] = total
    return TriangularKernel(scenario.grid, out)


@dataclass(frozen=True)
class KernelBundle:
    """Closed-loop drifts and the three kernels at one gain."""

    grid: TimeGrid
    gain: GainSchedule
    H: np.ndarray                       # (N+1, n, n)
    M: np.ndarray                       # (N+1, n, n)
    phi: TriangularKernel
    psi: TriangularKernel
    f: TriangularKernel
    tables: ScalarTables | None = field(repr=False, default=None)


def kernel_bundle(scenario: Scenario, gain: GainSchedule) -> KernelBundle:
    """Compute H, M, phi, psi and f at the given gain."""
    H, M = _closed_loop_drifts(scenario, gain)
    if scenario.scalar_mode:
        tables = ScalarTables(scenario, gain, H, M)
        phi = TriangularKernel(scenario.grid, tables.phi_triangle())
        psi = TriangularKernel(scenario.grid, tables.psi_triangle())
        f = TriangularKernel(scenario.grid, tables.f_triangle())
        return KernelBundle(scenario.grid, gain, H, M, phi, psi, f, tables)
    phi = compute_phi(scenario, gain)
    psi = compute_psi(scenario, gain)
    f = compute_f(scenario, gain, phi, psi)
    return KernelBundle(scenario.grid, gain, H, M, phi, psi, f, None)


class DerivativeKernels:
    """Directional-derivative kernels of phi, psi and f (scalar mode).

    For a perturbation direction ``beta`` the derivative of each kernel is
    the trapezoid pairing of a three-time density with ``beta`` over the
    middle interval, e.g.

        d/d(eps) psi_{gain + eps beta}(t, s) |_0
            = int_s^t psi1(t, s, theta) beta(theta) d(theta).

    Index convention: (i, j, k) = (upper time, lower time, derivative
    time) with j <= k <= i. Evaluation is lazy; nothing cubic is stored.
    """

    def __init__(self, bundle: KernelBundle, scenario: Scenario):
        if bundle.tables is None:
            raise ScenarioError("derivative kernels are defined in scalar mode only")
        self.tables = bundle.tables
        self.grid = bundle.grid
        self.C = scenario.flat("C")
        self.D = scenario.flat("D")

    def _check(self, i: int, j: int, k: int):
        if not (0 <= j <= k <= i <= self.grid.n_steps):
            raise ScenarioError(
                f"derivative time must satisfy j <= k <= i, got (i={i}, j={j}, k={k})"
            )

    def psi1(self, i: int, j: int, k: int) -> float:
        self._check(i, j, k)
        return -self.C[k] * self.tables.psi_value(i, j)

    def f1(self, i: int, j: int, k: int) -> float:
        """Derivative density of the mixed kernel.

        The variation splits into the psi-leg on [theta, t], the phi-leg
        on [s, theta] and the pointwise M term:

            f1(t, s, theta) = -C(theta) f(t, s)
                              - D(theta) [ int_theta^t psi(t,r) M(r) phi(r,s) dr
                                           + psi(t, theta) phi(theta, s) ].
        """
        self._check(i, j, k)
        tb = self.tables
        tail = tb.epsi[i] * (tb.c_mix[i] - tb.c_mix[k]) / tb.ephi[j]
        point = tb.psi_value(i, k) * tb.phi_value(k, j)
        return -self.C[k] * tb.f_value(i, j) - self.D[k] * (tail + point)

    # direction contractions ---------------------------------------------
    def psi_direction(self, i: int, j: int, beta: np.ndarray) -> float:
        """Trapezoid of psi1(i, j, .) * beta over [t_j, t_i]."""
        self._check(i, j, j)
        ks = np.arange(j, i + 1)
        density = -self.C[ks] * self.tables.psi_value(i, j)
        return float(trapezoid(density * beta[ks], self.grid.dt))

    def phi_direction(self, i: int, j: int, beta: np.ndarray) -> float:
        self._check(i, j, j)
        ks = np.arange(j, i + 1)
        density = -(self.C[ks] + self.D[ks]) * self.tables.phi_value(i, j)
        return float(trapezoid(density * beta[ks], self.grid.dt))

    def f_direction(self, i: int, j: int, beta: np.ndarray) -> float:
        self._check(i, j, j)
        tb = self.tables
        ks = np.arange(j, i + 1)
        tail = tb.epsi[i] * (tb.c_mix[i] - tb.c_mix[ks]) / tb.ephi[j]
        point = np.exp(tb.lh[i] - tb.lh[ks] + tb.lhm[ks] - tb.lhm[j])
        density = -self.C[ks] * tb.f_value(i, j) - self.D[ks] * (tail + point)
        return float(trapezoid(density * beta[ks], self.grid.dt))


def derivative_kernels(bundle: KernelBundle, scenario: Scenario) -> DerivativeKernels:
    """Directional-derivative kernel evaluators at the bundle's base gain."""
    return DerivativeKernels(bundle, scenario)
