"""Two-time transition operators, the mixed coupling kernel, and their
gain derivatives.

Three kernels drive everything:

* ``phi(t, s)`` solves d/dt phi = (H + M) phi, phi(s, s) = I, where
  H = A - gain*C and M = B - gain*D are the closed-loop drifts;
* ``psi(t, s)`` solves d/dt psi = H psi, psi(s, s) = I;
* ``f(t, s) = int_s^t psi(t, r) M(r) phi(r, s) dr`` transports the mean
  error into the pointwise error. It satisfies f(t, t) = 0 and
  d/dt f = M phi + H f, and so does phi - psi; by variation of constants

      f = phi - psi

  exactly, in scalar and in matrix mode, and f is never integrated.

In scalar mode the operators are exponentials of the running integrals of
H and of H + M, so every kernel value is one exponential of a difference;
the dense lower-triangle storage is generated only when a caller asks for
it, with nothing exponentiated above the diagonal. Long horizons are
handled by anchoring the exponentials frame by frame (:class:`Frames`).
Matrix mode integrates the operator ODEs column-wise with classical
Runge-Kutta.

The directional (Gateaux) derivatives with respect to the gain are
available in scalar mode through :class:`DerivativeKernels`; the mixed
kernel's is the difference of those of phi and psi.
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


# Largest move of the running exponents lh and lhm away from a frame's
# anchor: inside one frame the anchored exponentials stay within
# [e^-128, e^128], so their products in the covariance tables stay inside
# float64 range (about e^709); what a table carries over from earlier
# frames is bounded only when the system is stable.
FRAME_SPAN = 128.0


def _lower_exp(x: np.ndarray) -> np.ndarray:
    """(N+1, N+1) array exp(x[i] - x[j]) on j <= i and 0 above the
    diagonal, where nothing is exponentiated."""
    low = np.tri(len(x), dtype=bool)
    return np.exp(np.where(low, x[:, None] - x[None, :], -np.inf))


class Frames:
    """Anchored copies of the scalar exponentials, for long horizons.

    ``exp(lh)`` and ``exp(lhm)`` under- or overflow once a running exponent
    passes about 700, while the kernels, which are ratios of them, stay
    finite. So the grid is cut into frames: the nodes
    ``starts[k] <= i < starts[k+1]`` are expressed relative to the anchor
    ``a = starts[k]``,

        epsi = exp(lh - lh_a),  ephi = exp(lhm - lhm_a),

    and psi and phi, ratios of two nodes of one frame, are unchanged. A
    frame ends before the first node where lh or lhm has moved more than
    ``FRAME_SPAN`` from the anchor; running integrals cross a frame
    boundary by one scale factor (:meth:`cumulative`). When nothing moves
    that far there is one frame, anchored at node 0, and epsi and ephi
    equal ``exp(lh)`` and ``exp(lhm)`` bit for bit.
    """

    def __init__(self, lh: np.ndarray, lhm: np.ndarray, dt: float):
        n = len(lh) - 1
        starts = [0]
        while True:
            a = starts[-1]
            far = np.flatnonzero((np.abs(lh[a:] - lh[a]) > FRAME_SPAN)
                                 | (np.abs(lhm[a:] - lhm[a]) > FRAME_SPAN))
            if far.size == 0:
                break
            nxt = a + max(1, int(far[0]) - 1)
            if nxt >= n:
                break
            starts.append(nxt)
        self.starts = starts
        self.ends = starts[1:] + [n]   # the next anchor, or the last node
        self.dt = dt
        anchor = np.repeat(starts, np.diff(starts + [n + 1]))
        self.epsi = np.exp(lh - lh[anchor])
        self.ephi = np.exp(lhm - lhm[anchor])
        # moves of lh and lhm from each anchor to the frame's end node
        self.dlh = lh[self.ends] - lh[starts]
        self.dlhm = lhm[self.ends] - lhm[starts]

    def cumulative(self, x: np.ndarray, powers: tuple[int, int],
                   reverse: bool = False) -> np.ndarray:
        """Running trapezoid integral of x from node 0 (or, with
        ``reverse``, to the last node).

        ``x`` holds each node's integrand in that node's frame, and so does
        the result. ``powers = (u, v)`` are the exponents of epsi and ephi
        in ``x``, e.g. (0, -2) for w / ephi^2: at a boundary x and the
        carried integral scale by sigma = exp(-u dlh - v dlhm).
        """
        u, v = powers
        half = 0.5 * self.dt
        out = np.zeros(len(x))
        last = len(self.starts) - 1
        for k in (range(last, -1, -1) if reverse else range(last + 1)):
            a, b = self.starts[k], self.ends[k]
            sigma = np.exp(-u * self.dlh[k] - v * self.dlhm[k]) if k < last else 1.0
            # the run over [a, b - 1] and the panel [b - 1, b], with node b
            # moved into frame k
            panel = half * (x[b - 1] + x[b] / sigma)
            if reverse:
                carry = out[b] / sigma + panel
                out[a:b] = carry + cumulative_trapezoid(x[a:b][::-1], self.dt)[::-1]
            else:
                out[a:b] = out[a] + cumulative_trapezoid(x[a:b], self.dt)
                out[b] = sigma * (out[b - 1] + panel)
        return out

    def integral(self, y: np.ndarray, p: int, q: int, reverse: bool = False) -> np.ndarray:
        """Trapezoid of psi^p phi^q y over the kernels' lower time at every
        node t, int_0^t psi(t, s)^p phi(t, s)^q y(s) ds; with ``reverse``,
        over their upper time at every node s,
        int_s^T psi(t, s)^p phi(t, s)^q y(t) dt."""
        e = self.epsi**p * self.ephi**q
        if reverse:
            return self.cumulative(y * e, (p, q), reverse=True) / e
        return e * self.cumulative(y / e, (-p, -q))


class ScalarTables:
    """Running integrals for the scalar exponential kernel algebra.

    ``H``/``M`` are the closed-loop drifts from :func:`_closed_loop_drifts`
    and ``lh``/``lhm`` their running trapezoid integrals (of H and of
    H + M), so that

        psi(t_i, t_j) = exp(lh[i] - lh[j])
        phi(t_i, t_j) = exp(lhm[i] - lhm[j])
        f(t_i, t_j)   = phi(t_i, t_j) - psi(t_i, t_j).

    Rows and triangles exponentiate only the differences on and below the
    diagonal. ``frames`` holds the anchored exponentials that the O(N)
    formulas of the covariance module pair.
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
        self.frames = Frames(self.lh, self.lhm, dt)

    def psi_value(self, i: int, j: int) -> float:
        return float(np.exp(self.lh[i] - self.lh[j]))

    def phi_value(self, i: int, j: int) -> float:
        return float(np.exp(self.lhm[i] - self.lhm[j]))

    def psi_triangle(self) -> np.ndarray:
        return _lower_exp(self.lh)

    def phi_triangle(self) -> np.ndarray:
        return _lower_exp(self.lhm)

    def psi_row(self, i: int) -> np.ndarray:
        return np.exp(self.lh[i] - self.lh[: i + 1])

    def phi_row(self, i: int) -> np.ndarray:
        return np.exp(self.lhm[i] - self.lhm[: i + 1])


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

    Both f and phi - psi vanish at t = s and solve d/dt f = M phi + H f,
    so f = phi - psi exactly (variation of constants), in scalar and in
    matrix mode; ``phi`` and ``psi`` must be the kernels at ``gain``.
    """
    if not scenario.grid.same_as(phi.grid) or not scenario.grid.same_as(psi.grid):
        raise ScenarioError("phi/psi triangles live on a different grid")
    return TriangularKernel(scenario.grid, phi.values - psi.values)


@dataclass(frozen=True)
class KernelBundle:
    """Closed-loop drifts and the three kernels at one gain.

    In scalar mode the cost, its gradient and the optimizer read only the
    O(N) ``tables``; the dense (N+1) x (N+1) triangles ``phi``, ``psi``
    and ``f`` are built from them on first access and then kept. Matrix
    mode has no tables and stores the RK4 triangles it was given.
    """

    grid: TimeGrid
    gain: GainSchedule
    H: np.ndarray                       # (N+1, n, n)
    M: np.ndarray                       # (N+1, n, n)
    tables: ScalarTables | None = field(repr=False, default=None)
    triangles: dict = field(repr=False, default_factory=dict)  # name -> TriangularKernel

    def _triangle(self, name: str) -> TriangularKernel:
        if name not in self.triangles:
            if name == "f":
                values = self.phi.values - self.psi.values
            else:
                values = getattr(self.tables, f"{name}_triangle")()
            self.triangles[name] = TriangularKernel(self.grid, values)
        return self.triangles[name]

    @property
    def phi(self) -> TriangularKernel:
        return self._triangle("phi")

    @property
    def psi(self) -> TriangularKernel:
        return self._triangle("psi")

    @property
    def f(self) -> TriangularKernel:
        """phi - psi (see :func:`compute_f`)."""
        return self._triangle("f")


def kernel_bundle(scenario: Scenario, gain: GainSchedule) -> KernelBundle:
    """Compute H, M and the kernels at the given gain (scalar mode: their
    tables, with the triangles deferred to first access)."""
    H, M = _closed_loop_drifts(scenario, gain)
    if scenario.scalar_mode:
        return KernelBundle(scenario.grid, gain, H, M, ScalarTables(scenario, gain, H, M))
    phi = compute_phi(scenario, gain)
    psi = compute_psi(scenario, gain)
    f = compute_f(scenario, gain, phi, psi)
    return KernelBundle(scenario.grid, gain, H, M, None, {"phi": phi, "psi": psi, "f": f})


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
        """Derivative density of the mixed kernel f = phi - psi: that of
        phi, -(C + D)(theta) phi(t, s), minus that of psi,
        -C(theta) psi(t, s)."""
        self._check(i, j, k)
        tb = self.tables
        return -(self.C[k] + self.D[k]) * tb.phi_value(i, j) + self.C[k] * tb.psi_value(i, j)

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
        return self.phi_direction(i, j, beta) - self.psi_direction(i, j, beta)


def derivative_kernels(bundle: KernelBundle, scenario: Scenario) -> DerivativeKernels:
    """Directional-derivative kernel evaluators at the bundle's base gain."""
    return DerivativeKernels(bundle, scenario)
