"""Two-time transition operators and the mixed coupling kernel.

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
H and of H + M, so every kernel value is one exponential of a difference,
with nothing exponentiated above the diagonal. Long horizons are handled
by anchoring the exponentials frame by frame (:class:`Frames`). In matrix
mode the mean error and the pointwise error form one linear system with
generator [[H + M, 0], [M, H]] and transition [[phi, 0], [f, psi]]; its
classical Runge-Kutta step maps, one per grid step, are the O(N) tables
(:class:`StepPropagators`). In both modes the dense lower triangles are
generated only when a caller asks for them. The kernels' gain derivatives
serve only the formula arbitration and live in :mod:`mfkalman.arbitration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    TimeGrid,
    TriangularKernel,
    _rk4_step,
    cumulative_trapezoid,
)
from .system_model import Scenario, ScenarioError, _as_matrix, _stack_values

__all__ = [
    "GainSchedule",
    "KernelBundle",
    "kernel_bundle",
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
        """The same value at every node; a scalar is read as in
        :func:`~mfkalman.system_model.build_scenario` (v I when n = m)."""
        val = _as_matrix(value, n, m)
        return cls(grid, np.broadcast_to(val, (grid.n_nodes,) + val.shape).copy())

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn, n: int = 1, m: int = 1) -> "GainSchedule":
        """Node samples of ``fn(t)``, scalars read as in :meth:`constant`."""
        return cls(grid, _stack_values(fn, [(t,) for t in grid.nodes], n, m, "gain({})"))

    @property
    def scalar(self) -> np.ndarray:
        """(N+1,) view; only meaningful for 1x1 gains."""
        if self.values.shape[1:] != (1, 1):
            raise ScenarioError("scalar view requires a 1x1 gain")
        return self.values.reshape(self.grid.n_nodes)

    def with_values(self, values: np.ndarray) -> "GainSchedule":
        return GainSchedule(self.grid, values)


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

    def psi_triangle(self) -> np.ndarray:
        return _lower_exp(self.lh)

    def phi_triangle(self) -> np.ndarray:
        return _lower_exp(self.lhm)

    def psi_row(self, i: int) -> np.ndarray:
        return np.exp(self.lh[i] - self.lh[: i + 1])

    def phi_row(self, i: int) -> np.ndarray:
        return np.exp(self.lhm[i] - self.lhm[: i + 1])


def _drifts(A, B, C, D, G):
    """H = A - G C and M = B - G D, sample by sample."""
    return A - np.einsum("jnm,jmk->jnk", G, C), B - np.einsum("jnm,jmk->jnk", G, D)


def _closed_loop_drifts(scenario: Scenario, gain: GainSchedule):
    """H = A - gain C and M = B - gain D at every node, shape (N+1, n, n)."""
    if not scenario.grid.same_as(gain.grid):
        raise ScenarioError("gain and scenario live on different grids")
    return _drifts(scenario.A, scenario.B, scenario.C, scenario.D, gain.values)


def _joint_generator(H: np.ndarray, M: np.ndarray) -> np.ndarray:
    """[[H + M, 0], [M, H]] per sample: the generator of the mean error
    and the pointwise error, in that order."""
    return np.block([[H + M, np.zeros_like(H)], [M, H]])


def _chain(R: np.ndarray) -> np.ndarray:
    """Lower triangle T[i, j] = R[i-1] ... R[j] of (N+1, N+1, k, k), the
    identity on the diagonal and zero above it, one row per step."""
    n, k = R.shape[0] + 1, R.shape[1]
    out = np.zeros((n, n, k, k))
    out[0, 0] = np.eye(k)
    for i, Ri in enumerate(R):
        out[i + 1, : i + 1] = Ri @ out[i, : i + 1]
        out[i + 1, i + 1] = np.eye(k)
    return out


class StepPropagators:
    """Matrix-mode tables: the one-step transition maps of the joint error.

    The mean error and one particle's error evolve together under
    Y' = Gamma(t) Y with Gamma = [[H + M, 0], [M, H]], whose transition is
    [[phi, 0], [f, psi]]. ``R[j]`` (N, 2n, 2n) is the classical RK4 step of
    that equation from t_j to t_{j+1} started at the identity, with Gamma
    at the left node, at the midpoint (coefficients sampled there, gain
    averaged over the step) and at the right node. Its diagonal blocks
    are the RK4 steps of phi and psi and its upper-right block is exactly
    zero. A transition between two nodes is the ordered product of the
    steps between them; :meth:`phi_triangle` and :meth:`psi_triangle`
    build those products row by row.
    """

    def __init__(self, scenario: Scenario, gain: GainSchedule, H: np.ndarray,
                 M: np.ndarray):
        grid = scenario.grid
        h = grid.dt
        G = gain.values
        mid = grid.nodes[:-1] + 0.5 * h
        H_mid, M_mid = _drifts(*(scenario.sample(c, mid) for c in "ABCD"),
                               0.5 * (G[:-1] + G[1:]))
        # Gamma at the stage offsets 0, h/2 and h of every step at once
        stage = {0.0: _joint_generator(H[:-1], M[:-1]),
                 0.5 * h: _joint_generator(H_mid, M_mid),
                 h: _joint_generator(H[1:], M[1:])}
        self.n = scenario.n
        self.R = _rk4_step(lambda s, Y: stage[s] @ Y, 0.0, np.eye(2 * self.n), h)

    def phi_triangle(self) -> np.ndarray:
        return _chain(self.R[:, : self.n, : self.n])

    def psi_triangle(self) -> np.ndarray:
        return _chain(self.R[:, self.n:, self.n:])


def _tables(scenario: Scenario, gain: GainSchedule):
    """H, M and their kernel tables: :class:`ScalarTables` in scalar mode,
    :class:`StepPropagators` in matrix mode."""
    H, M = _closed_loop_drifts(scenario, gain)
    kind = ScalarTables if scenario.scalar_mode else StepPropagators
    return H, M, kind(scenario, gain, H, M)


@dataclass(frozen=True)
class KernelBundle:
    """Closed-loop drifts and the three kernels at one gain.

    The cost, the covariance and (in scalar mode) the gradient and the
    optimizer read only the O(N) ``tables``: :class:`ScalarTables` in
    scalar mode, :class:`StepPropagators` in matrix mode. The dense
    (N+1) x (N+1) triangles ``phi``, ``psi`` and ``f`` are built from them
    on first access and then kept.
    """

    grid: TimeGrid
    gain: GainSchedule
    H: np.ndarray                       # (N+1, n, n)
    M: np.ndarray                       # (N+1, n, n)
    tables: ScalarTables | StepPropagators = field(repr=False)
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
        """phi - psi (variation of constants, see the module docstring)."""
        return self._triangle("f")


def kernel_bundle(scenario: Scenario, gain: GainSchedule) -> KernelBundle:
    """Compute H, M and the kernel tables at the given gain, with the
    triangles deferred to first access."""
    return KernelBundle(scenario.grid, gain, *_tables(scenario, gain))
