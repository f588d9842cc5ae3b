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

Both modes step the operators by one rule: across a grid step the
generator is frozen at its trapezoid average, so the step of phi is
exp(dt/2 ((H + M)_i + (H + M)_{i+1})) and that of psi likewise with H. In
scalar mode the steps multiply into exponentials of the running integrals
of H and of H + M, so every kernel value is one exponential of a
difference, with nothing exponentiated above the diagonal. Every integral
of a kernel power against a weight is one anchored running trapezoid
(:meth:`ScalarTables.integral`), finite on long horizons and on stiff
stable steps. In matrix mode the mean error and the pointwise error form
one linear system with generator [[H + M, 0], [M, H]] and transition
[[phi, 0], [f, psi]]; its step maps, one matrix exponential pair per grid
step, are the O(N) table (:class:`StepPropagators`) that the covariance
recursion reads, and no matrix triangle is built. Either table is the
:class:`KernelBundle` that :func:`kernel_bundle` returns, bound to the
scenario and gain it was built for; the scalar tables generate their dense
lower triangles only when a caller reads them. The mixed kernel's gain
derivative serves only the formula arbitration and lives in
:mod:`mfkalman.arbitration`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .numerics import TimeGrid, TriangularKernel, _ReadOnly, cumulative_trapezoid
from .system_model import Scenario, ScenarioError, _samples

__all__ = [
    "GainSchedule",
    "KernelBundle",
    "ScalarTables",
    "StepPropagators",
    "kernel_bundle",
]


class GainSchedule(_ReadOnly):
    """Nodal gain values, read as piecewise-linear between nodes.

    This is the control variable of the whole problem: values are
    (n, m) matrices per node, plain scalars in scalar mode. A direction
    of differentiation is just another schedule on the same grid.
    """

    grid: TimeGrid
    values: np.ndarray  # (N+1, n, m)

    def __init__(self, grid: TimeGrid, values):
        values = np.array(values, dtype=float)  # a copy: the caller's array stays theirs
        if values.ndim == 1:
            values = values[:, None, None]
        if values.ndim != 3 or values.shape[0] != grid.n_nodes:
            raise ScenarioError(
                f"gain values must be ({grid.n_nodes}, n, m), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ScenarioError("gain values must be finite at all nodes")
        values.setflags(write=False)
        self.__dict__.update(grid=grid, values=values)

    @classmethod
    def constant(cls, grid: TimeGrid, value, n: int = 1, m: int = 1) -> "GainSchedule":
        """The same value at every node, sampled as a constant coefficient
        of :func:`~mfkalman.system_model.build_scenario` is: a scalar is
        v I when n = m, and a value of another shape than (n, m) is named
        now, as in ``gain has shape (3, 3), expected (1, 1)``. A callable
        is refused (see :meth:`from_callable`)."""
        if callable(value):
            raise TypeError("GainSchedule.constant takes a value; use from_callable")
        return cls(grid, _samples(value, grid, n, m, "gain"))

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn, n: int = 1, m: int = 1) -> "GainSchedule":
        """Node samples of ``fn(t)``, called once per node with the node's
        ``np.float64``, scalars read as in :meth:`constant`; a value of
        another shape is named by its node, as in ``gain(0.0) has shape``."""
        if not callable(fn):
            raise TypeError("GainSchedule.from_callable takes a callable; use constant")
        return cls(grid, _samples(fn, grid, n, m, "gain"))

    @property
    def scalar(self) -> np.ndarray:
        """(N+1,) view; only meaningful for 1x1 gains."""
        if self.values.shape[1:] != (1, 1):
            raise ScenarioError("scalar view requires a 1x1 gain")
        return self.values.reshape(self.grid.n_nodes)


# Largest move of the exponent away from a frame's first node in
# :func:`_running_integral`: the exponentials of a frame stay within
# [e^-128, e^128], far inside float64 range (about e^709).
FRAME_SPAN = 128.0


def _exp_differences(x: np.ndarray, i, j) -> np.ndarray:
    """exp(x[i] - x[j]) for node indices i and j (broadcast together) on
    j <= i, and 0 where j > i, where nothing is exponentiated: the one
    formula for a kernel value. A value beyond float64 range is infinite,
    without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(np.where(j <= i, x[i] - x[j], -np.inf))


def _running_integral(E: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid of exp(E_i - E_j) y_j over j <= i at every node i.

    exp(E) alone leaves float64 range once |E| passes about 700, so the
    grid is cut into frames, each ending before the first node where E has
    moved more than ``FRAME_SPAN`` from the frame's first node a. Inside a
    frame the integral is exp(E - E_a) (x_a + the running trapezoid of
    y / exp(E - E_a)); the next frame starts from the trapezoid's one-step
    map x_b = exp(E_b - E_{b-1}) (x_{b-1} + dt/2 y_{b-1}) + dt/2 y_b,
    which only multiplies, so a stiff falling step underflows to zero.
    """
    out = np.empty(len(E))
    a, carry = 0, 0.0
    while True:
        far = np.flatnonzero(np.abs(E[a:] - E[a]) > FRAME_SPAN)
        b = a + int(far[0]) if far.size else len(E)
        e = np.exp(E[a:b] - E[a])
        out[a:b] = e * (carry + cumulative_trapezoid(y[a:b] / e, dt))
        if b == len(E):
            return out
        carry = np.exp(E[b] - E[b - 1]) * (out[b - 1] + 0.5 * dt * y[b - 1]) + 0.5 * dt * y[b]
        a = b


class KernelBundle:
    """Closed-loop drifts of one scenario at one gain, the base of its
    kernel tables.

    ``H = A - gain C`` and ``M = B - gain D`` are (N+1, n, n). The cost,
    the covariance and (in scalar mode) the gradient and the optimizer
    read only the O(N) tables of the subclass, :class:`ScalarTables` in
    scalar mode and :class:`StepPropagators` in matrix mode.
    ``scenario`` is the scenario the bundle was built for; the covariance
    functions refuse any other.
    """

    def __init__(self, scenario: Scenario, gain: GainSchedule):
        self.scenario = scenario
        self.grid = scenario.grid
        self.gain = gain
        self.H, self.M = _closed_loop_drifts(scenario, gain)


class ScalarTables(KernelBundle):
    """Scalar-mode bundle: the running integrals of the exponential kernel
    algebra.

    ``lh``/``lhm`` are the running trapezoid integrals of H and of H + M,
    so that

        psi(t_i, t_j) = exp(lh[i] - lh[j])
        phi(t_i, t_j) = exp(lhm[i] - lhm[j])
        f(t_i, t_j)   = phi(t_i, t_j) - psi(t_i, t_j).

    The dense (N+1) x (N+1) triangles ``phi``, ``psi`` and ``f`` are built
    on first access and then kept (:meth:`entries`, the one other reader,
    reads any of their entries without building them); they exponentiate
    only the differences on and below the diagonal, and :meth:`integral` is
    the one running integral that the O(N) formulas of the covariance
    module pair.
    """

    def __init__(self, scenario: Scenario, gain: GainSchedule):
        if not scenario.scalar_mode:
            raise ScenarioError("scalar kernel tables require a scalar scenario")
        super().__init__(scenario, gain)
        self.C, self.D = scenario.C.ravel(), scenario.D.ravel()
        H, M = self.H[:, 0, 0], self.M[:, 0, 0]
        self.lh = cumulative_trapezoid(H, self.grid.dt)
        self.lhm = cumulative_trapezoid(H + M, self.grid.dt)

    def integral(self, y: np.ndarray, p: int, q: int, reverse: bool = False) -> np.ndarray:
        """Trapezoid of psi^p phi^q y over the kernels' lower time at every
        node t, int_0^t psi(t, s)^p phi(t, s)^q y(s) ds; with ``reverse``,
        over their upper time, int_s^T psi(t, s)^p phi(t, s)^q y(t) dt: the
        forward integral on the reversed grid with the exponent negated."""
        E = p * self.lh + q * self.lhm
        if reverse:
            return _running_integral(-E[::-1], y[::-1], self.grid.dt)[::-1]
        return _running_integral(E, y, self.grid.dt)

    def entries(self, i, j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """phi, psi and f at node indices i and j (broadcast together), 0
        where j > i, without building a triangle: bit for bit the entries of
        :attr:`phi`, :attr:`psi` and :attr:`f`. Row i of each is
        ``entries(i, np.arange(i + 1))``."""
        phi, psi = _exp_differences(self.lhm, i, j), _exp_differences(self.lh, i, j)
        with np.errstate(invalid="ignore"):
            return phi, psi, phi - psi

    @cached_property
    def phi(self) -> TriangularKernel:
        k = np.arange(self.grid.n_nodes)
        return TriangularKernel(self.grid, _exp_differences(self.lhm, k[:, None], k))

    @cached_property
    def psi(self) -> TriangularKernel:
        k = np.arange(self.grid.n_nodes)
        return TriangularKernel(self.grid, _exp_differences(self.lh, k[:, None], k))

    @cached_property
    def f(self) -> TriangularKernel:
        """phi - psi (variation of constants, see the module docstring);
        where both overflow it is NaN, without a warning."""
        with np.errstate(invalid="ignore"):
            return TriangularKernel(self.grid, self.phi.values - self.psi.values)


def _closed_loop_drifts(scenario: Scenario, gain: GainSchedule):
    """H = A - gain C and M = B - gain D at every node, shape (N+1, n, n)."""
    if not scenario.grid.same_as(gain.grid):
        raise ScenarioError("gain and scenario live on different grids")
    if gain.values.shape[1:] != (scenario.n, scenario.m):
        raise ScenarioError(f"gain entries are {gain.values.shape[1:]}, the scenario "
                            f"needs (n, m) = {(scenario.n, scenario.m)}")
    G = gain.values
    return (scenario.A - np.einsum("jnm,jmk->jnk", G, scenario.C),
            scenario.B - np.einsum("jnm,jmk->jnk", G, scenario.D))


def _expm(X: np.ndarray) -> np.ndarray:
    """exp of every matrix of the stack X (..., k, k) by scaling and
    squaring (Moler & Van Loan, SIAM Review 45, 2003): the degree-16
    Taylor polynomial, in Horner form, of X / 2^q, with q per matrix the
    least that brings the 1-norm to at most 1/2, squared q times. A
    matrix that is not finite gives one that is not finite; callers
    silence the floating-point warnings."""
    q = np.maximum(np.frexp(np.abs(X).sum(axis=-2).max(axis=-1))[1] + 1, 0)
    Y = np.ldexp(X, -q[..., None, None])
    eye = np.eye(X.shape[-1])
    E = eye
    for k in range(16, 0, -1):
        E = eye + Y @ E / k
    for s in range(int(q.max())):
        E = np.where((q > s)[..., None, None], E @ E, E)
    return E


class StepPropagators(KernelBundle):
    """Matrix-mode bundle: the one-step transition maps of the joint error.

    The mean error and one particle's error evolve together under
    Y' = Gamma(t) Y with Gamma = [[H + M, 0], [M, H]], whose transition is
    [[phi, 0], [f, psi]]. Across step i the generator is frozen at its
    trapezoid average, the scalar mode's rule, so the steps of phi and psi
    are Phi_i = expm(dt/2 ((H + M)_i + (H + M)_{i+1})) and
    Psi_i = expm(dt/2 (H_i + H_{i+1})), and ``R[i]`` (N, 2n, 2n) is

        [[Phi_i, 0], [Phi_i - Psi_i, Psi_i]],

    the lower block exact for a constant generator by variation of
    constants. Products of such maps keep the form, so f = phi - psi
    between any two nodes. A transition between two nodes is the ordered
    product of the steps between them, which the covariance recursion
    applies one step at a time. On a 1x1 problem the tables agree with
    :class:`ScalarTables` to round-off.
    """

    def __init__(self, scenario: Scenario, gain: GainSchedule):
        super().__init__(scenario, gain)
        with np.errstate(over="ignore", invalid="ignore"):
            HM, H = self.H + self.M, self.H
            Phi, Psi = _expm(0.5 * self.grid.dt * np.stack([HM[:-1] + HM[1:], H[:-1] + H[1:]]))
            self.R = np.block([[Phi, np.zeros_like(Phi)], [Phi - Psi, Psi]])


def kernel_bundle(scenario: Scenario, gain: GainSchedule) -> KernelBundle:
    """The kernel tables of ``scenario`` at ``gain``, the one place that
    picks the engine: :class:`ScalarTables` when n = m = d = 1 (with the
    triangles deferred to first access), :class:`StepPropagators` otherwise.
    Every function taking a bundle dispatches on its type."""
    return (ScalarTables if scenario.scalar_mode else StepPropagators)(scenario, gain)
