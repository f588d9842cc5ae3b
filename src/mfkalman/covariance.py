"""Error covariance, its time derivative, gain-sensitivity kernels, cost
and cost gradient.

The primary evaluation path is the closed-form quadrature representation
of the error covariance K(u, t): integrals over [0, t] pairing the
transition kernels with the diffusion loadings. The functional ODE
dK/dt = drift + drift' is implemented as a consistency check, not as the
solver.

Two formulas are fixed by oracles:

* the cross terms pairing the observation loading with an averaged
  loading under the observation-noise covariance: independence of the two
  driving noises forces the gamma-bar pairing, which the Monte Carlo
  check confirms;
* the sensitivity kernel's scale and cross weights, fixed by requiring
  the pairing of the kernel with a direction to reproduce central
  differences of K.

In scalar mode the mixed kernel is f = phi - psi, and the measure average
of K splits into two scalar variances: the mean error (generator H + M,
noise wbar) and the deviation from the mean (generator H, noise
w2 - wbar),

    Kbar(t) = P_mean(t) + P_dev(t),
    P_mean(t) = int_0^t phi(t, s)^2 wbar(s) ds,
    P_dev(t)  = int_0^t psi(t, s)^2 (w2 - wbar)(s) ds.

One atom's profile is P_mean plus two running integrals of its own, its
deviation and the cross term phi psi. The cost gradient pairs each
variance with its costate, the reverse integral of Sigma phi^2 or
Sigma psi^2; so the profiles, the cost and the gradient are a few running
sums each, O(N) time and memory. A scalar bundle keeps one evaluation
record (the weights, P_mean, P_dev, Kbar and J) for the measure averages
it was last evaluated with, and every scalar quantity reads it: the
gradient after the cost on the same bundle adds only its two reverse
sums, and each atom's profile or drift only its own two sums. Each sum
is one running trapezoid, anchored frame by frame
(:meth:`~mfkalman.kernels.ScalarTables.integral`), so a stable system
stays finite and accurate on long horizons, and finite on a stiff step
that moves the exponent by hundreds (where the trapezoid gives about dt/2
times the weight); a value that still overflows (an unstable system)
raises :class:`ScenarioError` naming the stage and node.
The averaged sensitivity kernel is 2 (phi^2 a_mean + psi^2 a_dev)(t, s)
with coefficients from the same sums; only its triangle,
:func:`mean_sensitivity_triangle`, is O(N^2).

In matrix mode the mean error and one atom's error form one linear system
(see :class:`~mfkalman.kernels.StepPropagators`), and K is the atom block
of its second moment P, the trapezoid of T W T' over [0, t] with T the
joint transition and W the joint diffusion. The step maps R_i, the
exponentials of the trapezoid-averaged generator that the scalar mode's
running integrals also use, carry it forward,

    P_0 = 0,  P_{i+1} = R_i (P_i + dt/2 W_i) R_i' + dt/2 W_{i+1},

which is the trapezoid on the transition triangles regrouped by their
semigroup property: O(N) per atom, no triangle is built. T is the same
for every atom and P is linear in W, so the cost reads Kbar from one such
recursion on the measure-averaged W, whatever the atom count. On a 1x1
problem both modes give the same profiles and cost to round-off, and a
value that overflows raises :class:`~mfkalman.system_model.NonFiniteError`
naming the stage and node in either mode.

The bundle's type picks the mode, so ``StepPropagators(scenario, gain)``
runs a 1x1 problem in matrix mode; a bundle or measure averages built for
another scenario than the one passed raise :class:`ScenarioError`.
"""

from __future__ import annotations

import numpy as np

from .kernels import (
    GainSchedule,
    KernelBundle,
    ScalarTables,
    StepPropagators,
    kernel_bundle,
)
from .numerics import TimeGrid, _integer, _ReadOnly, trapezoid
from .system_model import BarQuantities, Scenario, ScenarioError, check_finite

__all__ = [
    "GradientField",
    "covariance_profile",
    "drift_profile",
    "mean_sensitivity_triangle",
    "trace_cost",
    "cost_gradient",
    "fd_cost_slope",
]


class GradientField(_ReadOnly):
    """Gradient density g so that the cost derivative along a direction
    beta equals the time integral of g * beta; g vanishes at the horizon.

    ``curvature`` (the diagonal of dg/dG) and ``diagonal_step`` (the gain
    change that zeroes the averaged kernel's diagonal) hold the variances
    fixed; ``cost`` is J at the same gain (see :func:`cost_gradient`).
    Each is None where not computed."""

    grid: TimeGrid
    values: np.ndarray  # (N+1,)
    curvature: np.ndarray | None  # (N+1,), >= 0
    diagonal_step: np.ndarray | None  # (N+1,)
    cost: float | None

    def __init__(self, grid: TimeGrid, values: np.ndarray,
                 curvature: np.ndarray | None = None,
                 diagonal_step: np.ndarray | None = None, cost: float | None = None):
        self.__dict__.update(grid=grid, values=values, curvature=curvature,
                             diagonal_step=diagonal_step, cost=cost)

    def pair(self, beta: np.ndarray) -> float:
        """Trapezoid pairing with a nodal direction: shape (N+1,), finite
        at every node, else ScenarioError."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape != self.values.shape:
            raise ScenarioError(f"a direction must have shape {self.values.shape}, "
                                f"got {beta.shape}")
        if not np.isfinite(beta).all():
            raise ScenarioError("a direction must be finite at every node")
        return float(trapezoid(self.values * beta, self.grid.dt))


def _atom_index(scenario: Scenario, atom) -> int:
    return _integer(atom, ScenarioError, f"atom index {atom!r} out of range: the measure "
                                         f"has {scenario.n_atoms} atoms", 0, scenario.n_atoms)


class _Evaluation:
    """The scalar averaged evaluation of one bundle under one set of
    measure averages ``bars``. With q = Q, q0 = Q0 (1x1), gain G and
    loadings s_u = sigma(u, .), g_u = gamma(u, .), its weights are

        wbar = q sbar^2 + G^2 q0 gbar^2        (mean-error diffusion)
        w2   = (sigma Q sigma')-bar + G^2 (gamma Q0 gamma')-bar
        w_u  = q s_u^2 + G^2 q0 g_u^2
        x_u  = q sbar s_u + G^2 q0 gbar g_u    (cross weight)

    (the measure averages of w_u and x_u are w2 and wbar), and its values
    are the two parts of the averaged K-profile, ``mean`` = P_mean and
    ``dev`` = P_dev, ``kbar`` = P_mean + P_dev and ``cost`` = J (not
    finite where Kbar is not). It checks nothing, so each reader checks
    Kbar under its own stage name."""

    def __init__(self, tb: ScalarTables, bars: BarQuantities):
        scenario = self.scenario = tb.scenario
        self.bars = bars
        self.q, self.q0 = float(scenario.Q[0, 0]), float(scenario.Q0[0, 0])
        self.G = tb.gain.scalar
        self.sbar, self.gbar, self.g2q0 = (bars.sigma_bar.ravel(), bars.gamma_bar.ravel(),
                                           bars.gamma2_bar.ravel())
        with np.errstate(over="ignore", invalid="ignore"):
            self.wbar = self.q * self.sbar**2 + self.G**2 * self.q0 * self.gbar**2
            self.w2 = bars.sigma2_bar.ravel() + self.G**2 * self.g2q0
            self.mean = tb.integral(self.wbar, 0, 2)
            self.dev = tb.integral(self.w2 - self.wbar, 2, 0)
            self.kbar = self.mean + self.dev
            self.cost = _trace_integral(scenario, self.kbar)

    def atom(self, i: int):
        """Pointwise weight w_u and cross weight x_u of one atom."""
        s_u, g_u = self.scenario.sigma[i].ravel(), self.scenario.gamma[i].ravel()
        w_u = self.q * s_u**2 + self.G**2 * self.q0 * g_u**2
        x_u = self.q * self.sbar * s_u + self.G**2 * self.q0 * self.gbar * g_u
        return w_u, x_u


def _checked(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities | None,
             scalar: bool = False) -> KernelBundle:
    """The guard of every function taking a bundle: the bundle and the
    measure averages must be built for this very ``scenario``, and with
    ``scalar`` (no matrix form) the bundle must be the scalar tables."""
    if bundle.scenario is not scenario:
        raise ScenarioError("the kernel bundle was built for another scenario")
    if bars is not None and bars.scenario is not scenario:
        raise ScenarioError("the measure averages were computed for another scenario")
    if scalar and not isinstance(bundle, ScalarTables):
        raise ScenarioError("this operation requires scalar mode: a ScalarTables bundle")
    return bundle


def _evaluation(tb: ScalarTables, bars: BarQuantities) -> _Evaluation:
    """The :class:`_Evaluation` of ``tb`` under ``bars``, made once and
    kept on the bundle, keyed on the identity of ``bars``: every scalar
    quantity of one bundle reads the same weights, forward sums and J."""
    ev = getattr(tb, "_evaluation", None)
    if ev is None or ev.bars is not bars:
        ev = tb._evaluation = _Evaluation(tb, bars)
    return ev


def _atom_terms(tb: ScalarTables, ev: _Evaluation, w_u, x_u) -> tuple[np.ndarray, ...]:
    """Mean, deviation and cross parts of one atom's K-profile,

        K = int_0^t phi^2 wbar + psi^2 (wbar + w_u - 2 x_u) + 2 phi psi (x_u - wbar),

    the expansion of f^2 wbar + psi^2 w_u + 2 psi f x_u with f = phi - psi;
    the mean part is the evaluation's P_mean."""
    wbar = ev.wbar
    return (ev.mean, tb.integral(wbar + w_u - 2 * x_u, 2, 0), 2 * tb.integral(x_u - wbar, 1, 1))


def covariance_profile(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                       atom) -> np.ndarray:
    """K(u, t_j) at every node for one atom.

    The scalar tables give shape (N+1,), the step propagators (N+1, n, n).
    """
    i = _atom_index(scenario, atom)
    _checked(scenario, bundle, bars)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(bundle, ScalarTables):
            ev = _evaluation(bundle, bars)
            prof = sum(_atom_terms(bundle, ev, *ev.atom(i)))
        else:
            prof = _atom_moment(scenario, bundle, bars, i)
    check_finite("covariance_profile", prof)
    return prof


def _joint_noise(scenario: Scenario, bars: BarQuantities, gain: GainSchedule,
                 atom: int | None) -> np.ndarray:
    """Matrix mode: the diffusion W = [[m_bar, X'], [X, m_atom]] of
    (mean error, atom error) at every node, split as (N+1, 2, 2n, 2n) into
    W_L (X' zeroed) and W_U (X' alone), which the drift transports
    differently. m_bar pairs the averaged loadings, m_atom the atom's, and
    X = sigma(u) Q sigma-bar' + (G gamma(u)) Q0 (G gamma-bar)' the two.
    With ``atom`` None, W is its measure average: m_atom becomes
    m2 = (sigma Q sigma')-bar + G (gamma Q0 gamma')-bar G', and X becomes
    m_bar, since the atoms' loadings average to the bars."""
    def pair(x, y):   # of two (sigma, gamma) loadings
        return (np.einsum("jad,de,jbe->jab", x[0], scenario.Q, y[0])
                + np.einsum("jad,de,jbe->jab", G @ x[1], scenario.Q0, G @ y[1]))

    G = gain.values
    bar = (bars.sigma_bar, bars.gamma_bar)
    m_bar = pair(bar, bar)
    if atom is None:
        X, m_atom = m_bar, bars.sigma2_bar + G @ bars.gamma2_bar @ G.transpose(0, 2, 1)
    else:
        own = (scenario.sigma[atom], scenario.gamma[atom])
        m_atom, X = pair(own, own), pair(own, bar)
    zero = np.zeros_like(X)
    return np.stack([np.block([[m_bar, zero], [X, m_atom]]),
                     np.block([[zero, X.transpose(0, 2, 1)], [zero, zero]])], axis=1)


def _atom_moment(scenario: Scenario, tb: StepPropagators, bars: BarQuantities,
                 atom: int | None) -> np.ndarray:
    """Matrix mode: the symmetrized atom block of the joint second moment,
    one atom's K-profile, or with ``atom`` None the averaged Kbar, from
    one :func:`_joint_moments` pass on the summed :func:`_joint_noise`."""
    W = _joint_noise(scenario, bars, tb.gain, atom).sum(axis=1)
    P = _joint_moments(tb, W, scenario.grid.dt)[:, scenario.n:, scenario.n:]
    return 0.5 * (P + P.transpose(0, 2, 1))


def _joint_moments(tb: StepPropagators, W: np.ndarray, dt: float) -> np.ndarray:
    """The trapezoid of T W T' over [0, t_i] at every node, with T the
    joint transition: P_0 = 0, P_{i+1} = R_i (P_i + dt/2 W_i) R_i'
    + dt/2 W_{i+1}. Any axes between the node axis and the last two are
    carried along."""
    half = 0.5 * dt * W
    P = np.zeros_like(W)
    for i, R in enumerate(tb.R):
        P[i + 1] = R @ (P[i] + half[i]) @ R.T + half[i + 1]
    return P


def drift_profile(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                  atom) -> np.ndarray:
    """Drift at every node: (N+1,) from the scalar tables, (N+1, n, n)
    from the step propagators; zero at node 0.

    It carries the instantaneous diffusion boundary (half of
    sigma Q sigma' + gain gamma Q0 gamma' gain') and transports each
    quadrature with its kernels' rates. In matrix mode, with the parts
    P_L and P_U of the joint moment and Gamma = [[H + M, 0], [M, H]],

        drift = W_uu / 2 + (Gamma P_L)_uu + ((Gamma P_U)_uu)'.
    """
    i = _atom_index(scenario, atom)
    _checked(scenario, bundle, bars)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(bundle, ScalarTables):
            ev = _evaluation(bundle, bars)
            w_u, x_u = ev.atom(i)
            H, M = bundle.H[:, 0, 0], bundle.M[:, 0, 0]
            mean, dev, cross = _atom_terms(bundle, ev, w_u, x_u)
            # the mean part is transported by H + M, the deviation by H, and
            # the cross part by their average
            out = 0.5 * w_u + (H + M) * mean + H * dev + (H + 0.5 * M) * cross
        else:
            n = scenario.n
            W = _joint_noise(scenario, bars, bundle.gain, i)
            P = _joint_moments(bundle, W, scenario.grid.dt)
            # rows of Gamma P that belong to the atom error: M P_eu + H P_uu
            lower, upper = (bundle.M @ P[:, k, :n, n:] + bundle.H @ P[:, k, n:, n:]
                            for k in (0, 1))
            out = 0.5 * W[:, 0, n:, n:] + lower + upper.transpose(0, 2, 1)
    out[0] = 0.0  # empty-interval node: all quadratures vanish
    check_finite("drift_profile", out)
    return out


def _kernel_coefficients(tb: ScalarTables, ev: _Evaluation):
    """Coefficients (a_mean, a_dev) at s of the averaged sensitivity
    kernel, the semigroup split k2(t, s) = 2 (phi^2 a_mean + psi^2 a_dev)(t, s)
    of its row quadratures, and their gain loadings (l_mean, l_dev), from
    the evaluation's P_mean and P_dev:

        a_mean = -(C + D) P_mean + G l_mean,  l_mean = q0 gbar^2,
        a_dev  = -C P_dev + G l_dev,          l_dev  = g2q0 - q0 gbar^2."""
    l_mean = ev.q0 * ev.gbar**2
    l_dev = ev.g2q0 - l_mean
    return ((-(tb.C + tb.D) * ev.mean + ev.G * l_mean, -tb.C * ev.dev + ev.G * l_dev),
            (l_mean, l_dev))


def mean_sensitivity_triangle(scenario: Scenario, bundle: KernelBundle,
                              bars: BarQuantities) -> np.ndarray:
    """Averaged sensitivity kernel on the whole triangle: (N+1, N+1) array
    with entry [i, j] = mean kernel at (t_i, s_j), zero above the diagonal.

    It is 2 phi(t, s)^2 a_mean(s) + 2 psi(t, s)^2 a_dev(s) with the O(N)
    coefficients of :func:`cost_gradient`, read from the bundle's kept
    evaluation, so only the triangle itself is O(N^2). Its phi and psi are
    read through :meth:`~mfkalman.kernels.ScalarTables.entries`, the
    entries of ``bundle.phi`` and ``bundle.psi`` bit for bit, so the bundle
    caches neither. Scalar tables only; a kernel that overflows raises
    :class:`NonFiniteError` naming the stage and node."""
    tb = _checked(scenario, bundle, bars, scalar=True)
    with np.errstate(over="ignore", invalid="ignore"):
        (a, c), _ = _kernel_coefficients(tb, _evaluation(tb, bars))
        nodes = np.arange(scenario.grid.n_nodes)
        phi, psi, _ = tb.entries(nodes[:, None], nodes)
        k = np.tril(2.0 * (phi * phi * a + psi * psi * c))
    check_finite("mean_sensitivity_triangle", k)
    return k


def trace_cost(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities) -> float:
    """Cost J: the atom-averaged time integral of trace(Sigma(t) K(u, t)),
    that of trace(Sigma Kbar) with Kbar the averaged K-profile, P_mean +
    P_dev in scalar mode and :func:`_atom_moment` of the averaged system in
    matrix mode: one O(N) pass whatever the atom count. A Kbar that is not
    finite raises NonFiniteError naming ``trace_cost``.

    In scalar mode the bundle keeps its evaluation for these ``bars``
    (the weights, P_mean, P_dev and J), so a :func:`cost_gradient` on the
    same bundle adds only its two reverse sums; matrix mode keeps nothing."""
    _checked(scenario, bundle, bars)
    if isinstance(bundle, ScalarTables):
        ev = _evaluation(bundle, bars)
        check_finite("trace_cost", ev.kbar)
        return ev.cost
    with np.errstate(over="ignore", invalid="ignore"):
        kbar = _atom_moment(scenario, bundle, bars, None)
    check_finite("trace_cost", kbar)
    return _trace_integral(scenario, kbar)


def _trace_integral(scenario: Scenario, kbar: np.ndarray) -> float:
    """J, the trapezoid of trace(Sigma Kbar), from the averaged K-profile
    of either mode ((N+1,) in scalar mode)."""
    traces = np.einsum("jab,jba->j", scenario.Sigma, kbar.reshape(scenario.Sigma.shape))
    return float(trapezoid(traces, scenario.grid.dt))


def cost_gradient(scenario: Scenario, bundle: KernelBundle,
                  bars: BarQuantities) -> GradientField:
    """Gradient density g(t_j): the tail integral over s in [t_j, T] of
    Sigma(s) times the averaged sensitivity kernel at (s, t_j),
    2 phi(s, t)^2 a_mean(t) + 2 psi(s, t)^2 a_dev(t) with

        a_mean = -(C + D) P_mean + G q0 gbar^2,  a_dev = -C P_dev + G (g2q0 - q0 gbar^2).

    So g = 2 (a_mean L_mean + a_dev L_dev) with the costates
    L_mean(t) = int_t^T Sigma(s) phi(s, t)^2 ds and L_dev (with psi): two
    forward and two reverse anchored running sums
    (:meth:`ScalarTables.integral`), O(N) time and memory, finite on a long
    stable horizon or a stiff stable step; a gradient that overflows raises
    :class:`ScenarioError`. With P and L frozen the diagonal of dg/dG is
    the field's ``curvature`` d = 2 (q0 gbar^2 L_mean + (g2q0 - q0 gbar^2)
    L_dev) >= 0, from the same sums; it vanishes like T - t at the horizon
    and wherever the observation energy g2q0 does.

    On the diagonal s = t the averaged kernel is 2 (a_mean + a_dev), so
    the paper's necessary condition a_mean + a_dev = 0 reads
    G g2q0 = C (P_mean + P_dev) + D P_mean. The field's ``diagonal_step``
    -(a_mean + a_dev) / g2q0 meets it with P held fixed (0 where
    g2q0 <= 1e-14); at the horizon, where g = d = 0, it is the limit of -g / d.

    This is the quadrature of the continuous gradient density, not the
    derivative of the discrete :func:`trace_cost`: the two part by
    O(dt |H|) relative along directions that do not vanish at the ends.
    P_mean and P_dev also give the field's ``cost``, :func:`trace_cost` to
    the bit, checked after g. g vanishes at the horizon by construction.
    The forward sums and J are those the bundle keeps: after a
    :func:`trace_cost` on the same bundle and ``bars`` this adds only the
    two reverse costates. Scalar tables only."""
    tb = _checked(scenario, bundle, bars, scalar=True)
    sigma = scenario.Sigma.ravel()
    ev = _evaluation(tb, bars)
    with np.errstate(over="ignore", invalid="ignore"):
        L_mean = tb.integral(sigma, 0, 2, reverse=True)
        L_dev = tb.integral(sigma, 2, 0, reverse=True)
        (a_mean, a_dev), (l_mean, l_dev) = _kernel_coefficients(tb, ev)
        g = 2.0 * (a_mean * L_mean + a_dev * L_dev)
        d = 2.0 * (l_mean * L_mean + l_dev * L_dev)
        step = np.divide(-(a_mean + a_dev), ev.g2q0, out=np.zeros_like(g),
                         where=ev.g2q0 > 1e-14)
    g[-1] = 0.0
    check_finite("cost_gradient", g)
    check_finite("cost_gradient", ev.kbar)
    return GradientField(grid=scenario.grid, values=g, curvature=d, diagonal_step=step,
                         cost=ev.cost)


def fd_cost_slope(scenario: Scenario, gain0: GainSchedule, direction: GainSchedule,
                  eps: float, bars: BarQuantities) -> float:
    """Central-difference slope of the cost along a direction.

    Rebuilds the kernel bundles at the two perturbed gains; this is the
    independent oracle every sensitivity formula is checked against.
    """
    if not 0.0 < eps < np.inf:
        raise ScenarioError(f"eps must be finite and positive, got {eps!r}")
    if not direction.grid.same_as(gain0.grid) or direction.values.shape != gain0.values.shape:
        raise ScenarioError("the direction must have the gain's grid and shape")
    up = GainSchedule(gain0.grid, gain0.values + eps * direction.values)
    dn = GainSchedule(gain0.grid, gain0.values - eps * direction.values)
    J_up = trace_cost(scenario, kernel_bundle(scenario, up), bars)
    J_dn = trace_cost(scenario, kernel_bundle(scenario, dn), bars)
    return (J_up - J_dn) / (2.0 * eps)
