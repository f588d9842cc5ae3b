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

One atom's profile adds a third running integral, the cross term
phi psi. The cost gradient pairs each variance with its costate, the
reverse integral of Sigma phi^2 or Sigma psi^2; so the profiles, the
cost and the gradient are a few running sums each, O(N) time and memory.
Each sum is one running trapezoid, anchored frame by frame
(:meth:`~mfkalman.kernels.ScalarTables.integral`), so a stable system
stays finite and accurate on long horizons, and finite on a stiff step
that moves the exponent by hundreds (where the trapezoid gives about dt/2
times the weight); a value that still overflows (an unstable system)
raises :class:`ScenarioError` naming the stage and node.
Only the sensitivity kernels, :func:`sensitivity_triangle` for one atom
and :func:`mean_sensitivity_triangle` averaged (the gradient's test
oracle), build O(N^2) triangles, from the bundle's kernel triangles.

In matrix mode the mean error and one atom's error form one linear system
(see :class:`~mfkalman.kernels.StepPropagators`), and K is the atom block
of its second moment P, the trapezoid of T W T' over [0, t] with T the
joint transition and W the joint diffusion. The step maps R_i carry it
forward,

    P_0 = 0,  P_{i+1} = R_i (P_i + dt/2 W_i) R_i' + dt/2 W_{i+1},

which is the trapezoid on the transition triangles regrouped by their
semigroup property: O(N) per atom, no triangle is built.

A bundle or measure averages built for another scenario than the one
passed raise :class:`ScenarioError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    GainSchedule,
    KernelBundle,
    ScalarTables,
    StepPropagators,
    kernel_bundle,
)
from .numerics import TimeGrid, cumulative_trapezoid, trapezoid
from .system_model import BarQuantities, Scenario, ScenarioError, check_finite

__all__ = [
    "GradientField",
    "covariance_profile",
    "drift_profile",
    "sensitivity_triangle",
    "mean_sensitivity_triangle",
    "trace_cost",
    "cost_gradient",
    "fd_cost_slope",
]


@dataclass(frozen=True)
class GradientField:
    """Gradient density g so that the cost derivative along a direction
    beta equals the time integral of g * beta; g vanishes at the horizon.

    ``curvature`` (the diagonal of dg/dG) and ``diagonal_step`` (the gain
    change that zeroes the averaged kernel's diagonal) hold the variances
    fixed (see :func:`cost_gradient`), or are None where not computed."""

    grid: TimeGrid
    values: np.ndarray  # (N+1,)
    curvature: np.ndarray | None = None  # (N+1,), >= 0
    diagonal_step: np.ndarray | None = None  # (N+1,)

    def pair(self, beta: np.ndarray) -> float:
        """Trapezoid pairing with a nodal direction."""
        return float(trapezoid(self.values * np.asarray(beta, dtype=float), self.grid.dt))


def _atom_index(scenario: Scenario, atom) -> int:
    if not (isinstance(atom, (int, np.integer)) and 0 <= atom < scenario.n_atoms):
        raise ScenarioError(f"atom index {atom!r} out of range: the measure has "
                            f"{scenario.n_atoms} atoms")
    return int(atom)


class _ScalarWeights:
    """Per-scenario scalar weight arrays for the quadrature representation.

    With q = Q, q0 = Q0 (1x1), gain G and loadings s_u = sigma(u, .),
    g_u = gamma(u, .):

        wbar = q sbar^2 + G^2 q0 gbar^2        (mean-error diffusion)
        w2   = (sigma Q sigma')-bar + G^2 (gamma Q0 gamma')-bar
        w_u  = q s_u^2 + G^2 q0 g_u^2
        x_u  = q sbar s_u + G^2 q0 gbar g_u    (cross weight)

    The measure averages of w_u and x_u are w2 and wbar.
    """

    def __init__(self, scenario: Scenario, bars: BarQuantities, gain: GainSchedule):
        self.q = float(scenario.Q[0, 0])
        self.q0 = float(scenario.Q0[0, 0])
        self.G = gain.scalar
        self.sbar = bars.flat("sigma_bar")
        self.gbar = bars.flat("gamma_bar")
        self.g2q0 = bars.flat("gamma2_bar")
        self.wbar = self.q * self.sbar**2 + self.G**2 * self.q0 * self.gbar**2
        self.w2 = bars.flat("sigma2_bar") + self.G**2 * self.g2q0
        self.scenario = scenario

    def atom(self, i: int):
        """Pointwise weight w_u, cross weight x_u and the sensitivity
        kernel's boundary loadings q0 g_u^2 and gbar g_u of one atom."""
        s_u = self.scenario.flat_atom("sigma", i)
        g_u = self.scenario.flat_atom("gamma", i)
        w_u = self.q * s_u**2 + self.G**2 * self.q0 * g_u**2
        x_u = self.q * self.sbar * s_u + self.G**2 * self.q0 * self.gbar * g_u
        return w_u, x_u, self.q0 * g_u**2, self.gbar * g_u

    def averaged(self):
        """Measure averages of the four per-atom arrays of :meth:`atom`."""
        return self.w2, self.wbar, self.g2q0, self.gbar**2


def _checked(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities | None,
             scalar: bool = False) -> KernelBundle:
    """The guard of every function taking a bundle: the bundle and the
    measure averages must be built for this very ``scenario``, and the
    bundle must be the tables of its mode (scalar mode when ``scalar``)."""
    if bundle.scenario is not scenario:
        raise ScenarioError("the kernel bundle was built for another scenario")
    if bars is not None and bars.scenario is not scenario:
        raise ScenarioError("the measure averages were computed for another scenario")
    scalar = scalar or scenario.scalar_mode
    if not isinstance(bundle, ScalarTables if scalar else StepPropagators):
        raise ScenarioError(f"this operation requires {'scalar' if scalar else 'matrix'} mode")
    return bundle


def _averaged_terms(tb: ScalarTables, w: _ScalarWeights) -> tuple[np.ndarray, np.ndarray]:
    """P_mean and P_dev, the two parts of the averaged K-profile."""
    return tb.integral(w.wbar, 0, 2), tb.integral(w.w2 - w.wbar, 2, 0)


def _atom_terms(tb: ScalarTables, wbar, w_u, x_u) -> tuple[np.ndarray, ...]:
    """Mean, deviation and cross parts of one atom's K-profile,

        K = int_0^t phi^2 wbar + psi^2 (wbar + w_u - 2 x_u) + 2 phi psi (x_u - wbar),

    the expansion of f^2 wbar + psi^2 w_u + 2 psi f x_u with f = phi - psi."""
    return (tb.integral(wbar, 0, 2), tb.integral(wbar + w_u - 2 * x_u, 2, 0),
            2 * tb.integral(x_u - wbar, 1, 1))


def covariance_profile(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                       atom) -> np.ndarray:
    """K(u, t_j) at every node for one atom.

    Scalar mode returns shape (N+1,); matrix mode (N+1, n, n).
    """
    i = _atom_index(scenario, atom)
    _checked(scenario, bundle, bars)
    if scenario.scalar_mode:
        w = _ScalarWeights(scenario, bars, bundle.gain)
        with np.errstate(over="ignore", invalid="ignore"):
            prof = sum(_atom_terms(bundle, w.wbar, *w.atom(i)[:2]))
    else:
        n = scenario.n
        W = _joint_noise(scenario, bars, bundle.gain, i).sum(axis=1)
        P = _joint_moments(bundle, W, scenario.grid.dt)[:, n:, n:]
        prof = 0.5 * (P + P.transpose(0, 2, 1))
    check_finite("covariance_profile", prof)
    return prof


def _joint_noise(scenario: Scenario, bars: BarQuantities, gain: GainSchedule,
                 atom: int) -> np.ndarray:
    """Matrix mode: the diffusion W = [[m_bar, X'], [X, m_atom]] of
    (mean error, atom error) at every node, split as (N+1, 2, 2n, 2n) into
    W_L (X' zeroed) and W_U (X' alone), which the drift transports
    differently. m_bar pairs the averaged loadings, m_atom the atom's, and
    X = sigma(u) Q sigma-bar' + (G gamma(u)) Q0 (G gamma-bar)' the two."""
    def pair(x, y):   # of two (sigma, gamma) loadings
        return (np.einsum("jad,de,jbe->jab", x[0], scenario.Q, y[0])
                + np.einsum("jad,de,jbe->jab", G @ x[1], scenario.Q0, G @ y[1]))

    G = gain.values
    bar = (bars.sigma_bar, bars.gamma_bar)
    own = (scenario.sigma[atom], scenario.gamma[atom])
    m_bar, m_atom, X = pair(bar, bar), pair(own, own), pair(own, bar)
    zero = np.zeros_like(X)
    return np.stack([np.block([[m_bar, zero], [X, m_atom]]),
                     np.block([[zero, X.transpose(0, 2, 1)], [zero, zero]])], axis=1)


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
    """Drift at every node: (N+1,) in scalar mode, (N+1, n, n) in matrix
    mode; zero at node 0.

    It carries the instantaneous diffusion boundary (half of
    sigma Q sigma' + gain gamma Q0 gamma' gain') and transports each
    quadrature with its kernels' rates. In matrix mode, with the parts
    P_L and P_U of the joint moment and Gamma = [[H + M, 0], [M, H]],

        drift = W_uu / 2 + (Gamma P_L)_uu + ((Gamma P_U)_uu)'.
    """
    i = _atom_index(scenario, atom)
    _checked(scenario, bundle, bars)
    if scenario.scalar_mode:
        w = _ScalarWeights(scenario, bars, bundle.gain)
        w_u, x_u = w.atom(i)[:2]
        H, M = bundle.H[:, 0, 0], bundle.M[:, 0, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            mean, dev, cross = _atom_terms(bundle, w.wbar, w_u, x_u)
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


def sensitivity_triangle(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                         atom) -> np.ndarray:
    """One atom's sensitivity kernel on the whole triangle (scalar mode):
    (N+1, N+1) array with entry [i, j] = k2(u, t_i, s_j), zero above the
    diagonal. The derivative of K(u, t_i) with respect to the gain is the
    trapezoid pairing of row i with the direction over [0, t_i]."""
    i = _atom_index(scenario, atom)
    tb = _checked(scenario, bundle, bars, scalar=True)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    return np.tril(_sensitivity_kernel(tb, w, *w.atom(i)))


def _sensitivity_quadratures(tb: ScalarTables, w: _ScalarWeights, w_mid, x):
    """The bundle's triangle f = phi - psi and the running integrals along
    each row (over r <= s) of the sensitivity kernel's terms: f^2 wbar,
    psi^2 w_mid and psi f x (the C-term), phi f wbar and phi psi x (the
    D-term). ``w_mid`` is the pointwise weight and ``x`` the cross weight."""
    dt = tb.grid.dt
    psi, phi, f = tb.psi.values, tb.phi.values, tb.f.values
    return (f,
            cumulative_trapezoid(f**2 * w.wbar, dt),
            cumulative_trapezoid(psi**2 * w_mid, dt),
            cumulative_trapezoid(psi * f * x, dt),
            cumulative_trapezoid(phi * f * w.wbar, dt),
            cumulative_trapezoid(phi * psi * x, dt))


def _sensitivity_kernel(tb: ScalarTables, w: _ScalarWeights, w_mid, x, g_point,
                        g_cross) -> np.ndarray:
    """The one sensitivity-kernel evaluator, on the whole triangle (see
    :func:`_sensitivity_quadratures`). ``w_mid``, ``x`` and the boundary
    loadings ``g_point``/``g_cross`` (q0 g^2 and gbar g) are one atom's
    values or their measure averages, see :class:`_ScalarWeights`.
    Entries above the diagonal are meaningless; callers mask them.
    """
    f, U1, U2, U3, V1, V2 = _sensitivity_quadratures(tb, w, w_mid, x)
    psi, G = tb.psi.values, w.G
    boundary = (f**2 * G * w.q0 * w.gbar**2
                + psi**2 * G * g_point
                + 2 * psi * f * G * w.q0 * g_cross)
    half = -tb.C * (U1 + U2 + 2 * U3) - tb.D * (V1 + V2) + boundary
    return 2.0 * half


def mean_sensitivity_triangle(scenario: Scenario, bundle: KernelBundle,
                              bars: BarQuantities) -> np.ndarray:
    """Averaged sensitivity kernel on the whole triangle: (N+1, N+1) array
    with entry [i, j] = mean kernel at (t_i, s_j), zero above the diagonal.

    Vectorized over both indices; cost O(N^2). On the averaged weights the
    D-term is the running integral of phi^2 wbar. The kernel is affine in
    the atom loadings and their squares, so it is the measure-weighted sum
    of the atoms' :func:`sensitivity_triangle`."""
    tb = _checked(scenario, bundle, bars, scalar=True)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    return np.tril(_sensitivity_kernel(tb, w, *w.averaged()))


def trace_cost(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities) -> float:
    """Cost J: the atom-averaged time integral of trace(Sigma(t) K(u, t))."""
    _checked(scenario, bundle, bars)
    if scenario.scalar_mode:
        return _scalar_cost(scenario, bundle, bars)
    total = 0.0
    for a in range(scenario.n_atoms):
        prof = covariance_profile(scenario, bundle, bars, a)
        traces = np.einsum("jab,jba->j", scenario.Sigma, prof)
        total += scenario.measure.weights[a] * float(trapezoid(traces, scenario.grid.dt))
    return total


def _scalar_cost(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities) -> float:
    """Scalar-mode :func:`trace_cost`: the trapezoid of Sigma times the
    averaged K-profile P_mean + P_dev, in O(N)."""
    w = _ScalarWeights(scenario, bars, bundle.gain)
    with np.errstate(over="ignore", invalid="ignore"):
        kbar = sum(_averaged_terms(bundle, w))
    check_finite("trace_cost", kbar)
    return float(trapezoid(scenario.flat("Sigma") * kbar, scenario.grid.dt))


def cost_gradient(scenario: Scenario, bundle: KernelBundle,
                  bars: BarQuantities) -> GradientField:
    """Gradient density g(t_j): the tail integral over s in [t_j, T] of
    Sigma(s) times the averaged sensitivity kernel at (s, t_j).

    With f = phi - psi the averaged kernel at (s, t) is

        2 phi(s, t)^2 a_mean(t) + 2 psi(s, t)^2 a_dev(t),
        a_mean = -(C + D) P_mean + G q0 gbar^2,
        a_dev  = -C P_dev + G (g2q0 - q0 gbar^2),

    so g = 2 a_mean L_mean + 2 a_dev L_dev, where the costates
    L_mean(t) = int_t^T Sigma(s) phi(s, t)^2 ds and L_dev (with psi) are
    reverse running sums: two forward and two reverse sums, O(N) time and
    memory, and equal to the trapezoid tail of
    :func:`mean_sensitivity_triangle` up to round-off. Each sum is one
    anchored running integral (:meth:`ScalarTables.integral`), so a long
    stable horizon or a stiff stable step stays finite; a gradient that
    overflows raises :class:`ScenarioError`.

    a_mean and a_dev are affine in G(t), so with P and L frozen the
    diagonal of dg/dG is the field's ``curvature``

        d = 2 (q0 gbar^2 L_mean + (g2q0 - q0 gbar^2) L_dev) >= 0,

    from the same sums. It vanishes like T - t at the horizon and wherever
    the observation energy g2q0 does.

    On the diagonal s = t the averaged kernel is 2 (a_mean + a_dev), so
    the paper's necessary condition a_mean + a_dev = 0 reads
    G g2q0 = C (P_mean + P_dev) + D P_mean. The field's ``diagonal_step``
    -(a_mean + a_dev) / g2q0 meets it with P held fixed (0 where
    g2q0 <= 1e-14); at the horizon, where g = d = 0, it is the limit of -g / d.

    This is the quadrature of the continuous gradient density, not the
    derivative of the discrete :func:`trace_cost`: the two part by
    O(dt |H|) relative along directions that do not vanish at the ends.

    g vanishes at the horizon by construction. Scalar mode only."""
    tb = _checked(scenario, bundle, bars, scalar=True)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    sigma = scenario.flat("Sigma")
    C, D, G = tb.C, tb.D, w.G
    gq = w.q0 * w.gbar**2
    with np.errstate(over="ignore", invalid="ignore"):
        mean, dev = _averaged_terms(tb, w)
        L_mean = tb.integral(sigma, 0, 2, reverse=True)
        L_dev = tb.integral(sigma, 2, 0, reverse=True)
        a_mean, a_dev = -(C + D) * mean + G * gq, -C * dev + G * (w.g2q0 - gq)
        g = 2.0 * (a_mean * L_mean + a_dev * L_dev)
        d = 2.0 * (gq * L_mean + (w.g2q0 - gq) * L_dev)
        step = np.divide(-(a_mean + a_dev), w.g2q0, out=np.zeros_like(g),
                         where=w.g2q0 > 1e-14)
    g[-1] = 0.0
    check_finite("cost_gradient", g)
    return GradientField(grid=scenario.grid, values=g, curvature=d, diagonal_step=step)


def _gradient_from_kernel(scenario: Scenario, kb2: np.ndarray) -> GradientField:
    """Gradient density from an averaged sensitivity triangle (the
    O(N^2) oracle of :func:`cost_gradient`)."""
    W = scenario.flat("Sigma")[:, None] * kb2
    n = scenario.grid.n_steps
    # column-wise trapezoid over rows i in [j, N]
    col_sums = W.sum(axis=0) - 0.5 * W[n, :] - 0.5 * np.diag(W)
    g = col_sums * scenario.grid.dt
    g[n] = 0.0
    return GradientField(grid=scenario.grid, values=g)


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
