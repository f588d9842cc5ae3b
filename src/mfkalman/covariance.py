"""Error covariance, its time derivative, gain-sensitivity kernels, cost
and cost gradient.

The primary evaluation path is the closed-form quadrature representation
of the error covariance K(u, t): eight integrals over [0, t] pairing the
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

Scalar mode computes every profile, the cost and the cost gradient from
one-dimensional cumulative tables in O(N) time and memory: the averaged
sensitivity kernel factors as 2 epsi(t)^2 times a quadratic in c_mix(t)
whose coefficients depend on s alone, so its tail integral in t is three
reverse running sums. The tables are kept in anchored frames
(:class:`~mfkalman.kernels.Frames`) that bound the exponentials and c_mix
frame by frame, so a stable system stays finite and accurate on long
horizons, with or without mean coupling; a value that still overflows
(an unstable system) raises :class:`ScenarioError` naming the stage and
node. Only :func:`mean_sensitivity_triangle`, the test oracle, builds
the O(N^2) triangle. Matrix mode evaluates the defining quadratures cell
by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    GainSchedule,
    KernelBundle,
    ScalarTables,
    kernel_bundle,
)
from .numerics import TimeGrid, cumulative_trapezoid, trapezoid
from .system_model import BarQuantities, Scenario, ScenarioError, check_finite

__all__ = [
    "CovarianceField",
    "GradientField",
    "error_covariance",
    "covariance_profile",
    "covariance_field",
    "covariance_drift",
    "drift_profile",
    "covariance_sensitivity",
    "sensitivity_profile",
    "mean_sensitivity",
    "mean_sensitivity_triangle",
    "trace_cost",
    "cost_gradient",
    "fd_cost_slope",
]


@dataclass(frozen=True)
class CovarianceField:
    """K(u_i, t_j) for every atom and node, at one base gain."""

    grid: TimeGrid
    gain: GainSchedule
    values: np.ndarray  # (k_atoms, N+1, n, n)


@dataclass(frozen=True)
class GradientField:
    """Gradient density g so that the cost derivative along a direction
    beta equals the time integral of g * beta; g vanishes at the horizon."""

    grid: TimeGrid
    values: np.ndarray  # (N+1,)

    def pair(self, beta: np.ndarray) -> float:
        """Trapezoid pairing with a nodal direction."""
        return float(trapezoid(self.values * np.asarray(beta, dtype=float), self.grid.dt))


def _atom_index(scenario: Scenario, atom) -> int:
    if isinstance(atom, (int, np.integer)):
        if not 0 <= atom < scenario.n_atoms:
            raise ScenarioError(f"atom index {atom} out of range")
        return int(atom)
    point = np.atleast_1d(np.asarray(atom, dtype=float))
    dists = np.linalg.norm(scenario.measure.points - point[None, :], axis=1)
    hit = int(np.argmin(dists))
    if dists[hit] > 1e-9 * max(1.0, float(np.abs(point).max())):
        raise ScenarioError(f"point {atom!r} is not an atom of the measure")
    return hit


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


def _require_scalar_bundle(bundle: KernelBundle) -> ScalarTables:
    if bundle.tables is None:
        raise ScenarioError("this operation requires scalar mode")
    return bundle.tables


def _quadrature_tables(tb: ScalarTables, wbar, w_mid, x_mid) -> tuple:
    """Running integrals T0..T5 of the factored quadrature terms, each
    node's value in its own frame (see :class:`~mfkalman.kernels.Frames`);
    they pair with ``tb.frames.epsi``/``.ephi``/``.c``."""
    fr = tb.frames
    T0, T1, T2 = fr.cumulative(wbar / fr.ephi**2, (0, -2), degree=2)
    (T3,) = fr.cumulative(w_mid / fr.epsi**2, (-2, 0))
    T4, T5 = fr.cumulative(x_mid / (fr.epsi * fr.ephi), (-1, -1), degree=1)
    return T0, T1, T2, T3, T4, T5


def _profile_from_tables(tb: ScalarTables, tables: tuple) -> np.ndarray:
    T0, T1, T2, T3, T4, T5 = tables
    c = tb.frames.c
    return tb.frames.epsi**2 * (c**2 * T0 - 2 * c * T1 + T2 + T3 + 2 * (c * T4 - T5))


def _profile_from_weights(tb: ScalarTables, wbar, w_mid, x_mid) -> np.ndarray:
    """K-profile over all nodes from the factored cumulative integrals."""
    return _profile_from_tables(tb, _quadrature_tables(tb, wbar, w_mid, x_mid))


def _drift_from_weights(tb: ScalarTables, wbar, w_mid, x_mid, w_point) -> np.ndarray:
    """One-sided covariance rate: dK/dt = drift + drift (scalar: 2*drift)."""
    T0, T1, T2, T3, T4, T5 = _quadrature_tables(tb, wbar, w_mid, x_mid)
    ephi, epsi, c = tb.frames.ephi, tb.frames.epsi, tb.frames.c
    H, M = tb.H, tb.M
    ep2 = epsi**2
    integral = (M * ephi * epsi * (c * T0 - T1)        # M phi . f wbar
                + M * ephi * epsi * T4                 # M phi . psi x
                + H * ep2 * (c**2 * T0 - 2 * c * T1 + T2)  # H f . f wbar
                + H * ep2 * (c * T4 - T5)              # H f . psi x
                + H * ep2 * T3                         # H psi . psi w
                + H * ep2 * (c * T4 - T5))             # H psi . f x
    out = 0.5 * w_point + integral
    out[0] = 0.0  # empty-interval node: all quadratures vanish
    return out


def _check_node(scenario: Scenario, node: int) -> None:
    if not 0 <= node <= scenario.grid.n_steps:
        raise ScenarioError(f"node {node} outside the grid [0, {scenario.grid.n_steps}]")


def covariance_profile(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                       atom) -> np.ndarray:
    """K(u, t_j) at every node for one atom.

    Scalar mode returns shape (N+1,); matrix mode (N+1, n, n).
    """
    i = _atom_index(scenario, atom)
    if scenario.scalar_mode:
        tb = _require_scalar_bundle(bundle)
        w = _ScalarWeights(scenario, bars, bundle.gain)
        w_u, x_u = w.atom(i)[:2]
        prof = _profile_from_weights(tb, w.wbar, w_u, x_u)
    else:
        prof = np.zeros((scenario.grid.n_nodes, scenario.n, scenario.n))
        for j in range(1, scenario.grid.n_nodes):
            prof[j] = _matrix_covariance_at(scenario, bundle, bars, i, j)
    check_finite("covariance_profile", prof)
    return prof


def error_covariance(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                     atom, node: int) -> np.ndarray:
    """Error covariance K(u, t_node), an (n, n) symmetric PSD matrix.

    Sum of the eight quadratures over [0, t]: the mean-transport kernel
    against the averaged loadings, the pointwise kernel against the
    atom's loadings, and the four cross pairings; output symmetrized.
    """
    i = _atom_index(scenario, atom)
    _check_node(scenario, node)
    if scenario.scalar_mode:
        prof = covariance_profile(scenario, bundle, bars, i)
        return np.array([[prof[node]]])
    return _matrix_covariance_at(scenario, bundle, bars, i, node)


def _matrix_mids(scenario: Scenario, bars: BarQuantities, gain: GainSchedule,
                 atom: int, upto: int):
    """Per-node middle factors of the eight quadrature terms."""
    sl = slice(0, upto + 1)
    G = gain.values[sl]
    sb = bars.sigma_bar[sl]
    gb = bars.gamma_bar[sl]
    su = scenario.sigma[atom][sl]
    gu = scenario.gamma[atom][sl]
    Q, Q0 = scenario.Q, scenario.Q0
    Ggb = np.einsum("jnm,jmd->jnd", G, gb)
    Ggu = np.einsum("jnm,jmd->jnd", G, gu)
    m_bar = (np.einsum("jad,de,jbe->jab", sb, Q, sb)
             + np.einsum("jad,de,jbe->jab", Ggb, Q0, Ggb))
    m_atom = (np.einsum("jad,de,jbe->jab", su, Q, su)
              + np.einsum("jad,de,jbe->jab", Ggu, Q0, Ggu))
    m_cross_w = np.einsum("jad,de,jbe->jab", su, Q, sb)       # sigma(u) Q sigma-bar'
    m_cross_v = np.einsum("jad,de,jbe->jab", Ggu, Q0, Ggb)
    return m_bar, m_atom, m_cross_w, m_cross_v


def _matrix_covariance_at(scenario, bundle, bars, atom: int, node: int):
    if node == 0:
        return np.zeros((scenario.n, scenario.n))
    m_bar, m_atom, m_cw, m_cv = _matrix_mids(scenario, bars, bundle.gain, atom, node)
    Fr = bundle.f.values[node, : node + 1]
    Pr = bundle.psi.values[node, : node + 1]
    term_ff = np.einsum("jab,jbc,jdc->jad", Fr, m_bar, Fr)
    term_pp = np.einsum("jab,jbc,jdc->jad", Pr, m_atom, Pr)
    cross = np.einsum("jab,jbc,jdc->jad", Pr, m_cw + m_cv, Fr)
    integrand = term_ff + term_pp + cross + np.transpose(cross, (0, 2, 1))
    K = trapezoid(integrand, scenario.grid.dt)
    return 0.5 * (K + K.T)


def covariance_field(scenario: Scenario, bundle: KernelBundle,
                     bars: BarQuantities) -> CovarianceField:
    """K(u, t) for all atoms and nodes."""
    nn = scenario.grid.n_nodes
    vals = np.zeros((scenario.n_atoms, nn, scenario.n, scenario.n))
    for i in range(scenario.n_atoms):
        vals[i] = covariance_profile(scenario, bundle, bars, i).reshape(vals.shape[1:])
    return CovarianceField(grid=scenario.grid, gain=bundle.gain, values=vals)


def covariance_drift(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                     atom, node: int) -> np.ndarray:
    """One-sided half of the covariance rate: dK/dt = drift + drift'.

    Carries the instantaneous diffusion boundary (half of
    sigma Q sigma' + gain gamma Q0 gamma' gain') and pairs the
    mixed-kernel rate M phi + H f throughout.
    """
    i = _atom_index(scenario, atom)
    _check_node(scenario, node)
    if scenario.scalar_mode:
        prof = drift_profile(scenario, bundle, bars, i)
        return np.array([[prof[node]]])
    return _matrix_drift_at(scenario, bundle, bars, i, node)


def drift_profile(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                  atom) -> np.ndarray:
    """Scalar-mode drift at every node (shape (N+1,))."""
    i = _atom_index(scenario, atom)
    tb = _require_scalar_bundle(bundle)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    w_u, x_u = w.atom(i)[:2]
    return _drift_from_weights(tb, w.wbar, w_u, x_u, w_u)


def covariance_sensitivity(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                           atom, t_node: int, s_node: int) -> float:
    """Sensitivity kernel at (t, s): the derivative of K(u, t) with respect
    to the gain is the trapezoid pairing of this kernel (in s) with the
    direction over [0, t]. Scalar mode only; requires s_node <= t_node."""
    if not 0 <= s_node <= t_node <= scenario.grid.n_steps:
        raise ScenarioError(f"need s <= t on the grid, got (t={t_node}, s={s_node})")
    row = sensitivity_profile(scenario, bundle, bars, atom, t_node)
    return float(row[s_node])


def sensitivity_profile(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                        atom, t_node: int) -> np.ndarray:
    """k2(u, t_node, s_j) for all j <= t_node (scalar mode)."""
    i = _atom_index(scenario, atom)
    _check_node(scenario, t_node)
    tb = _require_scalar_bundle(bundle)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    return _sensitivity_kernel(tb, w, tb.psi_row(t_node), tb.f_row(t_node), *w.atom(i))


def _sensitivity_quadratures(tb: ScalarTables, w: _ScalarWeights, psi, f, w_mid, x):
    """Running integrals U1..U5 of the sensitivity kernel and the bracket
    of its D-term. ``psi``/``f`` are either row i of the kernels (length
    i+1) or the masked (N+1, N+1) triangles; every cumulative quadrature
    runs along the last axis. ``w_mid`` is the pointwise weight and ``x``
    the cross weight (full-length arrays)."""
    dt = tb.grid.dt
    n = psi.shape[-1]
    sl = slice(0, n)
    upper = np.s_[:, None] if psi.ndim == 2 else n - 1  # index of t
    wbar = w.wbar[sl]
    ephi = tb.ephi[sl]
    x = x[sl]
    U1 = cumulative_trapezoid(f**2 * wbar, dt)
    U2 = cumulative_trapezoid(psi**2 * w_mid[sl], dt)
    U3 = cumulative_trapezoid(psi * f * x, dt)
    U4 = cumulative_trapezoid(f * (wbar / ephi), dt)
    U5 = cumulative_trapezoid(psi * (x / ephi), dt)
    q_bracket = tb.epsi[upper] * ((tb.c_mix[upper] - tb.c_mix[sl])
                                  + tb.ephi[sl] / tb.epsi[sl])
    return U1, U2, U3, U4, U5, q_bracket


def _sensitivity_kernel(tb: ScalarTables, w: _ScalarWeights, psi, f,
                        w_mid, x, g_point, g_cross) -> np.ndarray:
    """The one sensitivity-kernel evaluator, on a row or a triangle (see
    :func:`_sensitivity_quadratures`). ``w_mid``, ``x`` and the boundary
    loadings ``g_point``/``g_cross`` (q0 g^2 and gbar g) are one atom's
    values or their measure averages, see :class:`_ScalarWeights`.
    Triangle entries above the diagonal are meaningless; callers mask them.
    """
    U1, U2, U3, U4, U5, q_bracket = _sensitivity_quadratures(tb, w, psi, f, w_mid, x)
    sl = slice(0, psi.shape[-1])
    G = tb.gain[sl]
    boundary = (f**2 * G * w.q0 * w.gbar[sl]**2
                + psi**2 * G * g_point[sl]
                + 2 * psi * f * G * w.q0 * g_cross[sl])
    half = -tb.C[sl] * (U1 + U2 + 2 * U3) - tb.D[sl] * q_bracket * (U4 + U5) + boundary
    return 2.0 * half


def mean_sensitivity(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities,
                     t_node: int, s_node: int) -> float:
    """Measure-averaged sensitivity kernel at one (t, s) pair. The kernel
    is affine in the atom loadings and their squares, so this equals the
    measure-weighted sum of the per-atom kernels."""
    if not 0 <= s_node <= t_node <= scenario.grid.n_steps:
        raise ScenarioError(f"need s <= t on the grid, got (t={t_node}, s={s_node})")
    tb = _require_scalar_bundle(bundle)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    row = _sensitivity_kernel(tb, w, tb.psi_row(t_node), tb.f_row(t_node), *w.averaged())
    return float(row[s_node])


def mean_sensitivity_triangle(scenario: Scenario, bundle: KernelBundle,
                              bars: BarQuantities) -> np.ndarray:
    """Averaged sensitivity kernel on the whole triangle: (N+1, N+1) array
    with entry [i, j] = mean kernel at (t_i, s_j), zero above the diagonal.

    Vectorized over both indices; cost O(N^2)."""
    tb = _require_scalar_bundle(bundle)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    kernel = _sensitivity_kernel(tb, w, tb.psi_triangle(), tb.f_triangle(), *w.averaged())
    return kernel * tb.mask


def trace_cost(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities) -> float:
    """Cost J: the atom-averaged time integral of trace(Sigma(t) K(u, t))."""
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
    averaged K-profile, in O(N)."""
    tb = _require_scalar_bundle(bundle)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    kbar = _profile_from_weights(tb, w.wbar, w.w2, w.wbar)
    check_finite("trace_cost", kbar)
    return float(trapezoid(scenario.flat("Sigma") * kbar, scenario.grid.dt))


def cost_gradient(scenario: Scenario, bundle: KernelBundle,
                  bars: BarQuantities) -> GradientField:
    """Gradient density g(t_j): the tail integral over s in [t_j, T] of
    Sigma(s) times the averaged sensitivity kernel at (s, t_j).

    The averaged kernel factors exactly as

        kernel(s_i, t_j) = 2 epsi_i^2 (a0_j + a1_j c_i + a2_j c_i^2),

    c = c_mix, with a0..a2 combinations of the T0..T5 tables of the
    averaged profile and of the boundary loadings at t_j. So g_j is
    sum_k a_k[j] R_k[j], where R_k are reverse trapezoid sums of
    Sigma epsi^2 c^k: O(N) time and memory, and equal to the trapezoid
    tail of :func:`mean_sensitivity_triangle` up to round-off. epsi, c
    and the sums are anchored per frame (the polynomial in c is invariant
    under the frames' shift and scale of c), so a long stable horizon
    stays finite; a gradient that overflows raises :class:`ScenarioError`.

    g vanishes at the horizon by construction. Scalar mode only."""
    tb = _require_scalar_bundle(bundle)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    T0, T1, T2, T3, T4, T5 = _quadrature_tables(tb, w.wbar, w.w2, w.wbar)
    fr = tb.frames
    epsi, ephi, c = fr.epsi, fr.ephi, fr.c
    C, D, G = tb.C, tb.D, tb.gain
    X = T4 - T1
    e = ephi / epsi - c                       # D-term bracket minus c_i
    fb = w.q0 * w.gbar**2 / ephi**2           # boundary loadings of f^2,
    pb = w.g2q0 / epsi**2                     # psi^2
    xb = 2 * w.q0 * w.gbar**2 / (epsi * ephi)  # and psi f
    a2 = -(C + D) * T0 + G * fb
    a1 = -2 * C * X - D * (X + e * T0) + G * (xb - 2 * c * fb)
    a0 = -C * (T2 + T3 - 2 * T5) - D * e * X + G * (fb * c**2 + pb - xb * c)
    R0, R1, R2 = fr.cumulative(scenario.flat("Sigma") * epsi**2, (2, 0), degree=2,
                               reverse=True)
    g = 2.0 * (a0 * R0 + a1 * R1 + a2 * R2)
    g[-1] = 0.0
    check_finite("cost_gradient", g)
    return GradientField(grid=scenario.grid, values=g)


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
                  eps: float, bars: BarQuantities | None = None) -> float:
    """Central-difference slope of the cost along a direction.

    Rebuilds the kernel bundles at the two perturbed gains; this is the
    independent oracle every sensitivity formula is checked against.
    """
    if eps <= 0.0:
        raise ScenarioError("eps must be positive")
    from .system_model import measure_averages

    if bars is None:
        bars = measure_averages(scenario)
    up = gain0.with_values(gain0.values + eps * direction.values)
    dn = gain0.with_values(gain0.values - eps * direction.values)
    J_up = trace_cost(scenario, kernel_bundle(scenario, up), bars)
    J_dn = trace_cost(scenario, kernel_bundle(scenario, dn), bars)
    return (J_up - J_dn) / (2.0 * eps)


def _matrix_drift_at(scenario, bundle, bars, atom: int, node: int):
    """Matrix-mode drift at one node."""
    n = scenario.n
    if node == 0:
        return np.zeros((n, n))
    G = bundle.gain.values
    su_t = scenario.sigma[atom][node]
    gu_t = scenario.gamma[atom][node]
    Ggu_t = G[node] @ gu_t
    point = 0.5 * (su_t @ scenario.Q @ su_t.T + Ggu_t @ scenario.Q0 @ Ggu_t.T)
    m_bar, m_atom, m_cw, m_cv = _matrix_mids(scenario, bars, bundle.gain, atom, node)
    Fr = bundle.f.values[node, : node + 1]
    Pr = bundle.psi.values[node, : node + 1]
    Phir = bundle.phi.values[node, : node + 1]
    H_t = bundle.H[node]
    M_t = bundle.M[node]
    rate = np.einsum("ab,jbc->jac", M_t, Phir) + np.einsum("ab,jbc->jac", H_t, Fr)
    HP = np.einsum("ab,jbc->jac", H_t, Pr)
    integrand = (np.einsum("jab,jbc,jdc->jad", rate, m_bar, Fr)
                 + np.einsum("jab,jbc,jdc->jad", HP, m_atom, Pr)
                 + np.einsum("jab,jbc,jdc->jad", HP, m_cw + m_cv, Fr)
                 + np.einsum("jab,jbc,jdc->jad", Pr, m_cw + m_cv, rate))
    return point + trapezoid(integrand, scenario.grid.dt)
