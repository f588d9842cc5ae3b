"""Printed formula variants, kept only to report the formula arbitration.

The library computes only the adopted (rederived) forms. The printed
("transcribed") forms of three formulas are kept here verbatim so that
criterion C7 can report how far each form lies from its oracle
(``arbitration.csv``): the covariance cross pairing, sigma-bar instead of
gamma-bar (Monte Carlo); the mixed-kernel derivative density (central
differences of ``f``); the sensitivity kernel's weights (the
central-difference cost slope). The adopted mixed-kernel derivative,
which only that arbitration reads, sits next to its printed form; no
other kernel derivative is kept. The printed forms read the weights and
P_mean from the bundle's kept evaluation, as the adopted forms do. Every
form here is O(N) time and memory: the printed gradient is eight running
sums besides P_mean, like :func:`~mfkalman.covariance.cost_gradient`, and
no kernel triangle is built. Values that overflow raise
:class:`~mfkalman.system_model.NonFiniteError` naming the stage and node,
as the adopted forms do. Scalar tables only.
"""

from __future__ import annotations

import numpy as np

from .covariance import (
    GradientField,
    _atom_index,
    _atom_terms,
    _checked,
    _evaluation,
)
from .kernels import KernelBundle, ScalarTables, _exp_differences
from .numerics import cumulative_trapezoid, trapezoid
from .system_model import BarQuantities, NonFiniteError, Scenario, ScenarioError, check_finite

__all__ = [
    "f_direction",
    "f_direction_transcribed",
    "covariance_profile_transcribed",
    "cost_gradient_transcribed",
]


def covariance_profile_transcribed(scenario: Scenario, bundle: KernelBundle,
                                   bars: BarQuantities, atom) -> np.ndarray:
    """K(u, t_j) at every node with the printed sigma-bar cross weight
    x_u' = q sbar s_u + G q0 sbar g_u."""
    i = _atom_index(scenario, atom)
    tb = _checked(scenario, bundle, bars, scalar=True)
    s_u, g_u = scenario.sigma[i].ravel(), scenario.gamma[i].ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        ev = _evaluation(tb, bars)
        x_p = ev.q * ev.sbar * s_u + ev.G * ev.q0 * ev.sbar * g_u
        prof = sum(_atom_terms(tb, ev, ev.atom(i)[0], x_p))
    check_finite("covariance_profile_transcribed", prof)
    return prof


def _cell(name: str, bundle: KernelBundle, i: int, j: int, value) -> float:
    """``value(tb)`` on the bundle's scalar tables, once (i, j) is checked
    to lie on the triangle j <= i, without floating-point warnings; a value
    that is not finite raises :class:`NonFiniteError` naming ``name``."""
    tb = _checked(bundle.scenario, bundle, None, scalar=True)
    if not 0 <= j <= i <= tb.grid.n_steps:
        raise ScenarioError(f"need j <= i on the grid, got (i={i}, j={j})")
    with np.errstate(over="ignore", invalid="ignore"):
        out = value(tb)
    if not np.isfinite(out):
        raise NonFiniteError(f"{name}: non-finite value at cell ({i}, {j})")
    return out


def _direction(tb: ScalarTables, i: int, j: int, beta: np.ndarray, rate: np.ndarray,
               exponent: np.ndarray) -> float:
    """Trapezoid over [t_j, t_i] of the density -rate(theta) k(t_i, t_j)
    times beta, where k = exp(exponent[i] - exponent[j])."""
    ks = np.arange(j, i + 1)
    density = -rate[ks] * float(_exp_differences(exponent, i, j))
    return float(trapezoid(density * beta[ks], tb.grid.dt))


def f_direction(bundle: KernelBundle, i: int, j: int, beta: np.ndarray) -> float:
    """Adopted derivative of the mixed kernel f = phi - psi at (t_i, t_j)
    along ``beta``: that of phi, whose generator H + M holds -(C + D) gain,
    minus that of psi, whose generator H holds -C gain."""
    return _cell("f_direction", bundle, i, j,
                 lambda tb: (_direction(tb, i, j, beta, tb.C + tb.D, tb.lhm)
                             - _direction(tb, i, j, beta, tb.C, tb.lh)))


def f_direction_transcribed(bundle: KernelBundle, i: int, j: int, beta: np.ndarray) -> float:
    """The same derivative from the printed mixed-kernel density

        f1'(t, s, th) = -C(th) int_s^th psi(t,r) M phi(r,s) dr
                        + psi(t,th) D(th) phi(th,s)
                        - (C+D)(th) int_s^th psi(t,r) M phi(t,r) dr,

    paired with ``beta`` over th in [s, t]. The first integral is
    psi(t, th) f(th, s) = psi(t, th) (phi(th, s) - psi(th, s))."""
    def value(tb):
        ks = np.arange(j, i + 1)
        C, D = tb.C[ks], tb.D[ks]
        psi_ik = _exp_differences(tb.lh, i, ks)
        phi_kj = _exp_differences(tb.lhm, ks, j)
        head = psi_ik * (phi_kj - _exp_differences(tb.lh, ks, j))
        rev = cumulative_trapezoid(tb.M[ks, 0, 0] * _exp_differences(tb.lh + tb.lhm, i, ks),
                                   tb.grid.dt)
        density = -C * head + psi_ik * D * phi_kj - (C + D) * rev
        return float(trapezoid(density * beta[j:i + 1], tb.grid.dt))
    return _cell("f_direction_transcribed", bundle, i, j, value)


def cost_gradient_transcribed(scenario: Scenario, bundle: KernelBundle,
                              bars: BarQuantities) -> GradientField:
    """Gradient density from the averaged sensitivity kernel with the
    printed weights: half weight on the mean-transport terms, the
    sigma-bar cross weight x = q sbar^2 + q0 G sbar gbar and the boundary
    cross term 1/2 q0 sbar gbar psi f.

    Through the semigroup phi(t, r) = phi(t, s) phi(s, r), and likewise
    psi, the printed kernel at (t, s) splits as
    2 (phi^2 a + phi psi b + psi^2 c)(t, s). With F[y; p, q] the forward
    running integral of psi^p phi^q y (:meth:`ScalarTables.integral`),
    gq = q0 gbar^2 and sg = q0 sbar gbar,

        a = -(C + D)/2 F[wbar; 0, 2] + G gq,
        b = (C + D/2) F[wbar; 1, 1] - (2C + D) F[x; 1, 1] - 2 G gq + sg/2,
        c = -C (F[wbar; 2, 0]/2 + F[w2; 2, 0] - 2 F[x; 2, 0])
            + G gq + G g2q0 - sg/2,

    and the tail integral against Sigma pairs each with its reverse sum
    L[p, q]: g = 2 (a L[0, 2] + b L[1, 1] + c L[2, 0]), six forward sums
    (F[wbar; 0, 2] is the kept P_mean) and three reverse sums, O(N) time
    and memory. A gradient that overflows raises :class:`NonFiniteError`
    naming the stage and node."""
    tb = _checked(scenario, bundle, bars, scalar=True)
    sigma = scenario.Sigma.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        ev = _evaluation(tb, bars)
        C, D, G = tb.C, tb.D, ev.G
        x = ev.q * ev.sbar**2 + ev.q0 * G * ev.sbar * ev.gbar
        gq, sg = ev.q0 * ev.gbar**2, ev.q0 * ev.sbar * ev.gbar
        a = -0.5 * (C + D) * ev.mean + G * gq
        b = ((C + 0.5 * D) * tb.integral(ev.wbar, 1, 1) - (2 * C + D) * tb.integral(x, 1, 1)
             - 2 * G * gq + 0.5 * sg)
        c = (-C * (0.5 * tb.integral(ev.wbar, 2, 0) + tb.integral(ev.w2, 2, 0)
                   - 2 * tb.integral(x, 2, 0))
             + G * gq + G * ev.g2q0 - 0.5 * sg)
        g = 2.0 * (a * tb.integral(sigma, 0, 2, reverse=True)
                   + b * tb.integral(sigma, 1, 1, reverse=True)
                   + c * tb.integral(sigma, 2, 0, reverse=True))
    g[-1] = 0.0
    check_finite("cost_gradient_transcribed", g)
    return GradientField(grid=scenario.grid, values=g)
