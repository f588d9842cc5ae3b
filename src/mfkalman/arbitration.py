"""Printed formula variants, kept only to report the formula arbitration.

The library computes only the adopted (rederived) forms. The printed
("transcribed") forms of three formulas are kept here verbatim so that
criterion C7 can report how far each form lies from its oracle
(``arbitration.csv``): the covariance cross pairing, sigma-bar instead of
gamma-bar (Monte Carlo); the mixed-kernel derivative density (central
differences of ``f``); the sensitivity kernel's weights (the
central-difference cost slope). Scalar mode only.
"""

from __future__ import annotations

import numpy as np

from .covariance import (
    GradientField,
    _atom_index,
    _gradient_from_kernel,
    _profile_from_weights,
    _quadrature_tables,
    _require_scalar_bundle,
    _ScalarWeights,
    _sensitivity_quadratures,
)
from .kernels import DerivativeKernels, KernelBundle
from .numerics import cumulative_trapezoid, trapezoid
from .system_model import BarQuantities, Scenario

__all__ = [
    "TranscribedDerivativeKernels",
    "covariance_profile_transcribed",
    "drift_profile_transcribed",
    "cost_gradient_transcribed",
]


def _transcribed_weights(scenario: Scenario, bundle: KernelBundle, bars: BarQuantities, atom):
    """Tables, weights, the atom's pointwise weight w_u and its printed
    cross weight x_u' = q sbar s_u + G q0 sbar g_u."""
    i = _atom_index(scenario, atom)
    tb = _require_scalar_bundle(bundle)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    s_u = scenario.flat_atom("sigma", i)
    g_u = scenario.flat_atom("gamma", i)
    return tb, w, w.atom(i)[0], w.q * w.sbar * s_u + w.G * w.q0 * w.sbar * g_u


def covariance_profile_transcribed(scenario: Scenario, bundle: KernelBundle,
                                   bars: BarQuantities, atom) -> np.ndarray:
    """K(u, t_j) at every node with the printed sigma-bar cross pairing."""
    tb, w, w_u, x_p = _transcribed_weights(scenario, bundle, bars, atom)
    return _profile_from_weights(tb, w.wbar, w_u, x_p)


def drift_profile_transcribed(scenario: Scenario, bundle: KernelBundle,
                              bars: BarQuantities, atom) -> np.ndarray:
    """Printed drift: [M phi + H] bracket on the mean terms, sigma-bar
    cross pairing, no diffusion boundary."""
    tb, w, w_u, x_p = _transcribed_weights(scenario, bundle, bars, atom)
    T0, T1, _, T3, T4, T5 = _quadrature_tables(tb, w.wbar, w_u, x_p)
    fr = tb.frames
    ephi, epsi, c = fr.ephi, fr.epsi, fr.c
    # the bare-H mean term carries a single f factor: int f(t,s) wbar(s) ds
    V0, V1 = fr.cumulative(w.wbar / ephi, (0, -1), degree=1)
    H, M = tb.H, tb.M
    ep2 = epsi**2
    return (M * ephi * epsi * (c * T0 - T1)      # M phi . f wbar
            + H * epsi * (c * V0 - V1)           # bare H . f wbar (printed bracket)
            + H * ep2 * T3                       # H psi . psi w_u
            + H * ep2 * (c * T4 - T5)            # H psi . f x_p
            + M * ephi * epsi * T4               # psi x_p . M phi
            + H * ep2 * (c * T4 - T5))           # psi x_p . H f


class TranscribedDerivativeKernels(DerivativeKernels):
    """Derivative kernels with the printed mixed-kernel density:

        f1'(t, s, th) = -C(th) int_s^th psi(t,r) M phi(r,s) dr
                        + psi(t,th) D(th) phi(th,s)
                        - (C+D)(th) int_s^th psi(t,r) M phi(t,r) dr.
    """

    def __init__(self, bundle: KernelBundle, scenario: Scenario):
        super().__init__(bundle, scenario)
        tb = self.tables
        # running integral of M / (epsi * ephi)
        self.c_mix_reversed = cumulative_trapezoid(tb.M / (tb.epsi * tb.ephi), tb.grid.dt)

    def f1(self, i: int, j: int, k: int) -> float:
        self._check(i, j, k)
        tb = self.tables
        head = tb.epsi[i] * (tb.c_mix[k] - tb.c_mix[j]) / tb.ephi[j]
        point = tb.psi_value(i, k) * self.D[k] * tb.phi_value(k, j)
        rev = tb.epsi[i] * tb.ephi[i] * (self.c_mix_reversed[k] - self.c_mix_reversed[j])
        return -self.C[k] * head + point - (self.C[k] + self.D[k]) * rev

    def f_direction(self, i: int, j: int, beta: np.ndarray) -> float:
        ks = np.arange(j, i + 1)
        density = np.array([self.f1(i, j, int(k)) for k in ks])
        return float(trapezoid(density * beta[ks], self.grid.dt))


def cost_gradient_transcribed(scenario: Scenario, bundle: KernelBundle,
                              bars: BarQuantities) -> GradientField:
    """Gradient density from the averaged sensitivity kernel with the
    printed weights: half weight on the mean-transport terms and the
    sigma-bar cross weight."""
    tb = _require_scalar_bundle(bundle)
    w = _ScalarWeights(scenario, bars, bundle.gain)
    psi = tb.psi_triangle()
    f = tb.f_triangle()
    x_p = w.q * w.sbar**2 + w.q0 * tb.gain * w.sbar * w.gbar
    U1, U2, U3, U4, U5, q_bracket = _sensitivity_quadratures(tb, w, psi, f, w.w2, x_p)
    G = tb.gain
    boundary = (f**2 * G * w.q0 * w.gbar**2
                + psi**2 * G * w.g2q0
                + 0.5 * psi * f * w.q0 * (w.sbar * w.gbar))
    half = (-tb.C * (0.5 * U1 + U2 + 2 * U3)
            - tb.D * q_bracket * (0.5 * U4 + U5) + boundary)
    return _gradient_from_kernel(scenario, 2.0 * half * tb.mask)
