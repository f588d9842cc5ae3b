from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfkalman
from mfkalman import (
    GainSchedule,
    InitialMeasure,
    build_scenario,
    classical_scenario,
    covariance_profile,
    cumulative_trapezoid,
    dirac_measure,
    kernel_bundle,
    make_grid,
    measure_averages,
    trapezoid,
)
from mfkalman import kernels
from mfkalman.covariance import GradientField, _Evaluation
from mfkalman.scenarios import random_smooth_scenario


@pytest.fixture(scope="session")
def classical_small():
    """Classical benchmark at a test-friendly resolution."""
    return classical_scenario(steps=100)


@pytest.fixture(scope="session")
def classical_pack(classical_small):
    """(scenario, bars, zero-gain bundle) for the classical benchmark."""
    scen = classical_small
    bars = measure_averages(scen)
    zero = GainSchedule.constant(scen.grid, 0.0)
    return scen, bars, kernel_bundle(scen, zero)


@pytest.fixture(scope="session")
def rough_pack():
    """Seeded smooth scenario with mean coupling, plus a generic gain."""
    scen = random_smooth_scenario(seed=1234, steps=200)
    gain_vals = 0.4 + 0.2 * np.cos(2 * np.pi * scen.grid.nodes)
    gain = GainSchedule(scen.grid, gain_vals[:, None, None])
    bars = measure_averages(scen)
    return scen, bars, gain, kernel_bundle(scen, gain)


def run_fresh(code: str, *args: str) -> list[str]:
    """The output lines of ``code`` run with ``args`` in a fresh interpreter
    that imports this ``mfkalman``; a non-zero exit fails the test with its
    stderr."""
    src = str(Path(mfkalman.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def rebuilt(record, **changes):
    """A new record of ``record``'s class through its public constructor,
    whose parameters are the record's fields: each field named in
    ``changes`` takes the given value, every other keeps ``record``'s. A
    name that is not a field raises TypeError."""
    cls = type(record)
    fields = {name: getattr(record, name) for name in inspect.signature(cls).parameters}
    return cls(**{**fields, **changes})


def scalar_scenario(grid=None, steps=100, **kw):
    """Scalar scenario shortcut with unit defaults."""
    grid = grid or make_grid(1.0, steps)
    kw.setdefault("measure", dirac_measure(0.0))
    return build_scenario(grid, **kw)


# a non-diagonal, mean-coupled 2x2 system with two atoms, atom-dependent
# loadings, correlated state noise and a time-dependent cost weight
_MATRIX_COEFFS = {
    "A": lambda t: np.array([[-0.4, 0.3], [0.2, 0.3 * (1 + 0.5 * t)]]),
    "B": lambda t: np.array([[0.5, -0.3], [0.1, -0.2 + 0.1 * t]]),
    "C": lambda t: np.array([[1.0, 0.2], [0.0, 0.8]]),
    "D": lambda t: np.array([[0.3, 0.0], [0.2, 0.1]]),
}


def count_running_integrals(monkeypatch) -> list:
    """One entry per call of the anchored running sum
    (``kernels._running_integral``) from here on."""
    calls = []
    running = kernels._running_integral
    monkeypatch.setattr(kernels, "_running_integral",
                        lambda *a: calls.append(1) or running(*a))
    return calls


def two_atom_matrix_scenario(steps):
    """(scenario, bars, constant 2x2 gain) of that system on [0, 1]."""
    grid = make_grid(1.0, steps)
    scen = build_scenario(
        grid, measure=InitialMeasure([[-1.0, 0.5], [1.0, -0.5]], [0.4, 0.6]),
        sigma=lambda u, t: np.array([[0.9 + 0.2 * u[0], 0.1], [0.0, 1.1 + 0.1 * u[1] * t]]),
        gamma=lambda u, t: np.array([[1.0, 0.1 * u[0]], [0.0, 0.8 + 0.1 * u[1]]]),
        Q=np.array([[1.0, 0.3], [0.3, 0.8]]), Q0=np.eye(2),
        Sigma=lambda t: np.array([[1.0, 0.2], [0.2, 0.5 + t]]), **_MATRIX_COEFFS)
    gain = GainSchedule.constant(grid, np.array([[0.5, 0.1], [-0.2, 0.2]]), 2, 2)
    return scen, measure_averages(scen), gain


def chain(R):
    """Lower triangle T[i, j] = R[i-1] ... R[j] of (N+1, N+1, k, k) from
    the step maps R (N, k, k), the identity on the diagonal and zero above
    it, one row per step."""
    n, k = R.shape[0] + 1, R.shape[1]
    out = np.zeros((n, n, k, k))
    out[0, 0] = np.eye(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, Ri in enumerate(R):
            out[i + 1, : i + 1] = Ri @ out[i, : i + 1]
            out[i + 1, i + 1] = np.eye(k)
    return out


def matrix_transitions(bundle):
    """(phi, psi, f) of a matrix-mode bundle on the whole triangle, each
    (N+1, N+1, n, n): phi and psi the products of the diagonal blocks of
    its step maps ``bundle.R``, and f = phi - psi (NaN where both
    overflow). The O(N^2) matrix-transition oracle of the joint recursion,
    which builds no triangle."""
    n = bundle.scenario.n
    phi, psi = chain(bundle.R[:, :n, :n]), chain(bundle.R[:, n:, n:])
    with np.errstate(invalid="ignore"):
        return phi, psi, phi - psi


def per_atom_cost(scenario, bundle, bars):
    """J as the measure-weighted sum of the atoms' costs, the trapezoid of
    trace(Sigma K(u, t)) on each atom's ``covariance_profile``: the oracle
    of ``trace_cost``, which reads the averaged covariance instead."""
    return sum(weight * trapezoid(np.einsum("jab,jba->j", scenario.Sigma,
                                            covariance_profile(scenario, bundle, bars, a)
                                            .reshape(scenario.Sigma.shape)),
                                  scenario.grid.dt)
               for a, weight in enumerate(scenario.measure.weights))


def sensitivity_quadratures(bundle, w, w_mid, x):
    """The bundle's triangle f = phi - psi and the running integrals along
    each row (over r <= s) of the sensitivity kernel's terms: f^2 wbar,
    psi^2 w_mid and psi f x (the C-term), phi f wbar and phi psi x (the
    D-term). ``w_mid`` is the pointwise weight and ``x`` the cross weight.
    O(N^2)."""
    dt = bundle.grid.dt
    psi, phi, f = bundle.psi.values, bundle.phi.values, bundle.f.values
    return (f,
            cumulative_trapezoid(f**2 * w.wbar, dt),
            cumulative_trapezoid(psi**2 * w_mid, dt),
            cumulative_trapezoid(psi * f * x, dt),
            cumulative_trapezoid(phi * f * w.wbar, dt),
            cumulative_trapezoid(phi * psi * x, dt))


def row_weights(scenario, w, atom=None):
    """(w_mid, x, g_point, g_cross) of the row quadrature: one atom's
    pointwise and cross weights and boundary loadings q0 g_u^2 and gbar g_u,
    or with ``atom`` None their measure averages w2, wbar, g2q0, gbar^2."""
    if atom is None:
        return w.w2, w.wbar, w.g2q0, w.gbar**2
    g_u = scenario.gamma[atom].ravel()
    return (*w.atom(atom), w.q0 * g_u**2, w.gbar * g_u)


def row_sensitivity_triangle(scenario, bundle, bars, atom=None):
    """One atom's sensitivity kernel (averaged with ``atom`` None) on the
    whole triangle from its defining row quadratures on the bundle's kernel
    triangles, with f = phi - psi,

        k2 / 2 = -C int (f^2 wbar + psi^2 w_mid + 2 psi f x)
                 - D int (phi f wbar + phi psi x)
                 + G (q0 gbar^2 f^2 + g_point psi^2 + 2 q0 g_cross psi f):

    the O(N^2) oracle of ``mean_sensitivity_triangle`` and, through
    :func:`gradient_from_kernel`, of ``cost_gradient``, neither of which
    takes a row quadrature; with ``atom`` given, the only source of one
    atom's kernel, which the library does not compute."""
    w = _Evaluation(bundle, bars)
    w_mid, x, g_point, g_cross = row_weights(scenario, w, atom)
    f, U1, U2, U3, V1, V2 = sensitivity_quadratures(bundle, w, w_mid, x)
    psi, G = bundle.psi.values, w.G
    boundary = (f**2 * G * w.q0 * w.gbar**2
                + psi**2 * G * g_point
                + 2 * psi * f * G * w.q0 * g_cross)
    return np.tril(2.0 * (-bundle.C * (U1 + U2 + 2 * U3) - bundle.D * (V1 + V2) + boundary))


def gradient_from_kernel(scenario, kb2):
    """Gradient density from an averaged sensitivity triangle: the
    trapezoid of Sigma times each column over its rows i >= j, the O(N^2)
    oracle of ``cost_gradient`` and ``cost_gradient_transcribed``."""
    W = scenario.Sigma.ravel()[:, None] * kb2
    n = scenario.grid.n_steps
    col_sums = W.sum(axis=0) - 0.5 * W[n, :] - 0.5 * np.diag(W)
    g = col_sums * scenario.grid.dt
    g[n] = 0.0
    return GradientField(grid=scenario.grid, values=g)


def transcribed_gradient_triangle(scenario, bundle, bars):
    """``cost_gradient_transcribed`` from the printed sensitivity kernel on
    the whole triangle, its row quadratures taken on the bundle's kernel
    triangles: half weight on the mean-transport terms, the sigma-bar cross
    weight and the boundary cross term 1/2 q0 sbar gbar psi f. O(N^2)."""
    w = _Evaluation(bundle, bars)
    x_p = w.q * w.sbar**2 + w.q0 * w.G * w.sbar * w.gbar
    f, U1, U2, U3, V1, V2 = sensitivity_quadratures(bundle, w, w.w2, x_p)
    psi = bundle.psi.values
    boundary = (f**2 * w.G * w.q0 * w.gbar**2
                + psi**2 * w.G * w.g2q0
                + 0.5 * psi * f * w.q0 * (w.sbar * w.gbar))
    half = (-bundle.C * (0.5 * U1 + U2 + 2 * U3)
            - bundle.D * (0.5 * V1 + V2) + boundary)
    return gradient_from_kernel(scenario, np.tril(2.0 * half))
