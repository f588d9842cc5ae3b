from __future__ import annotations

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    InitialMeasure,
    build_scenario,
    classical_scenario,
    dirac_measure,
    kernel_bundle,
    make_grid,
    measure_averages,
)
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
