"""Observed orders of convergence of the cost J, of K(atom 0, T) and of
the gradient pairing against the central-difference cost slope.

Each quantity is computed on grids of N = 100 * 2^k steps, k = 0..4, and
compared with its value on a reference grid: for the scalar scenarios at
the gain 0.4 + 0.2 cos 2 pi t against N = 12800, for the two-atom 2x2
matrix scenario at its constant gain against N = 25600 (the largest
reference that keeps the table within 3 s), with the error of K the
largest over its entries. The observed order between successive grids is
log2(e_N / e_2N). The quadratures are trapezoids, so every order is about
2 (2.000 to 2.017 as measured in scalar mode, 2.0000 to 2.0043 in matrix
mode). The relative gap between the trapezoid pairing of the gradient
density and the central-difference cost slope on ``classical`` at a
constant gain of 30, along a constant direction with eps 1e-5, has no
reference: it shrinks with the quadrature error, at an order of 1.99 to
2.00 from N = 400 to 3200. The floors below may be raised, never
lowered."""

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    classical_scenario,
    cost_gradient,
    covariance_profile,
    fd_cost_slope,
    kernel_bundle,
    measure_averages,
    normal_flow_scenario,
    trace_cost,
)
from mfkalman.scenarios import cross_pairing_probe, random_smooth_scenario

from conftest import two_atom_matrix_scenario

ORDER_FLOOR = 1.8
GRIDS = [100 * 2**k for k in range(5)]
REFERENCE = 12800
MATRIX_ORDER_FLOOR = 1.8
MATRIX_REFERENCE = 25600
PAIRING_ORDER_FLOOR = 1.8
PAIRING_GRIDS = [400 * 2**k for k in range(4)]

BUILDS = {
    "classical": classical_scenario,
    "normal-flow": normal_flow_scenario,
    "probe": cross_pairing_probe,
    "random-3": lambda steps: random_smooth_scenario(3, steps=steps),
}


def _quantities(build, steps: int) -> tuple[float, float]:
    """(J, K(atom 0, T)) at the gain 0.4 + 0.2 cos 2 pi t."""
    scen = build(steps=steps)
    bars = measure_averages(scen)
    gain = GainSchedule.from_callable(scen.grid, lambda t: 0.4 + 0.2 * np.cos(2 * np.pi * t))
    bundle = kernel_bundle(scen, gain)
    return trace_cost(scen, bundle, bars), float(covariance_profile(scen, bundle, bars, 0)[-1])


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_cost_and_terminal_covariance_are_second_order(name):
    build = BUILDS[name]
    ref = np.array(_quantities(build, REFERENCE))
    errors = np.array([np.abs(np.array(_quantities(build, n)) - ref) for n in GRIDS])
    orders = np.log2(errors[:-1] / errors[1:])   # rows: successive pairs; columns: J, K
    assert np.all(orders >= ORDER_FLOOR), orders


def test_matrix_mode_cost_and_terminal_covariance_are_second_order():
    def quantities(steps):
        scen, bars, gain = two_atom_matrix_scenario(steps)
        bundle = kernel_bundle(scen, gain)
        return trace_cost(scen, bundle, bars), covariance_profile(scen, bundle, bars, 0)[-1]

    J_ref, K_ref = quantities(MATRIX_REFERENCE)
    errors = np.array([(abs(J - J_ref), np.max(np.abs(K - K_ref)))
                       for J, K in map(quantities, GRIDS)])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all(orders >= MATRIX_ORDER_FLOOR), orders


def test_gradient_pairing_against_cost_slope_is_second_order():
    gaps = []
    for steps in PAIRING_GRIDS:
        scen = classical_scenario(steps=steps)
        bars = measure_averages(scen)
        gain = GainSchedule.constant(scen.grid, 30.0)
        pairing = cost_gradient(scen, kernel_bundle(scen, gain), bars).pair(
            np.ones(scen.grid.n_nodes))
        fd = fd_cost_slope(scen, gain, GainSchedule.constant(scen.grid, 1.0), 1e-5, bars)
        gaps.append(abs(pairing - fd) / abs(fd))
    orders = np.log2(np.array(gaps[:-1]) / gaps[1:])
    assert np.all(orders >= PAIRING_ORDER_FLOOR), (gaps, orders)
