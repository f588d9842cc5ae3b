"""Observed orders of convergence of the cost J and of K(atom 0, T).

Each quantity is computed at the gain 0.4 + 0.2 cos 2 pi t on grids of
N = 100 * 2^k steps, k = 0..4, and compared with its value at N = 12800.
The observed order between successive grids is log2(e_N / e_2N). The
quadratures are trapezoids, so every order is about 2 (2.000 to 2.017 as
measured); the floor below may be raised, never lowered."""

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    classical_scenario,
    covariance_profile,
    kernel_bundle,
    measure_averages,
    normal_flow_scenario,
    trace_cost,
)
from mfkalman.scenarios import cross_pairing_probe, random_smooth_scenario

ORDER_FLOOR = 1.8
GRIDS = [100 * 2**k for k in range(5)]
REFERENCE = 12800

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
