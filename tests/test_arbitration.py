"""The printed formula variants fail the oracles that the adopted forms pass."""

import numpy as np

from mfkalman import (
    GainSchedule,
    cost_gradient,
    fd_cost_slope,
    kernel_bundle,
)
from mfkalman.arbitration import (
    cost_gradient_transcribed,
    f_direction,
    f_direction_transcribed,
)


def test_transcribed_form_fails_oracle(rough_pack):
    scen, _, gain, bundle = rough_pack
    eps = 1e-4
    beta = 0.7 - 0.5 * np.sin(3 * scen.grid.nodes)
    up = kernel_bundle(scen, GainSchedule(scen.grid, gain.scalar + eps * beta))
    dn = kernel_bundle(scen, GainSchedule(scen.grid, gain.scalar - eps * beta))
    i = scen.grid.n_steps
    fd = (up.f.values[i, 0] - dn.f.values[i, 0]) / (2 * eps)
    good = f_direction(bundle, i, 0, beta)
    bad = f_direction_transcribed(bundle, i, 0, beta)
    assert abs(good - fd) < 1e-5 * (1 + abs(fd))
    assert abs(bad - fd) > 100 * abs(good - fd)


def test_transcribed_form_disagrees_with_oracle(rough_pack):
    scen, bars, gain, bundle = rough_pack
    beta_vals = 0.7 - 0.5 * np.sin(3 * scen.grid.nodes)
    beta = GainSchedule(scen.grid, beta_vals[:, None, None])
    fd = fd_cost_slope(scen, gain, beta, 1e-4, bars)
    good = cost_gradient(scen, bundle, bars).pair(beta_vals)
    bad = cost_gradient_transcribed(scen, bundle, bars).pair(beta_vals)
    assert abs(good - fd) <= 1e-3 * (1 + abs(fd))
    assert abs(bad - fd) > 10 * abs(good - fd)
