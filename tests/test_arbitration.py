"""The printed formula variants fail the oracles that the adopted forms
pass, and criterion C7 reads them in O(N) time and memory; no pipeline
path, C7 or any other, builds a kernel triangle."""

import tracemalloc

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    classical_scenario,
    cost_gradient,
    fd_cost_slope,
    kernel_bundle,
    measure_averages,
    normal_flow_scenario,
    optimize_gain,
)
from mfkalman import cli, kernels
from mfkalman.arbitration import (
    cost_gradient_transcribed,
    f_direction,
    f_direction_transcribed,
)
from mfkalman.scenarios import cross_pairing_probe, random_smooth_scenario
from mfkalman.validation import ValidationSuite

from conftest import transcribed_gradient_triangle


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


_GAINS = (lambda t: 0.4 + 0.2 * np.cos(2 * np.pi * t), lambda t: 0.0 * t,
          lambda t: 3.0 + np.sin(t))


def _gap(scen, gain):
    """sup |running-sum gradient - triangle oracle| / (1 + sup |oracle|)."""
    bars = measure_averages(scen)
    bundle = kernel_bundle(scen, gain)
    g = cost_gradient_transcribed(scen, bundle, bars).values
    oracle = transcribed_gradient_triangle(scen, bundle, bars).values
    assert np.all(np.isfinite(oracle))
    return float(np.max(np.abs(g - oracle)) / (1.0 + np.max(np.abs(oracle))))


@pytest.mark.parametrize("steps", [50, 200, 800])
def test_transcribed_gradient_matches_triangle_oracle(steps):
    gaps = []
    for seed in [*range(1, 9), 20240914]:
        scen = random_smooth_scenario(seed=seed, steps=steps)
        gaps += [_gap(scen, GainSchedule(scen.grid, fn(scen.grid.nodes)[:, None, None]))
                 for fn in _GAINS]
    for build in (classical_scenario, normal_flow_scenario, cross_pairing_probe):
        scen = build(steps=steps)
        gaps.append(_gap(scen, GainSchedule.constant(scen.grid, 0.7)))
    assert max(gaps) <= 1e-12


def test_transcribed_gradient_memory_linear():
    # the six (N+1)^2 row quadratures of the triangle form take 59 MB here
    scen = random_smooth_scenario(seed=1, steps=800)
    gain = GainSchedule.constant(scen.grid, 0.5)
    bars, bundle = measure_averages(scen), kernel_bundle(scen, gain)
    tracemalloc.start()
    try:
        cost_gradient_transcribed(scen, bundle, bars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6
    assert not {"phi", "psi", "f"} & set(vars(bundle))


def _criterion(cid, name):
    def run(tmp_path):
        result = getattr(ValidationSuite(tmp_path), name)()
        assert (result.cid, result.passed) == (cid, True), result.details
        assert cid != "C7" or (tmp_path / "arbitration.csv").exists()
    return run


def _command(*argv):
    def run(tmp_path):
        assert cli.main([*argv, "--steps", "100", "--out", str(tmp_path)]) == 0
    return run


def _optimize(build):
    def run(tmp_path):
        assert optimize_gain(build(steps=200)).converged
    return run


# every pipeline path: C1-C7, the subcommands that export and check, and
# the optimizer on a factored and a mean-coupled scenario
_PIPELINE = {
    **{f"C{k}": _criterion(f"C{k}", name)
       for k, (name, _) in enumerate(ValidationSuite.ARTIFACT_CRITERIA, start=1)},
    **{command: _command(command) for command in ("kernels", "covariance", "gradcheck",
                                                  "optimize")},
    "simulate": _command("simulate", "--paths", "200"),
    "optimize_gain-classical": _optimize(classical_scenario),
    "optimize_gain-cross_pairing_probe": _optimize(cross_pairing_probe),
}


@pytest.mark.parametrize("path", sorted(_PIPELINE))
def test_pipeline_builds_no_triangle(tmp_path, monkeypatch, path):
    # the dense triangles are for tests and callers that ask for one; the
    # pipeline reads only the O(N) tables (the kernel export reads entries)
    def refuse(bundle):
        raise AssertionError(f"{path} built a kernel triangle")

    for name in ("phi", "psi", "f"):
        monkeypatch.setattr(kernels.ScalarTables, name, property(refuse))
    _PIPELINE[path](tmp_path)
