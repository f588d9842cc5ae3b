"""Metamorphic relations of the engine: relations between two runs that
need no reference solution, so they reach the mean-coupled case that no
closed form covers. Each run takes the cross-pairing probe's coefficients
(mean coupling, two atoms) at N = 400 and the gain 0.4 + 0.2 cos 2 pi t,
and reads the cost J, the gradient density g, the averaged sensitivity
triangle and one atom's triangle."""

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    InitialMeasure,
    build_scenario,
    cost_gradient,
    kernel_bundle,
    make_grid,
    mean_sensitivity_triangle,
    measure_averages,
    sensitivity_triangle,
    trace_cost,
)
from mfkalman.scenarios import cross_pairing_probe

STEPS = 400
TOL = 1e-12  # relative, in the sup norm

# cross_pairing_probe's coefficients, its atoms at -1 and 1 left to the caller
_PROBE = dict(A=0.2, B=0.5, C=1.0, D=0.3, sigma=lambda u, t: 1.0 + 0.25 * u,
              gamma=lambda u, t: 0.6 + 0.2 * u, Sigma=1.0)


def _probe(points, weights, scale=1.0):
    """The probe's coefficients on the measure (points, weights), with
    Q = Q0 = scale."""
    return build_scenario(make_grid(1.0, STEPS), measure=InitialMeasure(points, weights),
                          Q=scale, Q0=scale, **_PROBE)


def _run(scen, atom):
    """(J, g, averaged triangle, triangle of ``atom``) of ``scen``."""
    gain = GainSchedule.from_callable(scen.grid, lambda t: 0.4 + 0.2 * np.cos(2 * np.pi * t))
    bars = measure_averages(scen)
    bundle = kernel_bundle(scen, gain)
    return (trace_cost(scen, bundle, bars), cost_gradient(scen, bundle, bars).values,
            mean_sensitivity_triangle(scen, bundle, bars),
            sensitivity_triangle(scen, bundle, bars, atom))


@pytest.fixture(scope="module")
def base():
    """The probe itself, read at its atom at +1 (index 1)."""
    return _run(cross_pairing_probe(STEPS), 1)


def _assert_scaled(got, base, factor):
    for x, y in zip(got, base):
        assert np.max(np.abs(np.asarray(x) - factor * np.asarray(y))) <= TOL * np.max(
            np.abs(factor * np.asarray(y)))


def test_base_is_the_probe(base):
    # the coefficients above rebuild the probe to the bit
    rebuilt = _run(_probe([[-1.0], [1.0]], [0.5, 0.5]), 1)
    assert rebuilt[0] == base[0]
    for x, y in zip(rebuilt[1:], base[1:]):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("copy", [1, 2])
def test_splitting_an_atom_into_half_weight_copies(base, copy):
    # the atom at +1 becomes two copies of weight 1/4 each
    _assert_scaled(_run(_probe([[-1.0], [1.0], [1.0]], [0.5, 0.25, 0.25]), copy), base, 1.0)


def test_relabelling_the_atoms(base):
    _assert_scaled(_run(_probe([[1.0], [-1.0]], [0.5, 0.5]), 0), base, 1.0)


def test_noise_scaling_scales_cost_gradient_and_kernels(base):
    # K, hence J, g and every sensitivity kernel, is linear in (Q, Q0)
    _assert_scaled(_run(_probe([[-1.0], [1.0]], [0.5, 0.5], scale=3.0), 1), base, 3.0)
