"""Metamorphic relations of the engine: relations between two runs that
need no reference solution, so they reach the mean-coupled and matrix
cases that no closed form covers. Each run takes a scalar scenario at
N = 400 and the gain 0.4 + 0.2 cos 2 pi t, and reads the cost J, the
gradient density g, the averaged sensitivity triangle and one atom's
triangle (the per-atom row-quadrature oracle). The scenarios are the cross-pairing probe (mean coupling, two
atoms), ``classical``, ``normal-flow`` (11 atoms) and
``random_smooth_scenario`` seeds 1-8; a relation that changes the atoms
changes every coefficient sampled at them with them. The relations that
leave the optimum where it is are checked on ``optimize_gain`` too, at
N = 200 from its default start."""

from functools import partial

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    InitialMeasure,
    build_scenario,
    classical_scenario,
    cost_gradient,
    covariance_profile,
    kernel_bundle,
    make_grid,
    mean_sensitivity_triangle,
    measure_averages,
    normal_flow_scenario,
    optimize_gain,
    trace_cost,
)
from mfkalman.scenarios import cross_pairing_probe, random_smooth_scenario

from conftest import rebuilt, row_sensitivity_triangle

STEPS = 400
TOL = 1e-12  # relative, in the sup norm

BUILDS = {
    "probe": cross_pairing_probe,
    "classical": classical_scenario,
    "normal-flow": normal_flow_scenario,
    **{f"random-{seed}": partial(random_smooth_scenario, seed) for seed in range(1, 9)},
}

# cross_pairing_probe's coefficients, its atoms at -1 and 1 left to the caller
_PROBE = dict(A=0.2, B=0.5, C=1.0, D=0.3, sigma=lambda u, t: 1.0 + 0.25 * u,
              gamma=lambda u, t: 0.6 + 0.2 * u)


def _gain(t):
    return 0.4 + 0.2 * np.cos(2 * np.pi * t)


def _run(scen, atom):
    """(J, g, averaged triangle, triangle of ``atom``) of ``scen``."""
    gain = GainSchedule.from_callable(scen.grid, _gain)
    bars = measure_averages(scen)
    bundle = kernel_bundle(scen, gain)
    return (trace_cost(scen, bundle, bars), cost_gradient(scen, bundle, bars).values,
            mean_sensitivity_triangle(scen, bundle, bars),
            row_sensitivity_triangle(scen, bundle, bars, atom))


def _on_atoms(scen, order, weights):
    """``scen`` on its atoms taken in ``order`` (repeats allowed) with
    ``weights``; the loadings sampled at each atom go with it."""
    measure = InitialMeasure(scen.measure.points[order], weights)
    return rebuilt(scen, measure=measure, sigma=scen.sigma[order], gamma=scen.gamma[order])


def _split_last_atom(scen):
    """``scen`` with its last atom as two copies of half its weight each."""
    k, w = scen.n_atoms, scen.measure.weights
    return _on_atoms(scen, list(range(k)) + [k - 1], np.r_[w[:-1], w[-1] / 2, w[-1] / 2])


@pytest.fixture(scope="module", params=sorted(BUILDS))
def case(request):
    """(scenario, its run read at its last atom)."""
    scen = BUILDS[request.param](steps=STEPS)
    return scen, _run(scen, scen.n_atoms - 1)


def _assert_scaled(got, base, factor):
    for x, y in zip(got, base):
        assert np.max(np.abs(np.asarray(x) - factor * np.asarray(y))) <= TOL * np.max(
            np.abs(factor * np.asarray(y)))


def test_base_is_the_probe():
    # the coefficients above rebuild the probe to the bit
    rebuilt = build_scenario(make_grid(1.0, STEPS),
                             measure=InitialMeasure([[-1.0], [1.0]], [0.5, 0.5]), **_PROBE)
    for x, y in zip(_run(rebuilt, 1), _run(cross_pairing_probe(STEPS), 1)):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("copy", [1, 2])
def test_splitting_an_atom_into_half_weight_copies(case, copy):
    # the last atom becomes two copies of half its weight each
    scen, base = case
    _assert_scaled(_run(_split_last_atom(scen), scen.n_atoms - 2 + copy), base, 1.0)


def test_relabelling_the_atoms(case):
    scen, base = case
    order = np.arange(scen.n_atoms)[::-1]
    _assert_scaled(_run(_on_atoms(scen, order, scen.measure.weights[order]), 0), base, 1.0)


def test_noise_scaling_scales_cost_gradient_and_kernels(case):
    # K, hence J, g and every sensitivity kernel, is linear in (Q, Q0)
    scen, base = case
    scaled = rebuilt(scen, Q=3.0 * scen.Q, Q0=3.0 * scen.Q0)
    _assert_scaled(_run(scaled, scen.n_atoms - 1), base, 3.0)


def test_cost_weight_scaling_scales_cost_and_gradient(case):
    # J and g are linear in Sigma; the diagonal condition does not read it
    scen, base = case
    scaled = rebuilt(scen, Sigma=3.0 * scen.Sigma)
    gain = GainSchedule.from_callable(scen.grid, _gain)
    bundle, bars = kernel_bundle(scaled, gain), measure_averages(scaled)
    field = cost_gradient(scaled, bundle, bars)
    _assert_scaled((trace_cost(scaled, bundle, bars), field.values), base[:2], 3.0)
    unscaled = kernel_bundle(scen, gain)
    np.testing.assert_array_equal(
        field.diagonal_step,
        cost_gradient(scen, unscaled, measure_averages(scen)).diagonal_step)


def test_block_diagonal_copy_of_the_probe():
    # two uncoupled copies of the probe, one per coordinate, on the atoms
    # (-1, -1) and (1, 1): twice the cost, the probe's profile on each
    # diagonal block and exactly zero off it
    probe = cross_pairing_probe(STEPS)
    sigma, gamma = _PROBE["sigma"], _PROBE["gamma"]
    pair = build_scenario(
        make_grid(1.0, STEPS), measure=InitialMeasure([[-1.0, -1.0], [1.0, 1.0]], [0.5, 0.5]),
        **{name: _PROBE[name] * np.eye(2) for name in "ABCD"},
        sigma=lambda u, t: np.diag([sigma(u[0], t), sigma(u[1], t)]),
        gamma=lambda u, t: np.diag([gamma(u[0], t), gamma(u[1], t)]),
        Q=np.eye(2), Q0=np.eye(2), Sigma=np.eye(2))
    runs = []
    for scen in (probe, pair):
        gain = GainSchedule.from_callable(scen.grid, _gain, scen.n, scen.m)
        bundle, bars = kernel_bundle(scen, gain), measure_averages(scen)
        runs.append((trace_cost(scen, bundle, bars),
                     [covariance_profile(scen, bundle, bars, a) for a in range(2)]))
    (J, profiles), (J2, profiles2) = runs
    assert abs(J2 - 2 * J) <= TOL * abs(2 * J)
    for K, K2 in zip(profiles, profiles2):
        for b in range(2):
            assert np.max(np.abs(K2[:, b, b] - K)) <= TOL * np.max(np.abs(K))
        np.testing.assert_array_equal(K2[:, [0, 1], [1, 0]], 0.0)


OPT_STEPS = 200
OPT_TOL = 1e-10  # relative, in the sup norm: the optimizer's accuracy floor

# relations that leave the optimal gain unchanged; J and g scale with
# (Q, Q0) and Sigma, the Newton step p = -g / d does not
OPT_RELATIONS = {
    "relabel": lambda scen: _on_atoms(scen, np.arange(scen.n_atoms)[::-1],
                                      scen.measure.weights[::-1]),
    "split": _split_last_atom,
    "noise": lambda scen: rebuilt(scen, Q=3.0 * scen.Q, Q0=3.0 * scen.Q0),
    "cost-weight": lambda scen: rebuilt(scen, Sigma=3.0 * scen.Sigma),
}


def _assert_same_optimum(got, want):
    assert (got.converged, got.iterations) == (want.converged, want.iterations)
    gap = np.max(np.abs(got.gain.values - want.gain.values))
    assert gap <= OPT_TOL * np.max(np.abs(want.gain.values))


@pytest.fixture(scope="module", params=["probe"] + [f"random-{seed}" for seed in range(1, 9)])
def optimum(request):
    """(scenario at N = 200, its optimizer report from the default start)."""
    scen = BUILDS[request.param](steps=OPT_STEPS)
    return scen, optimize_gain(scen)


@pytest.mark.parametrize("relation", sorted(OPT_RELATIONS))
def test_optimizer_relations_keep_the_gain(optimum, relation):
    scen, base = optimum
    assert base.converged
    _assert_same_optimum(optimize_gain(OPT_RELATIONS[relation](scen)), base)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1's FOUND: the default grad_tol has an absolute floor, so "
    "Sigma = 1e-6 reports converged at the zero gain after 0 iterations"))
def test_optimizer_cost_weight_scaling_at_a_small_cost():
    scen = classical_scenario(steps=800)
    _assert_same_optimum(optimize_gain(rebuilt(scen, Sigma=1e-6 * scen.Sigma)),
                         optimize_gain(scen))
