import inspect
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    InitialMeasure,
    ScenarioError,
    build_scenario,
    dirac_measure,
    empirical_statistics,
    kernel_bundle,
    make_grid,
    measure_averages,
    simulate_ensemble,
)
from mfkalman import simulation
from mfkalman.covariance import covariance_profile
from mfkalman.gain import riccati_normal_flow
from mfkalman.kernels import _closed_loop_drifts
from mfkalman.scenarios import classical_scenario, cross_pairing_probe, normal_flow_scenario
from mfkalman.simulation import SimulationError, worker_count

from conftest import scalar_scenario

_ARRAYS = ("x", "y", "z", "e", "mean", "sum2", "sum4")


def _assert_same_ensemble(a, b):
    """Kept paths and every streamed moment array bitwise equal."""
    for name in _ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _assert_relabelled(a, b):
    """Ensembles of two atoms in swapped order are bitwise mirror images."""
    for name in _ARRAYS:
        axis = 1 if name in "xyze" else 0   # the atom axis
        assert np.array_equal(getattr(a, name), np.flip(getattr(b, name), axis)), name


def _mean_coupled_two_atoms(steps):
    """Two atoms with mean coupling and atom-dependent loadings."""
    return build_scenario(
        make_grid(1.0, steps), measure=InitialMeasure([[-1.0], [1.0]], [0.5, 0.5]),
        A=0.2, B=0.5, C=1.0, D=0.3,
        sigma=lambda u, t: 1.0 + 0.25 * u,
        gamma=lambda u, t: 0.6 + 0.2 * u)


def _euler_moments(scen, gain, atom):
    """Exact second moment of the Euler-Maruyama error, (N+1, n, n).

    The joint error Y = (mean error, atom error) of the scheme obeys
    Y_{i+1} = E_i Y_i + noise_i with E_i = I + dt Gamma_i,
    Gamma = [[H + M, 0], [M, H]] and left-point loadings, so from Y_0 = 0
    its second moment is P_{i+1} = E_i P_i E_i' + dt W_i."""
    dt, n = scen.grid.dt, scen.n
    G = gain.values
    H, M = scen.A - G @ scen.C, scen.B - G @ scen.D
    w = scen.measure.weights
    sigma_bar = np.einsum("u,ujad->jad", w, scen.sigma)
    gamma_bar = np.einsum("u,ujad->jad", w, scen.gamma)
    zero = np.zeros((n, n))
    P = np.zeros((scen.grid.n_nodes, 2 * n, 2 * n))
    for i in range(scen.grid.n_steps):
        E = np.eye(2 * n) + dt * np.block([[H[i] + M[i], zero], [M[i], H[i]]])
        state = np.vstack([sigma_bar[i], scen.sigma[atom, i]])
        filt = np.vstack([G[i] @ gamma_bar[i], G[i] @ scen.gamma[atom, i]])
        W = state @ scen.Q @ state.T + filt @ scen.Q0 @ filt.T
        P[i + 1] = E @ P[i] @ E.T + dt * W
    return P[:, n:, n:]


class TestSimulateEnsemble:
    def test_noiseless_error_stays_zero(self):
        scen = scalar_scenario(steps=50, A=0.3, B=0.2, C=1.0, D=0.1,
                               sigma=0.0, gamma=0.0)
        gain = GainSchedule.constant(scen.grid, 0.7)
        ens = simulate_ensemble(scen, gain, n_paths=16, seed=0)
        np.testing.assert_allclose(ens.e, 0.0, atol=1e-12)
        for name in ("mean", "sum2", "sum4"):
            np.testing.assert_allclose(getattr(ens, name), 0.0, atol=1e-12)

    def test_error_starts_at_zero(self, classical_small):
        gain = GainSchedule.constant(classical_small.grid, 0.4)
        ens = simulate_ensemble(classical_small, gain, n_paths=8, seed=1)
        np.testing.assert_allclose(ens.e[:, :, 0], 0.0, atol=0)
        np.testing.assert_allclose(ens.x[:, 0, 0, 0], 0.0, atol=0)
        for name in ("mean", "sum2", "sum4"):
            np.testing.assert_allclose(getattr(ens, name)[:, 0], 0.0, atol=0)

    def test_zero_gain_variance_is_time(self):
        scen = scalar_scenario(steps=100)
        gain = GainSchedule.constant(scen.grid, 0.0)
        ens = simulate_ensemble(scen, gain, n_paths=20000, seed=7)
        st = empirical_statistics(ens)
        # with no gain the error is the driving noise itself: variance T
        assert abs(st.cov[0, 100, 0, 0] - 1.0) <= 3.0 * st.var_se[0, 100, 0]

    def test_optimal_gain_variance(self):
        scen = scalar_scenario(steps=100)
        gain = GainSchedule.from_callable(scen.grid, np.tanh)
        ens = simulate_ensemble(scen, gain, n_paths=20000, seed=3)
        st = empirical_statistics(ens)
        assert abs(st.cov[0, 100, 0, 0] - np.tanh(1.0)) <= 3.0 * st.var_se[0, 100, 0] + 2e-2

    def test_unbiasedness_along_path(self):
        scen = scalar_scenario(steps=60, A=0.2, B=0.3, C=1.0, D=0.2)
        gain = GainSchedule.constant(scen.grid, 0.5)
        st = empirical_statistics(simulate_ensemble(scen, gain, n_paths=8000, seed=11))
        for j in range(0, 61, 10):
            assert abs(st.mean[0, j, 0]) <= 3.0 * max(st.mean_se[0, j, 0], 1e-15)

    def test_atom_permutation_invariance(self):
        grid = make_grid(1.0, 40)
        kwargs = dict(A=0.1, B=0.4, C=1.0, D=0.2,
                      sigma=lambda u, t: 1.0 + 0.2 * u,
                      gamma=lambda u, t: 0.5 + 0.1 * u)
        s1 = build_scenario(grid, measure=InitialMeasure([[-1.0], [2.0]], [0.3, 0.7]),
                            **kwargs)
        s2 = build_scenario(grid, measure=InitialMeasure([[2.0], [-1.0]], [0.7, 0.3]),
                            **kwargs)
        gain = GainSchedule.constant(grid, 0.6)
        e1 = simulate_ensemble(s1, gain, n_paths=64, seed=5)
        e2 = simulate_ensemble(s2, gain, n_paths=64, seed=5)
        _assert_relabelled(e1, e2)

    def test_atom_permutation_invariance_matrix(self):
        def scenario(order):
            points = np.array([[-1.0, 0.5], [1.0, -0.5]])[order]
            return _two_atom_matrix_scenario(40, points, np.array([0.4, 0.6])[order])

        gain = GainSchedule.constant(make_grid(1.0, 40), np.array([[0.5, 0.1], [-0.2, 0.2]]), 2, 2)
        # more paths than one block, the last one short
        e1 = simulate_ensemble(scenario([0, 1]), gain, n_paths=4200, seed=5)
        e2 = simulate_ensemble(scenario([1, 0]), gain, n_paths=4200, seed=5)
        _assert_relabelled(e1, e2)

    def test_seed_determinism(self, classical_small):
        gain = GainSchedule.constant(classical_small.grid, 0.3)
        a = simulate_ensemble(classical_small, gain, n_paths=4100, seed=42)
        b = simulate_ensemble(classical_small, gain, n_paths=4100, seed=42)
        _assert_same_ensemble(a, b)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # 101 steps end on a short chunk of draws, and the last block is short
        scen = classical_scenario(steps=101)
        gain = GainSchedule.constant(scen.grid, 0.3)
        monkeypatch.setenv("MFK_THREADS", "1")
        a = simulate_ensemble(scen, gain, n_paths=8200, seed=9)
        for threads in ("2", "3"):
            monkeypatch.setenv("MFK_THREADS", threads)
            _assert_same_ensemble(a, simulate_ensemble(scen, gain, n_paths=8200, seed=9))

    def test_weak_convergence_bias_bounded(self):
        results = {}
        for steps in (100, 400):
            scen = scalar_scenario(steps=steps)
            gain = GainSchedule.constant(scen.grid, 0.0)
            st = empirical_statistics(simulate_ensemble(scen, gain, n_paths=12000, seed=17))
            results[steps] = (abs(st.cov[0, steps, 0, 0] - 1.0), st.var_se[0, steps, 0])
        bias_100, se_100 = results[100]
        bias_400, se_400 = results[400]
        assert bias_400 <= bias_100 + 3.0 * (se_100 + se_400)

    def test_error_equals_state_minus_filter(self, classical_small):
        gain = GainSchedule.constant(classical_small.grid, 0.2)
        ens = simulate_ensemble(classical_small, gain, n_paths=10, seed=2)
        np.testing.assert_array_equal(ens.e, ens.x - ens.z)

    def test_blowup_detected(self):
        scen = scalar_scenario(steps=50, A=1e155, sigma=1.0, gamma=1.0,
                               measure=dirac_measure(1.0))
        gain = GainSchedule.constant(scen.grid, 0.0)
        with pytest.raises(SimulationError, match="node"):
            simulate_ensemble(scen, gain, n_paths=4, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_moments_named(self):
        # the states stay finite (|x| up to 1.2e165), but their fourth
        # powers overflow from node 25 and their squares from node 48
        scen = build_scenario(make_grid(1.0, 50), measure=dirac_measure(1.0), A=1e5)
        gain = GainSchedule.constant(scen.grid, 0.0)
        with pytest.raises(SimulationError,
                           match=r"error moments are not finite at node 25 \(t = 0\.5\)"):
            simulate_ensemble(scen, gain, n_paths=4, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_negative_seed_rejected(self, classical_small, monkeypatch):
        def no_work(*args):
            raise AssertionError("the step maps were built")

        monkeypatch.setattr(simulation, "_step_maps", no_work)
        gain = GainSchedule.constant(classical_small.grid, 0.0)
        with pytest.raises(SimulationError, match="seed must be >= 0, got -3"):
            simulate_ensemble(classical_small, gain, n_paths=4, seed=-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,value", [
        ("n_paths", True), ("seed", True), ("n_paths", np.True_), ("n_paths", 2.5),
        ("n_paths", "5"), ("seed", 1.5), ("seed", np.float64(3.0)), ("seed", None)])
    def test_non_integer_count_or_seed_rejected_before_any_work(self, classical_small,
                                                                 monkeypatch, name, value):
        def no_work(*args):
            raise AssertionError("the step maps were built")

        monkeypatch.setattr(simulation, "_step_maps", no_work)
        kwargs = {"n_paths": 4, "seed": 0, name: value}
        with pytest.raises(SimulationError,
                           match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            simulate_ensemble(classical_small, GainSchedule.constant(classical_small.grid, 0.0),
                              **kwargs)

    def test_numpy_integers_accepted(self, classical_small):
        gain = GainSchedule.constant(classical_small.grid, 0.3)
        ens = simulate_ensemble(classical_small, gain, n_paths=np.int64(12), seed=np.uint8(5))
        assert (ens.n_paths, ens.seed) == (12, 5)
        _assert_same_ensemble(ens, simulate_ensemble(classical_small, gain, n_paths=12, seed=5))

    def test_input_validation(self, classical_small):
        gain = GainSchedule.constant(classical_small.grid, 0.0)
        with pytest.raises(SimulationError):
            simulate_ensemble(classical_small, gain, n_paths=0, seed=0)
        mismatched = GainSchedule.constant(make_grid(1.0, 7), 0.0)
        with pytest.raises(ScenarioError):
            simulate_ensemble(classical_small, mismatched, n_paths=4, seed=0)


class TestDrawAhead:
    """The helper thread that draws the normals ahead of the stepping."""

    def test_helper_joined_after_return_and_after_raise(self, classical_small, monkeypatch):
        monkeypatch.setenv("MFK_THREADS", "2")
        before = threading.active_count()
        simulate_ensemble(classical_small, GainSchedule.constant(classical_small.grid, 0.3),
                          n_paths=8200, seed=1)
        assert threading.active_count() == before
        scen = scalar_scenario(steps=50, A=1e155, sigma=1.0, gamma=1.0,
                               measure=dirac_measure(1.0))
        gain = GainSchedule.constant(scen.grid, 0.0)
        messages = []
        for threads in ("2", "1"):
            monkeypatch.setenv("MFK_THREADS", threads)
            with pytest.raises(SimulationError, match=r"blew up at node \d+ \(t = ") as info:
                simulate_ensemble(scen, gain, n_paths=8200, seed=0)
            messages.append(str(info.value))
            assert threading.active_count() == before
        assert messages[0] == messages[1]

    def test_helper_calls_no_public_function(self, classical_small, monkeypatch):
        # the benchmark's tracer opens every span on the calling thread
        callers = set()

        def recording(fn):
            def wrapper(*args, **kwargs):
                callers.add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapper

        for name, module in list(sys.modules.items()):
            if name == "mfkalman" or name.startswith("mfkalman."):
                for attr, fn in list(vars(module).items()):
                    if (inspect.isfunction(fn) and not attr.startswith("_")
                            and fn.__module__.startswith("mfkalman")):
                        monkeypatch.setattr(module, attr, recording(fn))
        drawers = set()
        draw_chunks = simulation._draw_chunks

        def recorded_draws(*args):
            for chunk in draw_chunks(*args):
                drawers.add(threading.get_ident())
                yield chunk

        monkeypatch.setattr(simulation, "_draw_chunks", recorded_draws)
        monkeypatch.setenv("MFK_THREADS", "2")
        simulation.simulate_ensemble(classical_small,
                                     GainSchedule.constant(classical_small.grid, 0.3),
                                     n_paths=4200, seed=3)
        assert drawers and threading.get_ident() not in drawers
        assert callers == {threading.get_ident()}

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", ["classical", "matrix"])   # d = 1 and d = 2
    def test_draws_live_in_caller_owned_buffers(self, monkeypatch, threads, case):
        # the buffers are made by the caller before the drawing starts, and
        # every chunk is drawn into one of them: no array per chunk
        if case == "classical":
            scen, value = classical_scenario(steps=100), 0.3
        else:
            scen, value = _two_atom_matrix_scenario(100), np.array([[0.5, 0.1], [-0.2, 0.2]])
        gain = GainSchedule.constant(scen.grid, value, scen.n, scen.m)
        draw_chunks = simulation._draw_chunks
        calls, chunks = [], []

        def recorded_draws(*args):
            calls.append([a for arg in args for a in (arg if isinstance(arg, list) else [arg])
                          if isinstance(a, np.ndarray)])
            for chunk in draw_chunks(*args):
                chunks.append(chunk)
                yield chunk

        monkeypatch.setattr(simulation, "_draw_chunks", recorded_draws)
        monkeypatch.setenv("MFK_THREADS", threads)
        simulation.simulate_ensemble(scen, gain, n_paths=4200, seed=3)
        (buffers,) = calls
        assert len(chunks) == 2 * 13 > 3
        for chunk in chunks:
            homes = [b for b in buffers if np.shares_memory(chunk, b)]
            assert len(homes) == 1
        assert len(buffers) == simulation._RING
        assert len({id(b) for c in chunks for b in buffers
                    if np.shares_memory(c, b)}) == simulation._RING

    def test_ring_outlasts_the_draw_ahead(self, monkeypatch):
        # the helper fills the next buffer while the caller steps the last
        # one; with threads switched as often as the interpreter can, a
        # chunk rewritten while still in use would change the ensemble
        scen = classical_scenario(steps=101)
        gain = GainSchedule.constant(scen.grid, 0.3)
        monkeypatch.setenv("MFK_THREADS", "1")
        want = simulate_ensemble(scen, gain, n_paths=8200, seed=2)
        monkeypatch.setenv("MFK_THREADS", "2")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_ensemble(scen, gain, n_paths=8200, seed=2)
        finally:
            sys.setswitchinterval(interval)
        _assert_same_ensemble(got, want)


class TestEmpiricalStatistics:
    def test_constant_paths_zero_covariance(self):
        scen = scalar_scenario(steps=20, sigma=0.0, gamma=0.0)
        gain = GainSchedule.constant(scen.grid, 0.1)
        ens = simulate_ensemble(scen, gain, n_paths=50, seed=0)
        st = empirical_statistics(ens)
        assert st.cov[0, 20, 0, 0] == pytest.approx(0.0, abs=1e-20)

    def test_initial_node_degenerate(self, classical_small):
        gain = GainSchedule.constant(classical_small.grid, 0.9)
        ens = simulate_ensemble(classical_small, gain, n_paths=100, seed=4)
        st = empirical_statistics(ens)
        assert st.mean[0, 0, 0] == 0.0
        assert st.cov[0, 0, 0, 0] == 0.0

    def test_needs_two_paths(self, classical_small):
        gain = GainSchedule.constant(classical_small.grid, 0.0)
        ens = simulate_ensemble(classical_small, gain, n_paths=1, seed=0)
        with pytest.raises(SimulationError):
            empirical_statistics(ens)

    @pytest.mark.parametrize("case", ["probe", "normal-flow"])
    def test_whole_grid_equals_per_node_formulas(self, case):
        """Every (atom, node) of the whole-grid statistics is bitwise what
        the per-node formulas give on the same streamed moments."""
        if case == "probe":
            scen = cross_pairing_probe(steps=40)
            gain = GainSchedule.constant(scen.grid, 0.7)
        else:
            scen = normal_flow_scenario(steps=40)
            gain = riccati_normal_flow(0.0, 1.0, scen.grid).gain()
        ens = simulate_ensemble(scen, gain, n_paths=300, seed=6)
        st = empirical_statistics(ens)
        P = ens.n_paths
        for atom in range(scen.n_atoms):
            for node in range(scen.grid.n_nodes):
                cov = ens.sum2[atom, node] / (P - 1)
                var = np.diag(cov)
                m4 = ens.sum4[atom, node] / P
                var_se = np.sqrt(np.maximum(m4 - var**2 * (P - 3) / (P - 1), 0.0) / P)
                mean_se = np.sqrt(np.maximum(var, 0.0) / P)
                for got, want in ((st.mean, ens.mean[atom, node]), (st.cov, cov),
                                  (st.mean_se, mean_se), (st.var_se, var_se)):
                    assert np.array_equal(got[atom, node], want), (atom, node)

    def test_keeps_leading_paths_only(self, classical_small):
        gain = GainSchedule.constant(classical_small.grid, 0.3)
        for n_paths, kept in ((7, 7), (25, simulation.KEPT_PATHS)):
            ens = simulate_ensemble(classical_small, gain, n_paths=n_paths, seed=1)
            assert ens.n_paths == n_paths
            assert {arr.shape[0] for arr in (ens.x, ens.y, ens.z, ens.e)} == {kept}


def _two_atom_matrix_scenario(steps, points=((-1.0, 0.5), (1.0, -0.5)), weights=(0.4, 0.6)):
    """Non-diagonal, mean-coupled 2x2 system with two atoms."""
    return build_scenario(
        make_grid(1.0, steps), measure=InitialMeasure(points, weights),
        A=lambda t: np.array([[-0.4, 0.3], [0.2, 0.3]]),
        B=lambda t: np.array([[0.5, -0.3], [0.1, -0.2]]),
        C=lambda t: np.array([[1.0, 0.2], [0.0, 0.8]]),
        D=lambda t: np.array([[0.3, 0.0], [0.2, 0.1]]),
        sigma=lambda u, t: np.array([[0.9 + 0.2 * u[0], 0.1], [0.0, 1.1]]),
        gamma=lambda u, t: np.array([[1.0, 0.1 * u[0]], [0.0, 0.8]]),
        Q=np.array([[1.0, 0.3], [0.3, 0.8]]), Q0=np.eye(2))


def _full_state_ensemble(scen, gain, n_paths: int, seed: int) -> dict:
    """A full-state engine, the reference of the bitwise test: every
    replication steps the whole state [x, z, y] by the (2n + m)-square
    step map, every array is new, and each chunk of draws is drawn as a
    new (steps in chunk, 2d, count) array. Returns the arrays of a
    :class:`PathEnsemble`."""
    H, M = _closed_loop_drifts(scen, gain)
    n, m, d, k = scen.n, scen.m, scen.d, scen.n_atoms
    steps, dt = scen.grid.n_steps, scen.grid.dt
    G = gain.values[:steps]
    xs, zs, ys = slice(0, n), slice(n, 2 * n), slice(2 * n, None)
    size = 2 * n + m
    own = np.zeros((steps, size, size))
    own[:, xs, xs] = np.eye(n) + dt * scen.A[:steps]
    own[:, ys, xs] = dt * scen.C[:steps]
    own[:, zs, xs] = G @ own[:, ys, xs]
    own[:, zs, zs] = np.eye(n) + dt * H[:steps]
    own[:, ys, ys] = np.eye(m)
    field = np.zeros((steps, size, 2 * n))
    field[:, xs, xs] = dt * scen.B[:steps]
    field[:, ys, xs] = dt * scen.D[:steps]
    field[:, zs, xs] = G @ field[:, ys, xs]
    field[:, zs, zs] = dt * M[:steps]

    def loading(per_atom, Q):
        return (per_atom[:, :steps] @ np.linalg.cholesky(Q) * np.sqrt(dt)).transpose(1, 0, 2, 3)

    noise = np.zeros((steps, k, size, 2 * d))
    noise[:, :, xs, :d] = loading(scen.sigma, scen.Q)
    noise[:, :, ys, d:] = loading(scen.gamma, scen.Q0)
    noise[:, :, zs, d:] = G[:, None] @ noise[:, :, ys, d:]

    weights = scen.measure.weights[:, None, None]
    start = scen.measure.points[:, :, None]
    width = simulation._BLOCK
    blocks = [(b, min(width, n_paths - b)) for b in range(0, n_paths, width)]
    total, kept = None, []
    for seq, (first, count) in zip(np.random.SeedSequence(seed).spawn(len(blocks)), blocks):
        rng = np.random.Generator(getattr(np.random, simulation._BITGEN)(seq))
        s = np.empty((k, size, count))
        s[:, :n] = start
        s[:, n:2 * n] = start
        s[:, 2 * n:] = start if m == n else 0.0
        keep = min(max(simulation.KEPT_PATHS - first, 0), count)
        moments = simulation._Moments.zeros(k, scen.grid.n_nodes, n, count)
        states = [s[..., :keep].copy()]
        for j0 in range(0, steps, simulation._CHUNK):
            chunk = rng.standard_normal((min(simulation._CHUNK, steps - j0), 2 * d, count))
            for j, xi in enumerate(chunk, start=j0):
                bars = (weights * s[:, :2 * n]).sum(axis=0)
                s = own[j] @ s + field[j] @ bars + noise[j] @ xi
                e = s[:, :n] - s[:, n:2 * n]
                mean = e.mean(axis=2)
                c = e - mean[..., None]
                sq = c * c
                moments.mean[:, j + 1] = mean
                moments.sum2[:, j + 1] = c @ c.transpose(0, 2, 1)
                moments.sum3[:, j + 1] = np.einsum("uip,uip->ui", sq, c)
                moments.sum4[:, j + 1] = np.einsum("uip,uip->ui", sq, sq)
                states.append(s[..., :keep].copy())
        total = moments if total is None else total + moments
        kept.append(np.stack(states))
    kept = np.concatenate(kept, axis=3)
    x, z, y = (kept[:, :, rows].transpose(3, 1, 0, 2) for rows in (xs, zs, ys))
    return dict(x=x, y=y, z=z, e=x - z, mean=total.mean, sum2=total.sum2, sum4=total.sum4)


def _bitwise_case(case: str, steps: int):
    """Scenario and gain of the bitwise tests."""
    if case == "classical":
        scen = classical_scenario(steps=steps)
        return scen, GainSchedule.from_callable(scen.grid, np.tanh)
    if case == "probe":
        scen = cross_pairing_probe(steps=steps)
        return scen, GainSchedule.constant(scen.grid, 0.7)
    if case == "normal-flow":
        scen = normal_flow_scenario(steps=steps)
        return scen, riccati_normal_flow(0.0, 1.0, scen.grid).gain()
    # three atoms, n = m = d = 2
    scen = _two_atom_matrix_scenario(steps, points=((-1.0, 0.5), (1.0, -0.5), (0.2, 0.3)),
                                     weights=(0.3, 0.5, 0.2))
    return scen, GainSchedule.constant(scen.grid, np.array([[0.5, 0.1], [-0.2, 0.2]]), 2, 2)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case,n_paths", [
    ("classical", 4100), ("probe", 4100), ("normal-flow", 4100), ("matrix", 4100),
    ("matrix", 1), ("probe", 3)])
def test_engine_bitwise_equals_full_state_reference(monkeypatch, threads, case, n_paths):
    # x, z and the moments come from the 2n rows [x, z] alone, and y only
    # for the kept replications, in the reference's order of operations;
    # 4100 paths make a full block and a short one, 37 steps a short chunk
    scen, gain = _bitwise_case(case, 37)
    monkeypatch.setenv("MFK_THREADS", threads)
    ens = simulate_ensemble(scen, gain, n_paths=n_paths, seed=8)
    for name, want in _full_state_ensemble(scen, gain, n_paths, 8).items():
        assert np.array_equal(getattr(ens, name), want), name


@pytest.mark.parametrize("case", ["classical", "matrix"])   # d = 1 and d = 2
def test_draws_do_not_depend_on_the_chunk_size(monkeypatch, case):
    # a chunk of L steps is 2L successive (d, count) draws, so cutting the
    # steps into other chunks hands every step the same normals
    scen, gain = _bitwise_case(case, 37)
    want = simulate_ensemble(scen, gain, n_paths=4100, seed=8)
    for chunk in (1, 5, 64):
        monkeypatch.setattr(simulation, "_CHUNK", chunk)
        _assert_same_ensemble(simulate_ensemble(scen, gain, n_paths=4100, seed=8), want)


class TestRequestedNodes:
    """``simulate_ensemble(..., nodes=...)`` records the moments at the
    requested nodes only: the same bits as those nodes of a full run."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n_paths", [1, 3, 4100])
    @pytest.mark.parametrize("case", ["classical", "probe", "normal-flow", "matrix"])
    def test_moments_equal_those_of_a_full_run(self, monkeypatch, case, n_paths, threads):
        monkeypatch.setenv("MFK_THREADS", threads)
        scen, gain = _bitwise_case(case, 37)
        full = simulate_ensemble(scen, gain, n_paths=n_paths, seed=8)
        np.testing.assert_array_equal(full.nodes, np.arange(38))
        for nodes in ([0, 1, 8, 9, 20, 37], [37], np.array([5, 6])):
            ens = simulate_ensemble(scen, gain, n_paths=n_paths, seed=8, nodes=nodes)
            np.testing.assert_array_equal(ens.nodes, nodes)
            assert not ens.nodes.flags.writeable
            for name in ("mean", "sum2", "sum4"):
                part = getattr(ens, name)
                assert part.shape[1] == len(nodes)
                assert np.array_equal(part, getattr(full, name)[:, nodes]), name
            for name in "xyze":   # the kept trajectories keep every node
                assert np.array_equal(getattr(ens, name), getattr(full, name)), name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nodes,message", [
        (True, "sequence"), (2.0, "sequence"), (np.int64(3), "sequence"),
        ([True], "integer node indices"), ([np.True_], "integer node indices"),
        ([1.0], "integer node indices"), ([np.float64(2)], "integer node indices"),
        (["3"], "integer node indices"), ([-1], "integer node indices"),
        ([101], r"integer node indices in \[0, 100\], got 101"),
        ([3, 2], "strictly increasing"), ([2, 2], "strictly increasing"),
        ([], "at least one node"), (np.array([], dtype=int), "at least one node")],
        ids=["bool", "float", "scalar", "bool-entry", "numpy-bool-entry", "float-entry",
             "numpy-float-entry", "string-entry", "negative", "beyond-N", "unsorted",
             "duplicate", "empty", "empty-array"])
    def test_bad_nodes_rejected_before_any_work(self, classical_small, monkeypatch, nodes,
                                                message):
        def no_work(*args):
            raise AssertionError("the step maps were built")

        monkeypatch.setattr(simulation, "_step_maps", no_work)
        gain = GainSchedule.constant(classical_small.grid, 0.0)
        with pytest.raises(SimulationError, match=f"^nodes must .*{message}"):
            simulate_ensemble(classical_small, gain, n_paths=4, seed=0, nodes=nodes)

    def test_blowup_named_at_a_node_not_requested(self):
        scen = scalar_scenario(steps=50, A=1e155, sigma=1.0, gamma=1.0,
                               measure=dirac_measure(1.0))
        gain = GainSchedule.constant(scen.grid, 0.0)
        with pytest.raises(SimulationError, match="blew up at node") as full:
            simulate_ensemble(scen, gain, n_paths=4, seed=0)
        with pytest.raises(SimulationError) as last:
            simulate_ensemble(scen, gain, n_paths=4, seed=0, nodes=[50])
        assert str(last.value) == str(full.value)
        assert "node 50 " not in str(last.value)

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_moments_name_the_requested_node(self):
        # fourth powers overflow from node 25 (test_nonfinite_moments_named)
        scen = build_scenario(make_grid(1.0, 50), measure=dirac_measure(1.0), A=1e5)
        gain = GainSchedule.constant(scen.grid, 0.0)
        with pytest.raises(SimulationError,
                           match=r"error moments are not finite at node 30 \(t = 0\.6\)"):
            simulate_ensemble(scen, gain, n_paths=4, seed=0, nodes=[10, 30, 50])
        ens = simulate_ensemble(scen, gain, n_paths=4, seed=0, nodes=[10, 24])
        assert np.isfinite(ens.sum4).all()


class TestStreamedMoments:
    """The per-block moments, merged, equal two-pass statistics over the
    same draws. Shrinking the block and keeping every path lets the test
    see all draws while the merge still spans several blocks."""

    @pytest.mark.parametrize("block,n_paths", [(3, 10), (64, 300)])
    @pytest.mark.parametrize("case", ["probe", "matrix"])
    def test_equal_two_pass(self, monkeypatch, case, block, n_paths):
        monkeypatch.setattr(simulation, "_BLOCK", block)
        monkeypatch.setattr(simulation, "KEPT_PATHS", n_paths)
        if case == "probe":
            scen = cross_pairing_probe(steps=40)
            gain = GainSchedule.constant(scen.grid, 0.7)
        else:
            scen = _two_atom_matrix_scenario(40)
            gain = GainSchedule.constant(scen.grid, np.array([[0.5, 0.1], [-0.2, 0.2]]), 2, 2)
        ens = simulate_ensemble(scen, gain, n_paths=n_paths, seed=4)
        assert ens.e.shape[0] == n_paths
        mean = ens.e.mean(axis=0)
        centered = ens.e - mean
        sum2 = np.einsum("pkja,pkjb->kjab", centered, centered)
        sum4 = (centered**4).sum(axis=0)
        scale = np.sqrt(np.max(sum2) / n_paths)
        np.testing.assert_allclose(ens.mean, mean, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(ens.sum2, sum2, rtol=1e-12, atol=1e-12 * np.max(sum2))
        np.testing.assert_allclose(ens.sum4, sum4, rtol=1e-12, atol=1e-12 * np.max(sum4))
        st = empirical_statistics(ens)
        for atom in range(scen.n_atoms):
            for node in range(1, scen.grid.n_nodes):
                errs = centered[:, atom, node]
                cov = errs.T @ errs / (n_paths - 1)
                var = np.diag(cov)
                m4 = (errs**4).mean(axis=0)
                var_se = np.sqrt(np.maximum(m4 - var**2 * (n_paths - 3) / (n_paths - 1), 0.0)
                                 / n_paths)
                np.testing.assert_allclose(st.cov[atom, node], cov, rtol=1e-12,
                                           atol=1e-12 * np.max(var))
                np.testing.assert_allclose(st.var_se[atom, node], var_se, rtol=1e-12)
                np.testing.assert_allclose(st.mean_se[atom, node], np.sqrt(var / n_paths),
                                           rtol=1e-12)


class TestExactDiscreteMoments:
    """The Euler-Maruyama scheme has exact discrete error moments, so the
    Monte Carlo variance must match them within sampling noise alone."""

    CASES = {
        "classical": (lambda: classical_scenario(steps=200), np.tanh, 20000),
        "probe": (lambda: cross_pairing_probe(steps=200), 0.7, 30000),
        "mean_coupled": (lambda: _mean_coupled_two_atoms(100), 0.7, 30000),
        "matrix": (lambda: _two_atom_matrix_scenario(100),
                   np.array([[0.5, 0.1], [-0.2, 0.2]]), 20000),
    }

    @staticmethod
    def _gain(scen, value):
        if callable(value):
            return GainSchedule.from_callable(scen.grid, value)
        return GainSchedule.constant(scen.grid, value, scen.n, scen.m)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_streamed_variance_within_three_se(self, case):
        make, value, n_paths = self.CASES[case]
        scen = make()
        gain = self._gain(scen, value)
        st = empirical_statistics(simulate_ensemble(scen, gain, n_paths=n_paths, seed=23))
        steps = scen.grid.n_steps
        for atom in range(scen.n_atoms):
            P = _euler_moments(scen, gain, atom)
            for j in (steps // 4, steps // 2, steps):
                gap = np.abs(np.diag(st.cov[atom, j]) - np.diag(P[j]))
                se = st.var_se[atom, j]
                assert np.all(gap <= 3.0 * se), (atom, j, gap / se)

    @pytest.mark.parametrize("case", ["classical", "probe"])
    def test_oracle_converges_to_covariance_profile(self, case):
        _, value, _ = self.CASES[case]
        make = classical_scenario if case == "classical" else cross_pairing_probe
        errors = []
        for steps in (50, 100, 200):
            scen = make(steps=steps)
            gain = self._gain(scen, value)
            bundle, bars = kernel_bundle(scen, gain), measure_averages(scen)
            errors.append(max(
                np.max(np.abs(_euler_moments(scen, gain, atom)[:, 0, 0]
                              - covariance_profile(scen, bundle, bars, atom)))
                for atom in range(scen.n_atoms)))
        assert errors[0] / errors[1] >= 1.8
        assert errors[1] / errors[2] >= 1.8


class TestAgainstAnalyticCovariance:
    def test_mean_coupled_scenario_matches_representation(self):
        """End-to-end check of the representation including every cross term."""
        scen = _mean_coupled_two_atoms(100)
        gain = GainSchedule.constant(scen.grid, 0.7)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        st = empirical_statistics(simulate_ensemble(scen, gain, n_paths=30000, seed=23))
        for atom in range(2):
            K = covariance_profile(scen, bundle, bars, atom)
            for j in (50, 100):
                # 3 SE plus a first-order discretization allowance
                assert (abs(st.cov[atom, j, 0, 0] - K[j])
                        <= 3.0 * st.var_se[atom, j, 0] + 0.02 * K[j])


def test_memory_does_not_grow_with_paths_times_steps():
    # whole trajectories of this ensemble would take 706 MB
    scen = normal_flow_scenario(steps=400)
    gain = riccati_normal_flow(0.0, 1.0, scen.grid).gain()
    tracemalloc.start()
    try:
        simulate_ensemble(scen, gain, n_paths=5000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("MFK_THREADS", raising=False)
    for cpus, expected in ((1, 1), (2, 2), (3, 2), (16, 2)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                            raising=False)
        assert worker_count() == expected
    monkeypatch.setenv("MFK_THREADS", "2")
    assert worker_count() == 2


def test_worker_count_env(monkeypatch):
    # a simulation runs the caller and at most one helper thread
    for env, expected in (("0", 1), ("1", 1), ("2", 2), ("8", 2)):
        monkeypatch.setenv("MFK_THREADS", env)
        assert worker_count() == expected
    monkeypatch.setenv("MFK_THREADS", "bogus")
    with pytest.raises(SimulationError):
        worker_count()
    monkeypatch.delenv("MFK_THREADS")
    assert worker_count() in (1, 2)
