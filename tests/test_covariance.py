import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    ScenarioError,
    build_scenario,
    cost_gradient,
    covariance_drift,
    covariance_field,
    covariance_profile,
    covariance_sensitivity,
    dirac_measure,
    error_covariance,
    fd_cost_slope,
    kernel_bundle,
    make_grid,
    mean_sensitivity,
    measure_averages,
    normal_flow_scenario,
    sensitivity_profile,
    trace_cost,
)
from mfkalman.covariance import drift_profile, mean_sensitivity_triangle

from conftest import scalar_scenario


def _coupled_matrix_scenario(steps):
    """2x2 diagonal system with mean coupling on, at gain diag(0.5, 0.2)."""
    grid = make_grid(1.0, steps)
    scen = build_scenario(
        grid, measure=dirac_measure([0.0, 0.0]),
        A=lambda t: np.diag([-0.4, 0.3]),
        B=lambda t: np.diag([0.5, -0.2]),
        C=lambda t: np.eye(2),
        D=lambda t: np.diag([0.3, 0.1]),
        sigma=lambda u, t: np.diag([0.9, 1.1]),
        gamma=lambda u, t: np.eye(2),
        Q=np.eye(2), Q0=np.eye(2), Sigma=lambda t: np.eye(2))
    gain = GainSchedule.constant(grid, np.diag([0.5, 0.2]), 2, 2)
    return scen, measure_averages(scen), kernel_bundle(scen, gain)


@pytest.fixture(scope="module")
def matrix_pack():
    return _coupled_matrix_scenario(steps=20)


class TestErrorCovariance:
    def test_zero_at_start(self, classical_pack):
        scen, bars, bundle = classical_pack
        K0 = error_covariance(scen, bundle, bars, 0, 0)
        np.testing.assert_allclose(K0, 0.0, atol=0)

    def test_zero_gain_gives_time(self, classical_pack):
        scen, bars, bundle = classical_pack
        prof = covariance_profile(scen, bundle, bars, 0)
        np.testing.assert_allclose(prof, scen.grid.nodes, atol=1e-13)

    def test_constant_gain_closed_form(self):
        scen = scalar_scenario(steps=400)
        c = 0.8
        gain = GainSchedule.constant(scen.grid, c)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        prof = covariance_profile(scen, bundle, bars, 0)
        t = scen.grid.nodes
        expected = (1 + c * c) * (1 - np.exp(-2 * c * t)) / (2 * c)
        np.testing.assert_allclose(prof, expected, atol=5e-6)

    def test_atom_lookup_by_point(self, classical_pack):
        scen, bars, bundle = classical_pack
        by_index = error_covariance(scen, bundle, bars, 0, 50)
        by_point = error_covariance(scen, bundle, bars, 0.0, 50)
        np.testing.assert_array_equal(by_index, by_point)
        with pytest.raises(ScenarioError):
            error_covariance(scen, bundle, bars, 5.0, 50)

    def test_matrix_mode_block_diagonal(self):
        # mean coupling on, so the mixed kernel and cross quadratures are live
        scen2, bars2, bundle2 = _coupled_matrix_scenario(steps=80)
        grid = scen2.grid
        K2 = error_covariance(scen2, bundle2, bars2, 0, 80)
        assert K2.shape == (2, 2)
        np.testing.assert_allclose(K2, K2.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(K2)) >= -1e-10
        params = [(-0.4, 0.5, 0.3, 0.9, 0.5), (0.3, -0.2, 0.1, 1.1, 0.2)]
        for k, (a, b, d, s, g) in enumerate(params):
            scen1 = scalar_scenario(grid=grid, A=a, B=b, D=d, sigma=s)
            gain1 = GainSchedule.constant(grid, g)
            prof = covariance_profile(scen1, kernel_bundle(scen1, gain1),
                                      measure_averages(scen1), 0)
            assert K2[k, k] == pytest.approx(prof[-1], abs=1e-7)
        np.testing.assert_allclose(K2[0, 1], 0.0, atol=1e-9)

    def test_symmetry_and_psd_scalar(self, rough_pack):
        scen, bars, _, bundle = rough_pack
        for atom in range(scen.n_atoms):
            prof = covariance_profile(scen, bundle, bars, atom)
            assert np.all(prof >= -1e-12)

    def test_field_shapes(self, rough_pack):
        scen, bars, _, bundle = rough_pack
        field = covariance_field(scen, bundle, bars)
        assert field.values.shape == (2, scen.grid.n_nodes, 1, 1)
        np.testing.assert_allclose(field.values[:, 0], 0.0, atol=0)

    @pytest.mark.parametrize("mode", ["scalar", "matrix"])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_rejects_node_off_the_grid(self, classical_pack, matrix_pack, mode, offset):
        scen, bars, bundle = classical_pack if mode == "scalar" else matrix_pack
        node = -1 if offset < 0 else scen.grid.n_steps + 1
        with pytest.raises(ScenarioError):
            error_covariance(scen, bundle, bars, 0, node)


class TestCovarianceDrift:
    def test_zero_at_start(self, classical_pack):
        scen, bars, bundle = classical_pack
        np.testing.assert_allclose(covariance_drift(scen, bundle, bars, 0, 0), 0.0)

    def test_classical_half(self, classical_pack):
        scen, bars, bundle = classical_pack
        K1 = covariance_drift(scen, bundle, bars, 0, 50)
        assert K1[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_rate_consistency_random_scenario(self, rough_pack):
        scen, bars, _, bundle = rough_pack
        dt = scen.grid.dt
        for atom in range(2):
            K = covariance_profile(scen, bundle, bars, atom)
            K1 = drift_profile(scen, bundle, bars, atom)
            fd = (K[2:] - K[:-2]) / (2 * dt)
            resid = np.abs(fd - 2 * K1[1:-1])
            assert np.max(resid) <= 0.02 * np.max(np.abs(2 * K1[1:-1]))

    def test_matrix_drift_matches_scalar(self):
        scen2, bars2, bundle2 = _coupled_matrix_scenario(steps=60)
        grid = scen2.grid
        K1m = covariance_drift(scen2, bundle2, bars2, 0, 60)
        scen1 = scalar_scenario(grid=grid, A=-0.4, B=0.5, D=0.3, sigma=0.9)
        b1 = kernel_bundle(scen1, GainSchedule.constant(grid, 0.5))
        K1s = drift_profile(scen1, b1, measure_averages(scen1), 0)
        assert K1m[0, 0] == pytest.approx(K1s[-1], abs=1e-7)

    @pytest.mark.parametrize("mode", ["scalar", "matrix"])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_rejects_node_off_the_grid(self, classical_pack, matrix_pack, mode, offset):
        scen, bars, bundle = classical_pack if mode == "scalar" else matrix_pack
        node = -1 if offset < 0 else scen.grid.n_steps + 1
        with pytest.raises(ScenarioError):
            covariance_drift(scen, bundle, bars, 0, node)


class TestSensitivityKernel:
    def test_zero_gain_closed_form(self, classical_pack):
        scen, bars, bundle = classical_pack
        row = sensitivity_profile(scen, bundle, bars, 0, 75)
        np.testing.assert_allclose(row, -2.0 * scen.grid.nodes[:76], atol=1e-13)
        assert covariance_sensitivity(scen, bundle, bars, 0, 75, 30) == pytest.approx(
            -2.0 * scen.grid.nodes[30], abs=1e-13)

    def test_no_diffusion_gives_zero(self):
        scen = scalar_scenario(steps=50, sigma=0.0, gamma=0.0)
        gain = GainSchedule.constant(scen.grid, 0.4)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        row = sensitivity_profile(scen, bundle, bars, 0, 50)
        np.testing.assert_allclose(row, 0.0, atol=1e-15)

    def test_matches_fd_of_covariance(self, rough_pack):
        scen, bars, gain, bundle = rough_pack
        eps = 1e-4
        beta = 0.7 - 0.5 * np.sin(3 * scen.grid.nodes)
        up = kernel_bundle(scen, gain.with_values(
            (gain.scalar + eps * beta)[:, None, None]))
        dn = kernel_bundle(scen, gain.with_values(
            (gain.scalar - eps * beta)[:, None, None]))
        dt = scen.grid.dt
        for atom in range(2):
            Kp = covariance_profile(scen, up, bars, atom)
            Km = covariance_profile(scen, dn, bars, atom)
            for i in (scen.grid.n_steps, scen.grid.n_steps // 2):
                fd = (Kp[i] - Km[i]) / (2 * eps)
                row = sensitivity_profile(scen, bundle, bars, atom, i)
                quad = np.trapezoid(row * beta[: i + 1], dx=dt)
                assert abs(quad - fd) <= 1e-3 * max(abs(fd), 1e-3)

    def test_requires_scalar_and_ordering(self, classical_pack):
        scen, bars, bundle = classical_pack
        with pytest.raises(ScenarioError):
            covariance_sensitivity(scen, bundle, bars, 0, 10, 20)


class TestMeanSensitivity:
    def test_zero_gain_closed_form(self, classical_pack):
        scen, bars, bundle = classical_pack
        assert mean_sensitivity(scen, bundle, bars, 80, 40) == pytest.approx(
            -2.0 * scen.grid.nodes[40], abs=1e-13)

    def test_interacting_benchmark_formula(self):
        """Direct quadrature of the vanished-bars reduction:
        half-kernel = -int_0^s C psi(t,.)^2 (1 + gain^2) + psi(t,s)^2 gain(s)."""
        scen = normal_flow_scenario(steps=100)
        gain = GainSchedule.from_callable(scen.grid, np.tanh)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        psi = bundle.psi.values
        g = gain.scalar
        dt = scen.grid.dt
        for (i, j) in [(100, 40), (70, 70), (90, 10)]:
            theta = np.arange(j + 1)
            integrand = psi[i, theta] ** 2 * (1.0 + g[theta] ** 2)
            integral = np.trapezoid(integrand, dx=dt) if j > 0 else 0.0
            expected = 2.0 * (-integral + psi[i, j] ** 2 * g[j])
            got = mean_sensitivity(scen, bundle, bars, i, j)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_triangle_row_equals_row_path_and_atom_sum(self, rough_pack):
        scen, bars, _, bundle = rough_pack
        tri = mean_sensitivity_triangle(scen, bundle, bars)
        ws = scen.measure.weights
        for i in (200, 150, 120):
            row = np.array([mean_sensitivity(scen, bundle, bars, i, j) for j in range(i + 1)])
            atoms = sum(ws[a] * sensitivity_profile(scen, bundle, bars, a, i)
                        for a in range(scen.n_atoms))
            np.testing.assert_allclose(tri[i, : i + 1], row, rtol=0, atol=1e-10)
            np.testing.assert_allclose(row, atoms, rtol=0, atol=1e-10)
            np.testing.assert_array_equal(tri[i, i + 1:], 0.0)


class TestCost:
    def test_zero_gain_half(self, classical_pack):
        scen, bars, bundle = classical_pack
        assert trace_cost(scen, bundle, bars) == pytest.approx(0.5, abs=1e-13)

    def test_no_diffusion_zero_cost(self):
        scen = scalar_scenario(steps=50, sigma=0.0, gamma=0.0)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.0))
        assert trace_cost(scen, bundle, bars) == 0.0

    def test_cost_weight_scaling(self):
        base = scalar_scenario(steps=50, A=0.1)
        double = scalar_scenario(steps=50, A=0.1, Sigma=2.0)
        gain = GainSchedule.constant(base.grid, 0.3)
        J1 = trace_cost(base, kernel_bundle(base, gain), measure_averages(base))
        J2 = trace_cost(double, kernel_bundle(double, gain), measure_averages(double))
        assert J2 == pytest.approx(2.0 * J1, rel=1e-14)

    def test_matrix_cost_matches_scalar_sum(self):
        grid = make_grid(1.0, 60)
        scen2 = build_scenario(
            grid, measure=dirac_measure([0.0, 0.0]),
            A=lambda t: np.diag([-0.4, 0.3]),
            C=lambda t: np.eye(2),
            sigma=lambda u, t: np.diag([0.9, 1.1]),
            gamma=lambda u, t: np.eye(2),
            Q=np.eye(2), Q0=np.eye(2), Sigma=lambda t: np.eye(2))
        gain2 = GainSchedule.constant(grid, np.diag([0.5, 0.2]), 2, 2)
        J2 = trace_cost(scen2, kernel_bundle(scen2, gain2), measure_averages(scen2))
        total = 0.0
        for a, s, g in [(-0.4, 0.9, 0.5), (0.3, 1.1, 0.2)]:
            scen1 = scalar_scenario(grid=grid, A=a, sigma=s)
            total += trace_cost(scen1, kernel_bundle(scen1, GainSchedule.constant(grid, g)),
                                measure_averages(scen1))
        assert J2 == pytest.approx(total, abs=1e-7)


class TestGradient:
    def test_zero_gain_closed_form(self, classical_pack):
        scen, bars, bundle = classical_pack
        g = cost_gradient(scen, bundle, bars)
        t = scen.grid.nodes
        np.testing.assert_allclose(g.values, -2 * t * (1 - t), atol=1e-13)
        assert g.values[-1] == 0.0

    def test_pairing_spot_value(self):
        scen = scalar_scenario(steps=400)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.0))
        g = cost_gradient(scen, bundle, bars)
        assert g.pair(np.ones(401)) == pytest.approx(-1.0 / 3.0, abs=1e-5)

    def test_vanishes_at_optimum(self):
        scen = scalar_scenario(steps=200)
        bars = measure_averages(scen)
        gain = GainSchedule.from_callable(scen.grid, np.tanh)
        g = cost_gradient(scen, kernel_bundle(scen, gain), bars)
        assert np.max(np.abs(g.values)) <= 1e-3


class TestFdOracle:
    def test_zero_direction(self, classical_pack):
        scen, bars, _ = classical_pack
        zero = GainSchedule.constant(scen.grid, 0.0)
        assert fd_cost_slope(scen, zero, zero, 1e-4, bars) == 0.0

    def test_constant_direction_spot(self):
        scen = scalar_scenario(steps=400)
        bars = measure_averages(scen)
        zero = GainSchedule.constant(scen.grid, 0.0)
        one = GainSchedule.constant(scen.grid, 1.0)
        assert fd_cost_slope(scen, zero, one, 1e-4, bars) == pytest.approx(
            -1.0 / 3.0, abs=1e-5)

    def test_self_consistency_random_directions(self, rough_pack):
        scen, bars, gain, bundle = rough_pack
        g = cost_gradient(scen, bundle, bars)
        rng = np.random.default_rng(77)
        t = scen.grid.nodes
        for _ in range(5):
            a, b, c = rng.uniform(-1, 1, 3)
            beta_vals = a + b * np.sin(2 * np.pi * t) + c * t
            beta = GainSchedule(scen.grid, beta_vals[:, None, None])
            fd = fd_cost_slope(scen, gain, beta, 1e-4, bars)
            pairing = g.pair(beta_vals)
            assert abs(pairing - fd) <= 1e-3 * (1 + abs(pairing))

    def test_rejects_bad_eps(self, classical_pack):
        scen, bars, _ = classical_pack
        zero = GainSchedule.constant(scen.grid, 0.0)
        with pytest.raises(ScenarioError):
            fd_cost_slope(scen, zero, zero, 0.0, bars)
