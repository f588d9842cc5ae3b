import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkalman import (
    GainSchedule,
    ScenarioError,
    build_scenario,
    dirac_measure,
    discrete_measure,
    gauss_hermite_measure,
    load_scenario,
    make_grid,
    measure_averages,
)
from mfkalman.system_model import _as_matrix

GRID = make_grid(1.0, 50)


class TestMeasures:
    def test_dirac(self, tmp_path):
        path = tmp_path / "scen.yaml"
        path.write_text("steps: 10\nmeasure: {kind: dirac, x0: 2.0}\n")
        mu = load_scenario(path).measure
        assert mu.n_atoms == 1
        assert mu.points[0, 0] == 2.0
        assert mu.weights[0] == 1.0

    def test_gauss_hermite_moments(self):
        mu = gauss_hermite_measure(5)
        u = mu.points[:, 0]
        assert float(mu.weights @ u**2) == pytest.approx(1.0, abs=1e-12)
        assert float(mu.weights @ u**4) == pytest.approx(3.0, abs=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(1, 12))
    def test_gauss_hermite_weights_sum(self, k):
        mu = gauss_hermite_measure(k)
        assert float(mu.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_discrete_normalizes(self):
        mu = discrete_measure([[-1.0], [1.0]], [2.0, 2.0])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_rejects_bad_weights(self):
        with pytest.raises(ScenarioError):
            discrete_measure([[0.0], [1.0]], [1.0, -0.5])
        with pytest.raises(ScenarioError):
            gauss_hermite_measure(0)


class TestBuildScenario:
    def test_classical_is_scalar(self):
        scen = build_scenario(GRID, measure=dirac_measure(0.0), A=0.0, B=0.0,
                              C=1.0, D=0.0, sigma=1.0, gamma=1.0)
        assert scen.scalar_mode
        assert (scen.n, scen.m, scen.d) == (1, 1, 1)

    def test_indefinite_noise_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario(GRID, measure=dirac_measure([0.0, 0.0]),
                           Q=np.array([[1.0, 2.0], [2.0, 1.0]]),
                           Q0=np.eye(2), sigma=lambda u, t: np.eye(2),
                           gamma=lambda u, t: np.eye(2),
                           A=lambda t: np.zeros((2, 2)),
                           C=lambda t: np.eye(2), Sigma=lambda t: np.eye(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario(GRID, measure=dirac_measure([0.0, 0.0]),
                           C=lambda t: np.ones((1, 3)), m=1,
                           Q=np.eye(2), Q0=np.eye(2),
                           sigma=lambda u, t: np.eye(2),
                           gamma=lambda u, t: np.ones((1, 2)),
                           A=lambda t: np.zeros((2, 2)),
                           Sigma=lambda t: np.eye(2))

    def test_default_loadings_are_identity(self):
        # a scalar loading on a square shape is that multiple of I, as for
        # the time coefficients, not the rank-one matrix of that value
        scen = build_scenario(GRID, measure=dirac_measure([0.0, 0.0]),
                              Q=np.eye(2), Q0=np.eye(2))
        assert (scen.n, scen.m, scen.d) == (2, 2, 2)
        for loading in (scen.sigma, scen.gamma):
            assert loading.shape == (1, GRID.n_nodes, 2, 2)
            np.testing.assert_array_equal(loading, np.broadcast_to(np.eye(2), loading.shape))

    def test_nan_coefficient_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario(GRID, measure=dirac_measure(0.0),
                           A=lambda t: np.nan, sigma=1.0, gamma=1.0)

    def test_non_spd_cost_weight_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario(GRID, measure=dirac_measure(0.0), Sigma=-1.0)

    @pytest.mark.parametrize("late", [-1.0, np.array([[1.0, 0.5], [0.0, 1.0]])],
                             ids=["negative", "asymmetric"])
    def test_cost_weight_error_names_first_failing_node(self, late):
        # the weight fails from t = 0.52 on (node 26 of 50)
        with pytest.raises(ScenarioError, match=r"^Sigma\(t=0\.52\) must be"):
            build_scenario(GRID, measure=dirac_measure([0.0, 0.0]),
                           Sigma=lambda t: np.eye(2) if t <= 0.5 else late,
                           sigma=lambda u, t: np.eye(2), gamma=lambda u, t: np.eye(2),
                           Q=np.eye(2), Q0=np.eye(2))

    def test_stacked_samples_equal_node_by_node(self):
        # reference: each value read on its own, as in _as_matrix
        def per_node(fn, points, rows, cols):
            return np.array([_as_matrix(fn(*p), rows, cols) for p in points])

        mixed = lambda t: -0.5 if t > 0.5 else np.array([[1.0, 0.5], [0.0, 1.0]])  # noqa: E731
        loadings = {"sigma": lambda u, t: u[0] * t, "gamma": lambda u, t: t - 0.5}
        scen = build_scenario(
            GRID, measure=discrete_measure([[-1.0, 0.5], [1.0, -0.5]], [0.4, 0.6]),
            A=lambda t: -t, B=mixed, C=lambda t: 2.0 - t, Sigma=lambda t: 1.0 + t, m=3,
            D=lambda t: np.full((3, 2), t), **loadings, Q=np.eye(2), Q0=np.eye(2))
        times = [(t,) for t in GRID.nodes]
        for name, fn, rows, cols in (("A", lambda t: -t, 2, 2), ("B", mixed, 2, 2),
                                     ("C", lambda t: 2.0 - t, 3, 2),
                                     ("D", lambda t: np.full((3, 2), t), 3, 2)):
            expected = per_node(fn, times, rows, cols)
            assert np.array_equal(getattr(scen, name), expected), name
            assert np.array_equal(np.signbit(getattr(scen, name)), np.signbit(expected)), name
        for name, rows in (("sigma", 2), ("gamma", 3)):
            points = [(u, t) for u in scen.measure.points for t in GRID.nodes]
            expected = per_node(loadings[name], points, rows, 2).reshape(2, -1, rows, 2)
            assert np.array_equal(getattr(scen, name), expected), name
        gain = GainSchedule.from_callable(GRID, mixed, 2, 2)
        assert np.array_equal(gain.values, per_node(mixed, times, 2, 2))

    def test_misshapen_value_named_by_node(self):
        with pytest.raises(ScenarioError, match=r"^C\(0\.5\) has shape \(1, 2\)"):
            build_scenario(GRID, measure=dirac_measure([0.0, 0.0]), Q=np.eye(2), Q0=np.eye(2),
                           C=lambda t: np.eye(2) if t < 0.5 else np.ones((1, 2)))
        with pytest.raises(ScenarioError, match=r"^sigma\(u=\[1\. 2\.\], t=0\.0\) has shape"):
            build_scenario(GRID, measure=dirac_measure([1.0, 2.0]), Q=np.eye(2), Q0=np.eye(2),
                           sigma=lambda u, t: u)
        with pytest.raises(ScenarioError, match=r"^gain\(0\.0\) has shape \(1,\)"):
            GainSchedule.from_callable(GRID, lambda t: np.array([t]))


class TestMeasureAverages:
    def test_normal_flow_bars(self):
        scen = build_scenario(GRID, measure=gauss_hermite_measure(11),
                              sigma=lambda u, t: u, gamma=lambda u, t: u)
        bars = measure_averages(scen)
        assert np.max(np.abs(bars.flat("sigma_bar"))) < 1e-12
        assert np.max(np.abs(bars.flat("gamma_bar"))) < 1e-12
        np.testing.assert_allclose(bars.flat("sigma2_bar"), 1.0, atol=1e-12)
        np.testing.assert_allclose(bars.flat("gamma2_bar"), 1.0, atol=1e-12)

    def test_dirac_average_is_loading(self):
        scen = build_scenario(GRID, measure=dirac_measure(3.0),
                              sigma=lambda u, t: 1.0 + t, gamma=1.0)
        bars = measure_averages(scen)
        np.testing.assert_allclose(bars.flat("sigma_bar"), 1.0 + GRID.nodes)

    def test_two_atom_average(self):
        scen = build_scenario(GRID, measure=discrete_measure([[-1.0], [1.0]], [0.5, 0.5]),
                              sigma=lambda u, t: u, gamma=1.0)
        bars = measure_averages(scen)
        np.testing.assert_allclose(bars.flat("sigma_bar"), 0.0, atol=1e-15)
        np.testing.assert_allclose(bars.flat("sigma2_bar"), 1.0, atol=1e-15)

    def test_scaling_linearity(self):
        base = build_scenario(GRID, measure=gauss_hermite_measure(7),
                              sigma=lambda u, t: u + 0.3, gamma=1.0)
        doubled = build_scenario(GRID, measure=gauss_hermite_measure(7),
                                 sigma=lambda u, t: 2.0 * (u + 0.3), gamma=1.0)
        b1, b2 = measure_averages(base), measure_averages(doubled)
        np.testing.assert_allclose(b2.flat("sigma_bar"), 2.0 * b1.flat("sigma_bar"))
        np.testing.assert_allclose(b2.flat("sigma2_bar"), 4.0 * b1.flat("sigma2_bar"))

    def test_psd_of_averaged_squares(self):
        scen = build_scenario(GRID, measure=gauss_hermite_measure(5),
                              sigma=lambda u, t: u * (1 + t), gamma=lambda u, t: u - 0.2)
        bars = measure_averages(scen)
        assert np.all(bars.sigma2_bar >= -1e-14)
        assert np.all(bars.gamma2_bar >= -1e-14)
