import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkalman import (
    GainSchedule,
    InitialMeasure,
    ScenarioError,
    build_scenario,
    dirac_measure,
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
        mu = InitialMeasure([[-1.0], [1.0]], [2.0, 2.0])
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights, normalized", [([1e308, 1e308], [0.5, 0.5]),
                                                     ([1e308, 1.0], [1.0, 1e-308])])
    def test_huge_weights_normalize_without_warning(self, weights, normalized):
        # the first sum overflowed, with a warning, and the weights became
        # zeros; the second is finite and keeps its bits
        mu = InitialMeasure([[0.0], [1.0]], weights)
        np.testing.assert_array_equal(mu.weights, normalized)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("weights", [[np.nan, 0.5], [np.inf, 1.0], [1.0, -np.inf]])
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ScenarioError, match="atom weights must be finite"):
            InitialMeasure(points=[[0.0], [1.0]], weights=weights)

    def test_rejects_more_atoms_than_weights(self):
        with pytest.raises(ScenarioError, match="3 atoms but 2 weights"):
            InitialMeasure([[0.0], [1.0], [2.0]], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ScenarioError, match="atom locations must be finite"):
            InitialMeasure([[0.0], [bad]], [0.5, 0.5])

    @pytest.mark.parametrize("points, shape", [
        # no atom ([] was read as one atom of no component), atoms of no
        # component and an axis too many (both were accepted, as
        # 0-dimensional and as scalar atoms)
        (np.zeros((0, 1)), r"\(0, 1\)"), ([], r"\(0,\)"),
        (np.zeros((2, 0)), r"\(2, 0\)"), (np.zeros((2, 1, 1)), r"\(2, 1, 1\)"),
    ], ids=["no-atom", "empty-list", "no-component", "extra-axis"])
    def test_rejects_misshapen_points(self, points, shape):
        weights = np.ones(len(points))
        with pytest.raises(ScenarioError, match=rf"^points must have shape \(k, n\) with "
                                                rf"k, n >= 1, got {shape}$"):
            InitialMeasure(points, weights)

    def test_rejects_ragged_points(self):
        # numpy's "inhomogeneous shape" message named no argument
        with pytest.raises(ScenarioError, match=r"^points must be a regular array of numbers, "
                                                r"got \[\[0\.0\], \[1\.0, 2\.0\]\]$"):
            InitialMeasure([[0.0], [1.0, 2.0]], [0.5, 0.5])

    @pytest.mark.parametrize("points, shape", [(0.5, (1, 1)), ([0.0, 1.0], (2, 1)),
                                               ([[0.0, 1.0]], (1, 2)),
                                               ([[0.0], [1.0]], (2, 1))],
                             ids=["number", "flat-list", "one-row", "one-column"])
    def test_a_number_or_a_flat_list_is_scalar_atoms(self, points, shape):
        weights = np.ones(shape[0])
        assert InitialMeasure(points, weights).points.shape == shape

    @pytest.mark.parametrize("x0, shape", [([], r"\(0,\)"), ([[0.0, 1.0]], r"\(1, 2\)"),
                                           (np.zeros((1, 1)), r"\(1, 1\)")],
                             ids=["empty", "nested", "matrix"])
    def test_dirac_needs_one_point(self, x0, shape):
        # [] gave a 0-dimensional scenario and [[0.0, 1.0]] points of shape
        # (1, 1, 2), run as a scalar scenario
        with pytest.raises(ScenarioError, match=rf"^x0 must be a number or a non-empty flat "
                                                rf"list, got {shape}$"):
            dirac_measure(x0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ScenarioError):
            InitialMeasure([[0.0], [1.0]], [1.0, -0.5])
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

    @pytest.mark.parametrize("Q, message", [
        (np.ones((2, 3)), r"Q must be square, got \(2, 3\)"),
        (np.array([[1.0, 0.0], [0.0, np.nan]]), "Q has non-finite entries"),
    ])
    def test_bad_state_noise_named(self, Q, message):
        with pytest.raises(ScenarioError, match=message):
            build_scenario(GRID, measure=dirac_measure([0.0, 0.0]), Q=Q)

    def test_observation_noise_of_other_size_rejected(self):
        with pytest.raises(ScenarioError, match=r"must be \(2, 2\); got Q\(2, 2\), Q0\(3, 3\)"):
            build_scenario(GRID, measure=dirac_measure([0.0, 0.0]), Q=np.eye(2), Q0=np.eye(3))

    @pytest.mark.parametrize("name", ["sigma", "gamma"])
    def test_non_finite_atom_loading_rejected(self, name):
        loading = {name: lambda u, t: np.nan if t > 0.5 else 1.0}
        with pytest.raises(ScenarioError,
                           match=f"{name} is not finite at every atom and node"):
            build_scenario(GRID, measure=dirac_measure(0.0), **loading)

    def test_scalar_observation_noise_is_multiple_of_identity(self):
        scen = build_scenario(GRID, measure=dirac_measure([0.0, 0.0]), Q=np.eye(2), Q0=0.5)
        assert scen.d == 2
        np.testing.assert_array_equal(scen.Q0, 0.5 * np.eye(2))

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
            GRID, measure=InitialMeasure([[-1.0, 0.5], [1.0, -0.5]], [0.4, 0.6]),
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
        wide, expected = (GainSchedule.from_callable(GRID, lambda t: -t, 2, 3).values,
                          per_node(lambda t: -t, times, 2, 3))
        assert np.array_equal(wide, expected)
        assert np.array_equal(np.signbit(wide), np.signbit(expected))

        # constants, read once and copied: a scalar is v I on a square shape
        # (so a negative one has -0.0 off the diagonal) and the full matrix
        # of v otherwise; a matrix is taken as it is, loadings included
        constants = {"A": (0.3, 2, 2), "B": (-0.5, 2, 2),
                     "C": (np.arange(6.0).reshape(3, 2), 3, 2), "D": (-0.25, 3, 2),
                     "Sigma": (np.array([[2.0, 0.5], [0.5, 1.0]]), 2, 2)}
        loadings = {"sigma": (-0.7, 2, 2),
                    "gamma": (np.array([[1.0, -0.0], [0.5, 2.0], [-1.0, 0.0]]), 3, 2)}
        scen = build_scenario(
            GRID, measure=InitialMeasure([[-1.0, 0.5], [1.0, -0.5]], [0.4, 0.6]), m=3,
            Q=np.eye(2), Q0=np.eye(2),
            **{name: c[0] for name, c in {**constants, **loadings}.items()})
        for name, (value, rows, cols) in constants.items():
            expected = per_node(lambda t, v=value: v, times, rows, cols)
            assert np.array_equal(getattr(scen, name), expected), name
            assert np.array_equal(np.signbit(getattr(scen, name)), np.signbit(expected)), name
        assert np.signbit(scen.B[:, 0, 1]).all() and np.signbit(scen.B[:, 1, 0]).all()
        for name, (value, rows, cols) in loadings.items():
            points = [(u, t) for u in scen.measure.points for t in GRID.nodes]
            expected = per_node(lambda u, t, v=value: v, points, rows, cols).reshape(2, -1, rows, 2)
            assert np.array_equal(getattr(scen, name), expected), name
            assert np.array_equal(np.signbit(getattr(scen, name)), np.signbit(expected)), name
        classical = build_scenario(GRID, measure=dirac_measure(0.0), A=-1.0, sigma=2, gamma=0.5)
        for name, value in (("A", -1.0), ("C", 1.0), ("sigma", 2.0), ("gamma", 0.5)):
            assert np.array_equal(getattr(classical, name),
                                  np.full(getattr(classical, name).shape, value)), name

    @pytest.mark.parametrize("name, rows", [("A", 2), ("Sigma", 2), ("C", 1), ("sigma", 2),
                                            ("gamma", 1)])
    def test_misshapen_constant_named(self, name, rows):
        with pytest.raises(ScenarioError,
                           match=rf"^{name} has shape \(3, 3\), expected \({rows}, 2\)"):
            build_scenario(GRID, measure=dirac_measure([0.0, 0.0]), m=1, Q=np.eye(2),
                           Q0=np.eye(2), **{name: np.ones((3, 3))})

    def test_callables_called_once_per_point_with_node_types(self):
        calls = {"A": [], "sigma": []}
        build_scenario(GRID, measure=InitialMeasure([[-1.0], [1.0]], [0.5, 0.5]),
                       A=lambda t: calls["A"].append(t) or 0.0,
                       sigma=lambda u, t: calls["sigma"].append((u, t)) or 1.0)
        assert calls["A"] == list(GRID.nodes)
        assert all(type(t) is np.float64 for t in calls["A"])
        assert calls["sigma"] == [(u, t) for u in (-1.0, 1.0) for t in GRID.nodes]
        assert all(type(u) is float and type(t) is np.float64 for u, t in calls["sigma"])
        rows = []
        build_scenario(GRID, measure=dirac_measure([1.0, 2.0]), Q=np.eye(2), Q0=np.eye(2),
                       gamma=lambda u, t: rows.append(u) or np.eye(2))
        assert len(rows) == GRID.n_nodes
        assert all(isinstance(u, np.ndarray) and u.tolist() == [1.0, 2.0] for u in rows)


    def test_misshapen_value_named_by_node(self):
        with pytest.raises(ScenarioError, match=r"^C\(0\.5\) has shape \(1, 2\)"):
            build_scenario(GRID, measure=dirac_measure([0.0, 0.0]), Q=np.eye(2), Q0=np.eye(2),
                           C=lambda t: np.eye(2) if t < 0.5 else np.ones((1, 2)))
        with pytest.raises(ScenarioError, match=r"^sigma\(u=\[1\. 2\.\], t=0\.0\) has shape"):
            build_scenario(GRID, measure=dirac_measure([1.0, 2.0]), Q=np.eye(2), Q0=np.eye(2),
                           sigma=lambda u, t: u)
        with pytest.raises(ScenarioError, match=r"^gain\(0\.0\) has shape \(1,\)"):
            GainSchedule.from_callable(GRID, lambda t: np.array([t]))


class TestBuildMemory:
    """The Python peak of a build at N = 12800 (tracemalloc): no object per
    node for a constant, no argument tuple per point for a callable."""

    GRID = make_grid(1.0, 12800)

    @staticmethod
    def _peak(build):
        tracemalloc.start()
        try:
            scen = build()
            return tracemalloc.get_traced_memory()[1], scen
        finally:
            tracemalloc.stop()

    def test_callable_loadings_stream(self):
        measure = gauss_hermite_measure(11)
        peak, _ = self._peak(lambda: build_scenario(self.GRID, measure=measure,
                                                    sigma=lambda u, t: u, gamma=lambda u, t: u))
        assert peak <= 8 * 2**20, peak

    def test_constants_cost_their_samples(self):
        measure = dirac_measure(0.0)
        peak, scen = self._peak(lambda: build_scenario(self.GRID, measure=measure))
        returned = sum(getattr(scen, name).nbytes
                       for name in ("A", "B", "C", "D", "Sigma", "sigma", "gamma"))
        assert peak <= 1.5 * returned, peak / returned



class TestMeasureAverages:
    def test_normal_flow_bars(self):
        scen = build_scenario(GRID, measure=gauss_hermite_measure(11),
                              sigma=lambda u, t: u, gamma=lambda u, t: u)
        bars = measure_averages(scen)
        assert np.max(np.abs(bars.sigma_bar.ravel())) < 1e-12
        assert np.max(np.abs(bars.gamma_bar.ravel())) < 1e-12
        np.testing.assert_allclose(bars.sigma2_bar.ravel(), 1.0, atol=1e-12)
        np.testing.assert_allclose(bars.gamma2_bar.ravel(), 1.0, atol=1e-12)

    def test_dirac_average_is_loading(self):
        scen = build_scenario(GRID, measure=dirac_measure(3.0),
                              sigma=lambda u, t: 1.0 + t, gamma=1.0)
        bars = measure_averages(scen)
        np.testing.assert_allclose(bars.sigma_bar.ravel(), 1.0 + GRID.nodes)

    def test_two_atom_average(self):
        scen = build_scenario(GRID, measure=InitialMeasure([[-1.0], [1.0]], [0.5, 0.5]),
                              sigma=lambda u, t: u, gamma=1.0)
        bars = measure_averages(scen)
        np.testing.assert_allclose(bars.sigma_bar.ravel(), 0.0, atol=1e-15)
        np.testing.assert_allclose(bars.sigma2_bar.ravel(), 1.0, atol=1e-15)

    def test_scaling_linearity(self):
        base = build_scenario(GRID, measure=gauss_hermite_measure(7),
                              sigma=lambda u, t: u + 0.3, gamma=1.0)
        doubled = build_scenario(GRID, measure=gauss_hermite_measure(7),
                                 sigma=lambda u, t: 2.0 * (u + 0.3), gamma=1.0)
        b1, b2 = measure_averages(base), measure_averages(doubled)
        np.testing.assert_allclose(b2.sigma_bar.ravel(), 2.0 * b1.sigma_bar.ravel())
        np.testing.assert_allclose(b2.sigma2_bar.ravel(), 4.0 * b1.sigma2_bar.ravel())

    def test_psd_of_averaged_squares(self):
        scen = build_scenario(GRID, measure=gauss_hermite_measure(5),
                              sigma=lambda u, t: u * (1 + t), gamma=lambda u, t: u - 0.2)
        bars = measure_averages(scen)
        assert np.all(bars.sigma2_bar >= -1e-14)
        assert np.all(bars.gamma2_bar >= -1e-14)
