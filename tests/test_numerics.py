import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkalman import (
    GainSchedule,
    ScenarioError,
    SimulationError,
    covariance_profile,
    drift_profile,
    gauss_hermite_measure,
    kernel_bundle,
    measure_averages,
    optimize_gain,
)
from mfkalman.numerics import (
    GridError,
    TriangularKernel,
    cumulative_trapezoid,
    make_grid,
    trapezoid,
)
from mfkalman.scenarios import cross_pairing_probe
from mfkalman.validation import ValidationSuite


class TestMakeGrid:
    def test_basic_nodes(self):
        grid = make_grid(1.0, 4)
        np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.n_nodes == 5

    def test_fine_grid(self):
        grid = make_grid(2.0, 200)
        assert grid.n_nodes == 201
        assert grid.dt == pytest.approx(0.01, abs=1e-15)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 2.0

    def test_monotone_nodes(self):
        grid = make_grid(3.7, 123)
        assert np.all(np.diff(grid.nodes) > 0)

    @pytest.mark.parametrize("T,N", [(1.0, 1), (1.0, 0), (0.0, 10), (-2.0, 10)])
    def test_rejects_bad_arguments(self, T, N):
        with pytest.raises(GridError):
            make_grid(T, N)

    @pytest.mark.parametrize("T,N", [(5e-324, 2), (1e-320, 10)])
    def test_rejects_a_step_below_the_smallest_normal_float(self, T, N):
        # 5e-324 / 2 is 0; 1e-320 / 10 is subnormal and node 1 is not dt
        with pytest.raises(GridError, match=rf"^horizon {T!r} over {N} steps gives a step"):
            make_grid(T, N)

    def test_smallest_normal_step_is_kept(self):
        tiny = np.finfo(float).tiny
        grid = make_grid(2 * tiny, 2)
        assert grid.dt == tiny
        assert grid.nodes.tolist() == [0.0, tiny, 2 * tiny]
        assert grid.index_of(tiny) == 1

    def test_index_of(self):
        grid = make_grid(1.0, 100)
        assert grid.index_of(0.25) == 25
        with pytest.raises(GridError):
            grid.index_of(0.2501)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_index_of_non_finite_is_grid_error(self, t):
        # round(inf) raised OverflowError and round(nan) an unnamed ValueError
        with pytest.raises(GridError, match="is not a node of the grid"):
            make_grid(1.0, 100).index_of(t)


class TestTrapezoid:
    def test_exact_on_affine(self):
        grid = make_grid(1.0, 100)
        value = trapezoid(grid.nodes, grid.dt)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_exponential(self):
        grid = make_grid(1.0, 100)
        value = trapezoid(np.exp(grid.nodes), grid.dt)
        assert value == pytest.approx(np.e - 1.0, abs=2e-5)

    def test_empty_interval(self):
        assert trapezoid(np.array([3.0]), 0.1) == 0.0

    def test_refinement_convergence(self):
        errs = {}
        for n in (100, 200):
            grid = make_grid(1.0, n)
            errs[n] = abs(trapezoid(np.exp(grid.nodes), grid.dt) - (np.e - 1.0))
        assert 3.5 <= errs[100] / errs[200] <= 4.5

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(-5, 5), beta=st.floats(-5, 5), seed=st.integers(0, 2**16))
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(33)
        g = rng.standard_normal(33)
        dt = 0.03125
        combined = trapezoid(alpha * f + beta * g, dt)
        split = alpha * trapezoid(f, dt) + beta * trapezoid(g, dt)
        assert combined == pytest.approx(split, abs=1e-12)

    def test_cumulative_matches_full(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(50)
        cum = cumulative_trapezoid(vals, 0.1)
        assert cum[0] == 0.0
        assert cum[-1] == pytest.approx(trapezoid(vals, 0.1), abs=1e-14)


class TestTriangularKernel:
    def test_lower_triangle_access(self):
        grid = make_grid(1.0, 4)
        vals = np.tril(np.arange(25.0).reshape(5, 5))
        kern = TriangularKernel(grid, vals)
        assert kern.values[3, 1] == vals[3, 1]

    def test_shape_validation(self):
        grid = make_grid(1.0, 4)
        with pytest.raises(GridError):
            TriangularKernel(grid, np.zeros((3, 3)))
        for shape in [(5, 5, 2, 3), (5, 5, 2, 2)]:   # entries are scalars only
            with pytest.raises(GridError):
                TriangularKernel(grid, np.zeros(shape))


def _atom_reader(read):
    """``read(scenario, bundle, bars, atom)`` on the two-atom probe."""
    def call(atom, tmp_path):
        scen = cross_pairing_probe(20)
        return read(scen, kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.5)),
                    measure_averages(scen), atom)
    return call


# one rule for an integer argument: an int or a numpy integer, never a bool
_INTEGER_ARGUMENTS = {
    "make_grid": (lambda n, tmp_path: make_grid(1.0, n), GridError, 4),
    "gauss_hermite_measure": (lambda n, tmp_path: gauss_hermite_measure(n), ScenarioError, 3),
    "optimize_gain": (lambda n, tmp_path: optimize_gain(cross_pairing_probe(20), max_iter=n),
                      ScenarioError, 1),
    "covariance_profile": (_atom_reader(covariance_profile), ScenarioError, 1),
    "drift_profile": (_atom_reader(drift_profile), ScenarioError, 1),
    "ValidationSuite": (lambda n, tmp_path: ValidationSuite(tmp_path, seed=n), SimulationError, 1),
}


@pytest.mark.parametrize("value", [True, np.True_, 1.0, 1.5, "1", None])
@pytest.mark.parametrize("site", sorted(_INTEGER_ARGUMENTS))
def test_integer_argument_rejects_non_integers(tmp_path, site, value):
    # a bool or an integral float used to pass for 1 at most of these sites
    call, error, _ = _INTEGER_ARGUMENTS[site]
    with pytest.raises(error):
        call(value, tmp_path)


@pytest.mark.parametrize("site", sorted(_INTEGER_ARGUMENTS))
def test_integer_argument_takes_numpy_integers(tmp_path, site):
    call, _, good = _INTEGER_ARGUMENTS[site]
    call(np.uint8(good), tmp_path)   # raises nothing
