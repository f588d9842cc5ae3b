import re

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    NonFiniteError,
    ScenarioError,
    build_scenario,
    classical_scenario,
    dirac_measure,
    covariance_profile,
    cumulative_trapezoid,
    kernel_bundle,
    make_grid,
    measure_averages,
    simulate_ensemble,
)
from mfkalman.arbitration import f_direction, f_direction_transcribed
from mfkalman.kernels import FRAME_SPAN, ScalarTables, StepPropagators, _running_integral
from mfkalman.scenarios import random_smooth_scenario

from conftest import chain, matrix_transitions, scalar_scenario


def zero_gain(scen):
    return GainSchedule.constant(scen.grid, 0.0, scen.n, scen.m)


def _defining_quadrature_error(bundle):
    """Largest gap between f and the trapezoid of its defining integral,
    at the cell pairs (t, s) = (1, 0), (3/4, 1/4), (1/2, 0) of a unit
    horizon; scalar entries from the bundle's triangles, matrix entries
    from the products of its step maps."""
    n, d = bundle.M.shape[:2]
    kernels = ((bundle.phi.values, bundle.psi.values, bundle.f.values) if d == 1
               else matrix_transitions(bundle))
    phi, psi, f = (k.reshape(n, n, d, d) for k in kernels)
    steps = n - 1
    worst = 0.0
    for i, j in [(steps, 0), (3 * steps // 4, steps // 4), (steps // 2, 0)]:
        rs = np.arange(j, i + 1)
        integrand = np.einsum("rab,rbc,rcd->rad", psi[i, rs], bundle.M[rs], phi[rs, j])
        direct = np.trapezoid(integrand, dx=bundle.grid.dt, axis=0)
        worst = max(worst, float(np.max(np.abs(direct - f[i, j]))))
    return worst


class TestPhi:
    def test_constant_negative_generator(self):
        # A = -1, B = 0, zero gain: generator of phi is -1
        scen = scalar_scenario(steps=200, A=-1.0)
        phi = kernel_bundle(scen, zero_gain(scen)).phi
        assert phi.values[200, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_diagonal_identity(self, rough_pack):
        scen, _, gain, bundle = rough_pack
        np.testing.assert_allclose(np.diagonal(bundle.phi.values), 1.0, atol=0)

    def test_semigroup(self, rough_pack):
        scen, _, _, bundle = rough_pack
        phi = bundle.phi.values
        rng = np.random.default_rng(3)
        for _ in range(200):
            i, k, j = sorted(rng.integers(0, scen.grid.n_nodes, 3))[::-1]
            assert phi[i, k] * phi[k, j] == pytest.approx(phi[i, j], abs=1e-10)


class TestPsi:
    def test_zero_generator(self):
        scen = scalar_scenario(steps=100)  # A = 0
        psi = kernel_bundle(scen, zero_gain(scen)).psi
        np.testing.assert_allclose(psi.values[np.tril_indices(101)], 1.0)

    def test_tanh_gain_closed_form(self):
        scen = scalar_scenario(steps=400)
        gain = GainSchedule.from_callable(scen.grid, np.tanh)
        psi = kernel_bundle(scen, gain).psi
        # generator -tanh integrates to -log cosh
        assert psi.values[400, 0] == pytest.approx(1.0 / np.cosh(1.0), abs=1e-5)

    def test_semigroup(self, rough_pack):
        scen, _, _, bundle = rough_pack
        psi = bundle.psi.values
        rng = np.random.default_rng(4)
        for _ in range(200):
            i, k, j = sorted(rng.integers(0, scen.grid.n_nodes, 3))[::-1]
            assert psi[i, k] * psi[k, j] == pytest.approx(psi[i, j], abs=1e-10)

    def test_ode_residual_second_order(self):
        resid = {}
        for steps in (100, 200):
            scen = random_smooth_scenario(seed=7, steps=steps)
            gain = GainSchedule.from_callable(
                scen.grid, lambda t: 0.3 + 0.2 * np.sin(2 * np.pi * t))
            bundle = kernel_bundle(scen, gain)
            psi = bundle.psi.values
            H = bundle.H.reshape(-1)
            dt = scen.grid.dt
            worst = 0.0
            for i in range(1, steps):
                js = np.arange(0, i)
                diff = (psi[i + 1, js] - psi[i - 1, js]) / (2 * dt) - H[i] * psi[i, js]
                worst = max(worst, float(np.max(np.abs(diff))))
            resid[steps] = worst
        assert resid[200] <= 1e-3
        assert resid[100] / resid[200] > 3.0  # O(dt^2) decay


class TestF:
    def test_zero_mean_coupling(self, classical_pack):
        scen, _, bundle = classical_pack  # B = D = 0 so M = 0
        np.testing.assert_allclose(bundle.f.values, 0.0, atol=1e-15)

    def test_unit_coupling_closed_form(self):
        # A = 0, B = 1, zero gain: psi = 1, phi(r, 0) = e^r
        scen = scalar_scenario(steps=100, B=1.0)
        bundle = kernel_bundle(scen, zero_gain(scen))
        assert bundle.f.values[100, 0] == pytest.approx(np.e - 1.0, abs=2e-5)

    def test_diagonal_zero(self, rough_pack):
        _, _, _, bundle = rough_pack
        np.testing.assert_allclose(np.diagonal(bundle.f.values), 0.0, atol=0)

    def test_f_is_phi_minus_psi(self, rough_pack):
        scen, _, gain, _ = rough_pack
        bundle = kernel_bundle(scen, gain)
        f = bundle.f.values   # built before phi and psi are asked for
        np.testing.assert_array_equal(f, bundle.phi.values - bundle.psi.values)

    def test_defining_quadrature_converges_to_f(self):
        # the trapezoid of int_s^t psi(t, r) M(r) phi(r, s) dr carries an
        # O(dt^2) error; f = phi - psi carries none of its own
        err = {}
        for steps in (100, 200):
            scen = random_smooth_scenario(seed=11, steps=steps)
            gain = GainSchedule.from_callable(
                scen.grid, lambda t: 0.4 + 0.2 * np.cos(2 * np.pi * t))
            bundle = kernel_bundle(scen, gain)
            err[steps] = _defining_quadrature_error(bundle)
        assert err[200] <= 1e-5
        assert err[100] / err[200] >= 3.0

    def test_rate_equation_residual(self):
        scen = random_smooth_scenario(seed=11, steps=200)
        gain = GainSchedule.from_callable(
            scen.grid, lambda t: 0.4 + 0.2 * np.cos(2 * np.pi * t))
        bundle = kernel_bundle(scen, gain)
        F, phi = bundle.f.values, bundle.phi.values
        M = bundle.M.reshape(-1)
        H = bundle.H.reshape(-1)
        dt = scen.grid.dt
        worst = 0.0
        for i in range(1, scen.grid.n_steps):
            js = np.arange(0, i)
            dF = (F[i + 1, js] - F[i - 1, js]) / (2 * dt)
            worst = max(worst, float(np.max(np.abs(dF - M[i] * phi[i, js] - H[i] * F[i, js]))))
        assert worst <= 1e-3


@pytest.fixture(scope="module")
def pair():
    """Block-diagonal 2-d system vs its two scalar components.

    Mean coupling is on (B, D nonzero) so the mixed kernel and the cross
    quadratures are exercised in matrix mode."""
    grid = make_grid(1.0, 80)
    a = (-0.4, 0.3)
    b = (0.5, -0.2)
    c = (1.0, 0.8)
    d = (0.3, 0.1)
    s = (0.9, 1.1)
    scen2 = build_scenario(
        grid, measure=dirac_measure([0.0, 0.0]),
        A=lambda t: np.diag([a[0], a[1] * (1 + 0.5 * t)]),
        B=lambda t: np.diag(b),
        C=lambda t: np.diag(c),
        D=lambda t: np.diag(d),
        sigma=lambda u, t: np.diag(s),
        gamma=lambda u, t: np.eye(2),
        Q=np.eye(2), Q0=np.eye(2), Sigma=lambda t: np.eye(2))
    scalars = []
    for k in range(2):
        scalars.append(build_scenario(
            grid, measure=dirac_measure(0.0),
            A=(lambda t, _k=k: a[_k] * (1 + 0.5 * t) if _k == 1 else a[_k]),
            B=b[k], C=c[k], D=d[k], sigma=s[k], gamma=1.0))
    return grid, scen2, scalars, c


class TestKernelBundle:
    def test_tables_chosen_by_mode(self, rough_pack, pair):
        scen, _, gain, bundle = rough_pack
        assert type(bundle) is ScalarTables
        assert bundle.scenario is scen and bundle.gain is gain
        scen2 = pair[1]
        matrix = kernel_bundle(scen2, GainSchedule.constant(scen2.grid, 0.3, 2, 2))
        assert type(matrix) is StepPropagators and matrix.scenario is scen2
        with pytest.raises(ScenarioError, match="require a scalar scenario"):
            ScalarTables(scen2, matrix.gain)

    def test_scalar_triangles_built_on_first_access(self, rough_pack):
        scen, _, gain, _ = rough_pack
        bundle = kernel_bundle(scen, gain)
        assert not {"phi", "psi", "f"} & set(vars(bundle))
        psi = bundle.psi
        assert bundle.psi is psi
        assert {"phi", "psi", "f"} & set(vars(bundle)) == {"psi"}
        i, j = np.tril_indices(scen.grid.n_nodes)
        np.testing.assert_array_equal(psi.values[i, j], np.exp(bundle.lh[i] - bundle.lh[j]))
        np.testing.assert_array_equal(bundle.phi.values[i, j],
                                      np.exp(bundle.lhm[i] - bundle.lhm[j]))
        np.testing.assert_array_equal(np.triu(bundle.phi.values, 1), 0.0)
        np.testing.assert_array_equal(bundle.f.values, bundle.phi.values - psi.values)
        assert {"phi", "psi", "f"} <= set(vars(bundle))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("unstable", [False, True], ids=["rough", "unstable"])
    def test_entries_cell_is_the_triangle_entry(self, rough_pack, unstable):
        # read from the exponent tables, no triangle built. With A = 20 on
        # [0, 50] exp(int H) leaves float64 range near t = 35: the kernels
        # overflow without a warning, and an entry is NaN where f's is
        if unstable:
            scen = scalar_scenario(grid=make_grid(50.0, 400), A=20.0)
            gain = zero_gain(scen)
        else:
            scen, _, gain, _ = rough_pack
        bundle = kernel_bundle(scen, gain)
        n = scen.grid.n_steps
        cells = [(n, 0), (n, n), (n // 2, n // 4), (n // 3, 0)]
        entries = [bundle.entries(i, j)[2] for i, j in cells]
        assert not {"phi", "psi", "f"} & set(vars(bundle))
        np.testing.assert_array_equal(entries, [bundle.f.values[i, j] for i, j in cells])
        for kernel in (bundle.phi, bundle.psi, bundle.f):
            assert np.all(np.isfinite(kernel.values)) == (not unstable)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("unstable", [False, True], ids=["rough", "unstable"])
    def test_entries_rows_are_the_triangle_rows(self, rough_pack, unstable):
        # every row of all three kernels, and a strided sub-grid, equal the
        # triangles bit for bit (NaN where f's is), read before any is built
        if unstable:
            scen = scalar_scenario(grid=make_grid(50.0, 400), A=20.0)
            gain = zero_gain(scen)
        else:
            scen, _, gain, _ = rough_pack
        bundle = kernel_bundle(scen, gain)
        nodes = np.arange(scen.grid.n_nodes)
        rows = [bundle.entries(i, nodes[: i + 1]) for i in nodes]
        grid = bundle.entries(nodes[::7, None], nodes[None, ::7])
        assert not {"phi", "psi", "f"} & set(vars(bundle))
        for k, kernel in enumerate((bundle.phi, bundle.psi, bundle.f)):
            for i, row in enumerate(rows):
                np.testing.assert_array_equal(row[k], kernel.values[i, : i + 1])
            np.testing.assert_array_equal(grid[k], kernel.values[::7, ::7])


def _frame_starts(E):
    """First nodes of the frames of :func:`_running_integral`: a frame
    ends before the first node where E has moved more than FRAME_SPAN
    from the frame's first node."""
    starts = [0]
    while (far := np.flatnonzero(np.abs(E[starts[-1]:] - E[starts[-1]]) > FRAME_SPAN)).size:
        starts.append(starts[-1] + int(far[0]))
    return starts


class TestFrames:
    def test_short_horizon_is_one_plain_frame(self, rough_pack):
        tb = rough_pack[3]
        y = 1.0 + 0.3 * np.cos(tb.grid.nodes)
        for p, q in [(0, 2), (2, 0), (1, 1)]:
            E = p * tb.lh + q * tb.lhm
            assert _frame_starts(E) == [0]
            np.testing.assert_allclose(
                _running_integral(E, y, tb.grid.dt),
                np.exp(E) * cumulative_trapezoid(y * np.exp(-E), tb.grid.dt), rtol=1e-13)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("powers", [(0, 2), (2, 0), (1, 1), (1, 0), (-2, 0)])
    @pytest.mark.parametrize("mix_shape", ["rising", "dipping"])
    def test_cumulative_across_frames(self, mix_shape, powers, reverse):
        # exponents ranging over about 580: several frames, yet every row
        # below stays inside float64 range, so it can be formed directly
        dt = 0.5
        t = np.arange(601) * dt
        lh = -t + 20.0 * np.sin(t / 15.0)
        if mix_shape == "rising":
            mix = 0.2 * t
        else:   # M changes sign; the integral swings and dips to about -8
            mix = -0.02 * t + 2.0 * np.sin(t / 10.0)
        E = powers[0] * lh + powers[1] * (lh + mix)
        y = 1.0 + 0.3 * np.cos(t / 7.0)
        n = len(t)
        if reverse:
            # int_s^T exp(E(t) - E(s)) y(t) dt is the forward integral on the
            # reversed grid with the exponent negated
            direct = np.array([cumulative_trapezoid(np.exp(E[i:] - E[i]) * y[i:], dt)[-1]
                               for i in range(n)])
            E, y, direct = -E[::-1], y[::-1], direct[::-1]
        else:
            direct = np.array([cumulative_trapezoid(np.exp(E[i] - E[:i + 1]) * y[:i + 1], dt)[-1]
                               for i in range(n)])
        got = _running_integral(E, y, dt)
        starts = _frame_starts(E)
        assert len(starts) >= 3
        for a, b in zip(starts, starts[1:] + [n]):
            np.testing.assert_allclose(got[a:b], direct[a:b], rtol=1e-10,
                                       atol=1e-13 * np.max(np.abs(direct[a:b])))


class TestMatrixMode:
    def test_block_diagonal_transition(self, pair):
        grid, scen2, scalars, c = pair
        gvals = np.array([0.5, 0.2])
        gain2 = GainSchedule.constant(grid, np.diag(gvals), 2, 2)
        phi2, psi2, f2 = matrix_transitions(kernel_bundle(scen2, gain2))
        for k in range(2):
            gain1 = GainSchedule.constant(grid, gvals[k])
            b1 = kernel_bundle(scalars[k], gain1)
            np.testing.assert_allclose(psi2[:, :, k, k], b1.psi.values, atol=1e-8)
            np.testing.assert_allclose(phi2[:, :, k, k], b1.phi.values, atol=1e-8)
            np.testing.assert_allclose(f2[:, :, k, k], b1.f.values, atol=1e-8)
            # off-diagonal blocks stay zero
            np.testing.assert_allclose(psi2[:, :, k, 1 - k], 0.0, atol=1e-12)
            np.testing.assert_allclose(f2[:, :, k, 1 - k], 0.0, atol=1e-12)

    def test_rk4_matches_exponential(self, pair):
        grid, scen2, _, _ = pair
        gain2 = GainSchedule.constant(grid, np.zeros((2, 2)), 2, 2)
        psi = matrix_transitions(kernel_bundle(scen2, gain2))[1]
        # component 0 has constant generator a0 = -0.4
        expected = np.exp(-0.4 * (grid.nodes[:, None] - grid.nodes[None, :]))
        tri = np.tril_indices(grid.n_nodes)
        np.testing.assert_allclose(psi[:, :, 0, 0][tri], expected[tri], atol=1e-10)

    def test_scalar_valued_coefficient_is_a_multiple_of_identity(self):
        """A callable returning a scalar is read as that multiple of the
        identity at every node."""
        grid = make_grid(1.0, 40)
        results = []
        for A in (lambda t: -0.4, lambda t: -0.4 * np.eye(2)):
            scen = build_scenario(grid, measure=dirac_measure([0.0, 0.0]), A=A,
                                  C=lambda t: np.eye(2), sigma=lambda u, t: np.eye(2),
                                  gamma=lambda u, t: np.eye(2), Q=np.eye(2), Q0=np.eye(2),
                                  Sigma=lambda t: np.eye(2))
            bundle = kernel_bundle(scen, GainSchedule.constant(grid, 0.0, 2, 2))
            results.append([bundle.R, covariance_profile(scen, bundle, measure_averages(scen), 0)])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)
        psi = matrix_transitions(bundle)[1]
        np.testing.assert_allclose(psi[40, 0], np.exp(-0.4) * np.eye(2), atol=1e-9)

    def test_matrix_f_is_phi_minus_psi(self):
        """Non-diagonal coupled 2x2 system: the lower-left block of the
        joint transition, the product of the step maps, is phi - psi, and
        the trapezoid of f's defining integral converges to it at O(dt^2)."""
        err = {}
        for steps in (40, 80):
            grid = make_grid(1.0, steps)
            scen = build_scenario(
                grid, measure=dirac_measure([0.0, 0.0]),
                A=lambda t: np.array([[-0.4, 0.3], [0.2, 0.3 * (1 + 0.5 * t)]]),
                B=lambda t: np.array([[0.5, -0.3], [0.1, -0.2]]),
                C=lambda t: np.array([[1.0, 0.2], [0.0, 0.8]]),
                D=lambda t: np.array([[0.3, 0.0], [0.2, 0.1]]),
                sigma=lambda u, t: np.eye(2), gamma=lambda u, t: np.eye(2),
                Q=np.eye(2), Q0=np.eye(2), Sigma=lambda t: np.eye(2))
            gain = GainSchedule.constant(grid, np.array([[0.5, 0.1], [-0.2, 0.2]]), 2, 2)
            bundle = kernel_bundle(scen, gain)
            f = matrix_transitions(bundle)[2]
            np.testing.assert_allclose(chain(bundle.R)[:, :, 2:, :2], f, rtol=0, atol=1e-12)
            assert np.max(np.abs(f[:, :, 0, 1])) > 1e-2  # coupled
            err[steps] = _defining_quadrature_error(bundle)
        assert err[80] <= 1e-4
        assert err[40] / err[80] >= 3.0


class TestDerivativeKernels:
    """The adopted kernel derivatives of :mod:`mfkalman.arbitration`."""

    def test_constant_case(self):
        # C = D = 1, zero gain: H = M = 0, phi = psi = 1
        scen = scalar_scenario(steps=50, D=1.0)
        bundle = kernel_bundle(scen, zero_gain(scen))
        beta = np.ones(scen.grid.n_nodes)
        for (i, j) in [(50, 0), (40, 10), (20, 20)]:
            # the densities -(C + D) phi = -2 and -C psi = -1 over [t_j, t_i]
            assert f_direction(bundle, i, j, beta) == pytest.approx(
                -(scen.grid.nodes[i] - scen.grid.nodes[j]), abs=1e-14)

    def test_argument_validation(self, rough_pack):
        # the printed form checks its indices the same way
        scen, _, _, bundle = rough_pack
        beta = np.ones(scen.grid.n_nodes)
        for (i, j) in [(10, 20), (-1, 0), (201, 0)]:
            with pytest.raises(ScenarioError):
                f_direction_transcribed(bundle, i, j, beta)

    def test_directional_derivatives_match_fd(self, rough_pack):
        scen, _, gain, bundle = rough_pack
        eps = 1e-4
        t = scen.grid.nodes
        rng = np.random.default_rng(21)
        for trial in range(3):
            a, b = rng.uniform(-1, 1, 2)
            beta = a + b * np.sin((trial + 1) * np.pi * t)
            up = kernel_bundle(scen, GainSchedule(scen.grid, gain.scalar + eps * beta))
            dn = kernel_bundle(scen, GainSchedule(scen.grid, gain.scalar - eps * beta))
            for (i, j) in [(scen.grid.n_steps, 0), (150, 40)]:
                fd_f = (up.f.values[i, j] - dn.f.values[i, j]) / (2 * eps)
                assert f_direction(bundle, i, j, beta) == pytest.approx(
                    fd_f, abs=1e-4 * (1 + abs(fd_f)))

    @pytest.mark.parametrize("i, j", [(10, 20), (-1, 0), (5, -1), (201, 0)])
    def test_direction_rejects_indices_off_the_triangle(self, rough_pack, i, j):
        scen, _, _, bundle = rough_pack  # N = 200
        with pytest.raises(ScenarioError):
            f_direction(bundle, i, j, np.ones(scen.grid.n_nodes))

    def test_zero_when_no_coupling(self, classical_pack):
        scen, _, bundle = classical_pack  # M = 0 and D = 0
        beta = 0.7 - 0.5 * np.sin(3 * scen.grid.nodes)
        for (i, j) in [(100, 0), (80, 20)]:
            assert f_direction(bundle, i, j, beta) == 0.0

    def test_gateaux_linearity(self, rough_pack):
        scen, _, gain, bundle = rough_pack
        t = scen.grid.nodes
        b1 = np.sin(np.pi * t)
        b2 = 0.5 - t
        alpha = 1.7
        i, j = 180, 30
        combo = f_direction(bundle, i, j, alpha * b1 + b2)
        split = alpha * f_direction(bundle, i, j, b1) + f_direction(bundle, i, j, b2)
        assert combo == pytest.approx(split, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", [f_direction, f_direction_transcribed],
                             ids=lambda fn: fn.__name__)
    def test_overflow_names_function_and_cell_without_warning(self, direction):
        # on [0, 50] at A = 20 the kernels at (50, 0) are e^1000, beyond float64
        scen = scalar_scenario(grid=make_grid(50.0, 400), A=20.0)
        bundle = kernel_bundle(scen, zero_gain(scen))
        beta = np.ones(scen.grid.n_nodes)
        with pytest.raises(NonFiniteError, match=rf"^{direction.__name__}: non-finite value "
                                                 r"at cell \(400, 0\)$"):
            direction(bundle, 400, 0, beta)
        assert np.isfinite(direction(bundle, 20, 0, beta))

    def test_requires_scalar_mode(self):
        grid = make_grid(1.0, 20)
        scen = build_scenario(grid, measure=dirac_measure([0.0, 0.0]),
                              A=lambda t: np.zeros((2, 2)),
                              C=lambda t: np.eye(2),
                              sigma=lambda u, t: np.eye(2),
                              gamma=lambda u, t: np.eye(2),
                              Q=np.eye(2), Q0=np.eye(2),
                              Sigma=lambda t: np.eye(2))
        gain = GainSchedule.constant(grid, np.zeros((2, 2)), 2, 2)
        bundle = kernel_bundle(scen, gain)
        beta = np.ones(grid.n_nodes)
        for direction in (f_direction, f_direction_transcribed):
            with pytest.raises(ScenarioError):
                direction(bundle, 10, 0, beta)


class TestGainSchedule:
    @pytest.mark.parametrize("shape", [(11, 2), (10, 1, 1), (11, 1, 1, 1)])
    def test_rejects_values_of_wrong_shape(self, shape):
        with pytest.raises(ScenarioError, match=r"gain values must be \(11, n, m\)"):
            GainSchedule(make_grid(1.0, 10), np.zeros(shape))

    def test_scalar_view_needs_one_by_one_gain(self):
        gain = GainSchedule.constant(make_grid(1.0, 10), 0.5, 2, 2)
        with pytest.raises(ScenarioError, match="scalar view requires a 1x1 gain"):
            gain.scalar

    def test_rejects_nonfinite(self):
        grid = make_grid(1.0, 10)
        vals = np.zeros(11)
        vals[3] = np.inf
        with pytest.raises(ScenarioError):
            GainSchedule(grid, vals)

    def test_scalar_callable_equals_constant(self):
        grid = make_grid(1.0, 10)
        for n, m in [(2, 2), (2, 3), (1, 1)]:
            np.testing.assert_array_equal(
                GainSchedule.from_callable(grid, lambda t: 0.5, n, m).values,
                GainSchedule.constant(grid, 0.5, n, m).values)
        np.testing.assert_array_equal(GainSchedule.constant(grid, 0.5, 2, 2).values[3],
                                      0.5 * np.eye(2))

    def test_grid_mismatch_detected(self):
        scen = scalar_scenario(steps=50)
        other = GainSchedule.constant(make_grid(1.0, 49), 0.0)
        with pytest.raises(ScenarioError):
            kernel_bundle(scen, other)

    @pytest.mark.parametrize("consumer", ["kernel_bundle", "simulate_ensemble"])
    @pytest.mark.parametrize("gain_shape, scen_shape", [((1, 2), (1, 1)), ((2, 2), (1, 1)),
                                                        ((1, 1), (2, 2))],
                             ids=["1x2-on-1x1", "2x2-on-1x1", "1x1-on-2x2"])
    def test_shape_mismatch_names_both_shapes(self, pair, consumer, gain_shape, scen_shape):
        # a 1x2 gain used to give H = -(sum of its entries) C silently, and
        # the others failed later with messages that named no shape
        scen = classical_scenario(10) if scen_shape == (1, 1) else pair[1]
        values = 0.1 * np.arange(1, 1 + np.prod(gain_shape)).reshape(gain_shape)
        gain = GainSchedule.constant(scen.grid, values, *gain_shape)
        with pytest.raises(ScenarioError, match=re.escape(
                f"gain entries are {gain_shape}, the scenario needs (n, m) = {scen_shape}")):
            if consumer == "kernel_bundle":
                kernel_bundle(scen, gain)
            else:
                simulate_ensemble(scen, gain, n_paths=4, seed=1)
