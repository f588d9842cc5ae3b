import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    ScenarioError,
    build_scenario,
    dirac_measure,
    covariance_profile,
    cumulative_trapezoid,
    kernel_bundle,
    make_grid,
    measure_averages,
)
from mfkalman.arbitration import (
    f_direction,
    f_direction_transcribed,
    phi_direction,
    psi_direction,
)
from mfkalman.kernels import FRAME_SPAN, _running_integral
from mfkalman.scenarios import random_smooth_scenario

from conftest import scalar_scenario


def zero_gain(scen):
    return GainSchedule.constant(scen.grid, 0.0, scen.n, scen.m)


def _defining_quadrature_error(bundle):
    """Largest gap between f and the trapezoid of its defining integral,
    at the cell pairs (t, s) = (1, 0), (3/4, 1/4), (1/2, 0) of a unit
    horizon; scalar or matrix entries."""
    n, d = bundle.M.shape[:2]
    psi, phi, f = (k.values.reshape(n, n, d, d) for k in (bundle.psi, bundle.phi, bundle.f))
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
        diag = bundle.phi.diagonal()
        np.testing.assert_allclose(diag, 1.0, atol=0)

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
        np.testing.assert_allclose(bundle.f.diagonal(), 0.0, atol=0)

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
    def test_scalar_triangles_built_on_first_access(self, rough_pack):
        scen, _, gain, _ = rough_pack
        bundle = kernel_bundle(scen, gain)
        assert bundle.triangles == {}
        psi = bundle.psi
        assert bundle.psi is psi
        assert set(bundle.triangles) == {"psi"}
        np.testing.assert_array_equal(psi.values, bundle.tables.psi_triangle())
        np.testing.assert_array_equal(bundle.phi.values, bundle.tables.phi_triangle())
        np.testing.assert_array_equal(bundle.f.values, bundle.phi.values - psi.values)
        assert set(bundle.triangles) == {"phi", "psi", "f"}


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
        tb = rough_pack[3].tables
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
        bundle2 = kernel_bundle(scen2, gain2)
        for k in range(2):
            gain1 = GainSchedule.constant(grid, gvals[k])
            b1 = kernel_bundle(scalars[k], gain1)
            np.testing.assert_allclose(bundle2.psi.values[:, :, k, k],
                                       b1.psi.values, atol=1e-8)
            np.testing.assert_allclose(bundle2.phi.values[:, :, k, k],
                                       b1.phi.values, atol=1e-8)
            np.testing.assert_allclose(bundle2.f.values[:, :, k, k],
                                       b1.f.values, atol=1e-8)
            # off-diagonal blocks stay zero
            np.testing.assert_allclose(bundle2.psi.values[:, :, k, 1 - k], 0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(bundle2.f.values[:, :, k, 1 - k], 0.0,
                                       atol=1e-12)

    def test_rk4_matches_exponential(self, pair):
        grid, scen2, _, _ = pair
        gain2 = GainSchedule.constant(grid, np.zeros((2, 2)), 2, 2)
        psi = kernel_bundle(scen2, gain2).psi
        # component 0 has constant generator a0 = -0.4
        expected = np.exp(-0.4 * (grid.nodes[:, None] - grid.nodes[None, :]))
        tri = np.tril_indices(grid.n_nodes)
        np.testing.assert_allclose(psi.values[:, :, 0, 0][tri], expected[tri],
                                   atol=1e-10)

    def test_scalar_valued_coefficient_is_a_multiple_of_identity(self):
        """A callable returning a scalar is read as that multiple of the
        identity at the nodes and at the RK4 stage times alike."""
        grid = make_grid(1.0, 40)
        results = []
        for A in (lambda t: -0.4, lambda t: -0.4 * np.eye(2)):
            scen = build_scenario(grid, measure=dirac_measure([0.0, 0.0]), A=A,
                                  C=lambda t: np.eye(2), sigma=lambda u, t: np.eye(2),
                                  gamma=lambda u, t: np.eye(2), Q=np.eye(2), Q0=np.eye(2),
                                  Sigma=lambda t: np.eye(2))
            bundle = kernel_bundle(scen, GainSchedule.constant(grid, 0.0, 2, 2))
            results.append([bundle.phi.values, bundle.psi.values, bundle.f.values,
                             covariance_profile(scen, bundle, measure_averages(scen), 0)])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(results[0][1][40, 0], np.exp(-0.4) * np.eye(2), atol=1e-9)

    def test_matrix_f_is_phi_minus_psi(self):
        """Non-diagonal coupled 2x2 system: f is phi - psi, and the
        trapezoid of its defining integral converges to it at O(dt^2)."""
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
            f = bundle.f.values
            np.testing.assert_array_equal(f, bundle.phi.values - bundle.psi.values)
            assert np.max(np.abs(bundle.f.values[:, :, 0, 1])) > 1e-2  # coupled
            err[steps] = _defining_quadrature_error(bundle)
        assert err[80] <= 1e-4
        assert err[40] / err[80] >= 3.0


class TestDerivativeKernels:
    """The adopted kernel derivatives of :mod:`mfkalman.arbitration`."""

    def test_constant_case(self):
        scen = scalar_scenario(steps=50)  # C = 1, zero gain: H = 0, psi = 1
        bundle = kernel_bundle(scen, zero_gain(scen))
        beta = np.ones(scen.grid.n_nodes)
        for (i, j) in [(50, 0), (40, 10), (20, 20)]:
            # the density -C psi = -1 over [t_j, t_i]
            assert psi_direction(bundle, i, j, beta) == pytest.approx(
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
                fd_psi = (up.psi.values[i, j] - dn.psi.values[i, j]) / (2 * eps)
                fd_phi = (up.phi.values[i, j] - dn.phi.values[i, j]) / (2 * eps)
                fd_f = (up.f.values[i, j] - dn.f.values[i, j]) / (2 * eps)
                assert psi_direction(bundle, i, j, beta) == pytest.approx(fd_psi, abs=1e-4)
                assert phi_direction(bundle, i, j, beta) == pytest.approx(fd_phi, abs=1e-4)
                assert f_direction(bundle, i, j, beta) == pytest.approx(
                    fd_f, abs=1e-4 * (1 + abs(fd_f)))

    @pytest.mark.parametrize("method", ["psi_direction", "phi_direction", "f_direction"])
    @pytest.mark.parametrize("i, j", [(10, 20), (-1, 0), (5, -1), (201, 0)])
    def test_direction_rejects_indices_off_the_triangle(self, rough_pack, method, i, j):
        scen, _, _, bundle = rough_pack  # N = 200
        beta = np.ones(scen.grid.n_nodes)
        direction = {"psi_direction": psi_direction, "phi_direction": phi_direction,
                     "f_direction": f_direction}[method]
        with pytest.raises(ScenarioError):
            direction(bundle, i, j, beta)

    def test_zero_when_no_coupling(self, classical_pack):
        scen, _, bundle = classical_pack  # M = 0 and D = 0
        beta = 0.7 - 0.5 * np.sin(3 * scen.grid.nodes)
        for (i, j) in [(100, 0), (80, 20)]:
            assert f_direction(bundle, i, j, beta) == 0.0

    def test_f_direction_is_phi_minus_psi_direction(self, rough_pack):
        scen, _, _, bundle = rough_pack
        beta = 0.7 - 0.5 * np.sin(3 * scen.grid.nodes)
        for (i, j) in [(scen.grid.n_steps, 0), (150, 40), (60, 60)]:
            assert f_direction(bundle, i, j, beta) == (phi_direction(bundle, i, j, beta)
                                                       - psi_direction(bundle, i, j, beta))

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
        for direction in (phi_direction, psi_direction, f_direction, f_direction_transcribed):
            with pytest.raises(ScenarioError):
                direction(bundle, 10, 0, beta)


class TestGainSchedule:
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
