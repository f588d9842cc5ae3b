import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mfkalman
from mfkalman import (
    GainSchedule,
    InitialMeasure,
    NonFiniteError,
    ScenarioError,
    build_scenario,
    check_finite,
    classical_scenario,
    cost_gradient,
    covariance_profile,
    cumulative_trapezoid,
    dirac_measure,
    drift_profile,
    fd_cost_slope,
    kernel_bundle,
    make_grid,
    mean_sensitivity_triangle,
    measure_averages,
    normal_flow_scenario,
    optimize_gain,
    riccati_normal_flow,
    trace_cost,
    trapezoid,
)
from mfkalman import covariance
from mfkalman.arbitration import (
    cost_gradient_transcribed,
    covariance_profile_transcribed,
    f_direction,
    f_direction_transcribed,
)
from mfkalman.covariance import _Evaluation, _kernel_coefficients
from mfkalman.kernels import FRAME_SPAN, StepPropagators
from mfkalman.scenarios import cross_pairing_probe, random_smooth_scenario

from conftest import (
    count_running_integrals,
    gradient_from_kernel,
    matrix_transitions,
    per_atom_cost,
    rebuilt,
    row_sensitivity_triangle,
    row_weights,
    scalar_scenario,
    two_atom_matrix_scenario,
)


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


def _ou_scenario(A, steps, horizon=200.0, **coeffs):
    """Scalar Ornstein-Uhlenbeck signal, unit noises, on a long horizon;
    ``coeffs`` adds mean coupling (B, D)."""
    return scalar_scenario(grid=make_grid(horizon, steps), A=A, **coeffs)


def _quadrature_cost(scen, gain):
    """trace_cost from the defining row quadratures of the averaged
    profile, f^2 wbar + psi^2 w2 + 2 psi f wbar with f = phi - psi, and
    psi and phi exponentials of masked exponent differences: no running
    exponential is formed, so nothing overflows. O(N^2)."""
    bars = measure_averages(scen)
    tb = kernel_bundle(scen, gain)
    w = _Evaluation(tb, bars)
    n, dt = scen.grid.n_nodes, scen.grid.dt
    low = np.tri(n, dtype=bool)
    psi = np.exp(np.where(low, tb.lh[:, None] - tb.lh[None, :], -np.inf))
    phi = np.exp(np.where(low, tb.lhm[:, None] - tb.lhm[None, :], -np.inf))
    f = phi - psi
    rows = (f**2 + 2 * psi * f) * w.wbar + psi**2 * w.w2
    kbar = [trapezoid(rows[i, :i + 1], dt) for i in range(n)]
    return float(trapezoid(scen.Sigma.ravel() * np.array(kbar), dt))


def _exact_factored(mp, scen, gain):
    """Cost and gradient of the two-sum formulas (the mean and deviation
    variances and their reverse-sum costates), evaluated in ``mpmath`` at
    its working precision from the same float drifts and weights: the
    float evaluation must match it however far the exponentials range."""
    bars = measure_averages(scen)
    tb = kernel_bundle(scen, gain)
    w = _Evaluation(tb, bars)
    dt = mp.mpf(scen.grid.dt)
    n = scen.grid.n_nodes

    def arr(a):
        return [mp.mpf(float(v)) for v in np.broadcast_to(a, (n,))]

    def run(vals, reverse=False):
        out = [mp.mpf(0)] * n
        steps = range(n - 2, -1, -1) if reverse else range(1, n)
        for k in steps:
            prev = k + 1 if reverse else k - 1
            out[k] = out[prev] + (vals[k] + vals[prev]) / 2 * dt
        return out

    H, M, C, D, G = arr(tb.H[:, 0, 0]), arr(tb.M[:, 0, 0]), arr(tb.C), arr(tb.D), arr(gain.scalar)
    wbar, w2, gbar, g2q0, sig = (arr(w.wbar), arr(w.w2), arr(w.gbar), arr(w.g2q0),
                                 arr(scen.Sigma.ravel()))
    q0 = mp.mpf(w.q0)
    epsi2 = [mp.exp(2 * v) for v in run(H)]
    ephi2 = [mp.exp(2 * v) for v in run([h + m for h, m in zip(H, M)])]
    mean = [e * v for e, v in zip(ephi2, run([wbar[k] / ephi2[k] for k in range(n)]))]
    dev = [e * v for e, v in zip(epsi2, run([(w2[k] - wbar[k]) / epsi2[k] for k in range(n)]))]
    cost = sum((sig[k] * (mean[k] + dev[k]) + sig[k + 1] * (mean[k + 1] + dev[k + 1])) / 2 * dt
               for k in range(n - 1))
    lam_mean = [v / e for e, v in zip(ephi2, run([sig[k] * ephi2[k] for k in range(n)], True))]
    lam_dev = [v / e for e, v in zip(epsi2, run([sig[k] * epsi2[k] for k in range(n)], True))]
    g = np.zeros(n)
    for k in range(n - 1):
        gq = q0 * gbar[k]**2
        g[k] = float(2 * ((-(C[k] + D[k]) * mean[k] + G[k] * gq) * lam_mean[k]
                          + (-C[k] * dev[k] + G[k] * (g2q0[k] - gq)) * lam_dev[k]))
    return float(cost), g


def _oracle_gap(scen, gain):
    """sup |factored gradient - row-quadrature triangle oracle| / sup |oracle|."""
    bars = measure_averages(scen)
    bundle = kernel_bundle(scen, gain)
    g = cost_gradient(scen, bundle, bars).values
    oracle = gradient_from_kernel(scen, row_sensitivity_triangle(scen, bundle, bars)).values
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(oracle))
    return float(np.max(np.abs(g - oracle)) / np.max(np.abs(oracle)))


def _step_triangles(scen, gain):
    """phi and psi as column products of per-step exponentials: across
    each step the generator is frozen at its trapezoid average, whose
    exponential ``mpmath.expm`` gives independently of the package's own
    matrix exponential. O(N^2) products."""
    mp = pytest.importorskip("mpmath")
    grid, G = scen.grid, gain.values
    nn = grid.n_nodes
    out = []
    for gen in ((scen.A + scen.B) - G @ (scen.C + scen.D), scen.A - G @ scen.C):
        steps = [np.array(mp.expm(mp.matrix((0.5 * grid.dt * (gen[i] + gen[i + 1])).tolist()))
                          .tolist(), dtype=float) for i in range(nn - 1)]
        tri = np.zeros((nn, nn, 2, 2))
        for s in range(nn):
            val = tri[s, s] = np.eye(2)
            for i in range(s, nn - 1):
                val = tri[i + 1, s] = steps[i] @ val
        out.append(tri)
    return out


def _cellwise(scen, bars, gain, atom):
    """K and the drift of one atom at every node: the trapezoid over
    [0, t] of the defining integrands on the step-product triangles, node
    by node. Also returns the triangles phi, psi and f = phi - psi."""
    phi, psi = _step_triangles(scen, gain)
    f = phi - psi
    G, dt, Q, Q0 = gain.values, scen.grid.dt, scen.Q, scen.Q0
    H = scen.A - G @ scen.C
    M = scen.B - G @ scen.D
    sb, Gb = bars.sigma_bar, G @ bars.gamma_bar
    su, Gu = scen.sigma[atom], G @ scen.gamma[atom]

    def pair(x, w, y):
        return np.einsum("jad,de,jbe->jab", x, w, y)

    m_bar = pair(sb, Q, sb) + pair(Gb, Q0, Gb)
    m_atom = pair(su, Q, su) + pair(Gu, Q0, Gu)
    X = pair(su, Q, sb) + pair(Gu, Q0, Gb)
    K, drift = np.zeros_like(m_bar), np.zeros_like(m_bar)
    for i in range(1, scen.grid.n_nodes):
        r = slice(0, i + 1)
        F, P, Phi = f[i, r], psi[i, r], phi[i, r]
        cross = P @ X[r] @ F.transpose(0, 2, 1)
        k = trapezoid(F @ m_bar[r] @ F.transpose(0, 2, 1) + P @ m_atom[r] @ P.transpose(0, 2, 1)
                      + cross + cross.transpose(0, 2, 1), dt)
        K[i] = 0.5 * (k + k.T)
        rate = M[i] @ Phi + H[i] @ F     # d/dt f(t, s)
        HP = H[i] @ P                    # d/dt psi(t, s)
        drift[i] = 0.5 * m_atom[i] + trapezoid(
            rate @ m_bar[r] @ F.transpose(0, 2, 1) + HP @ m_atom[r] @ P.transpose(0, 2, 1)
            + HP @ X[r] @ F.transpose(0, 2, 1) + P @ X[r] @ rate.transpose(0, 2, 1), dt)
    return K, drift, (phi, psi, f)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.fixture(scope="module")
def matrix_pack():
    return _coupled_matrix_scenario(steps=20)


class TestErrorCovariance:
    def test_zero_at_start(self, classical_pack):
        scen, bars, bundle = classical_pack
        K0 = covariance_profile(scen, bundle, bars, 0)[0]
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

    @pytest.mark.parametrize("atom", [1, -1, 0.0, np.array([0.0])])
    def test_atom_must_be_index_in_range(self, classical_pack, atom):
        scen, bars, bundle = classical_pack
        with pytest.raises(ScenarioError, match="out of range: the measure has 1 atoms"):
            covariance_profile(scen, bundle, bars, atom)

    def test_matrix_mode_block_diagonal(self):
        # mean coupling on, so the mixed kernel and cross quadratures are live
        scen2, bars2, bundle2 = _coupled_matrix_scenario(steps=80)
        grid = scen2.grid
        K2 = covariance_profile(scen2, bundle2, bars2, 0)[80]
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

    @pytest.mark.parametrize("build", [normal_flow_scenario, cross_pairing_probe])
    def test_atom_profiles_average_to_mean_plus_deviation(self, build):
        scen = build(steps=200)
        gain = GainSchedule.from_callable(scen.grid, lambda t: 0.4 + 0.2 * np.cos(2 * np.pi * t))
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        kbar = _Evaluation(bundle, bars).kbar
        atoms = sum(wa * covariance_profile(scen, bundle, bars, a)
                    for a, wa in enumerate(scen.measure.weights))
        np.testing.assert_allclose(atoms, kbar, rtol=0, atol=1e-13 * np.max(np.abs(kbar)))

    def test_field_shapes(self, rough_pack, matrix_pack):
        # one profile per atom: (N+1,) in scalar mode, (N+1, n, n) in matrix mode
        scalar = rough_pack[0], rough_pack[1], rough_pack[3]
        for (scen, bars, bundle), shape in [(scalar, ()), (matrix_pack, (2, 2))]:
            for atom in range(scen.n_atoms):
                prof = covariance_profile(scen, bundle, bars, atom)
                assert prof.shape == (scen.grid.n_nodes,) + shape
                np.testing.assert_allclose(prof[0], 0.0, atol=0)


class TestCovarianceDrift:
    def test_zero_at_start(self, classical_pack):
        scen, bars, bundle = classical_pack
        np.testing.assert_allclose(drift_profile(scen, bundle, bars, 0)[0], 0.0)

    def test_classical_half(self, classical_pack):
        scen, bars, bundle = classical_pack
        K1 = drift_profile(scen, bundle, bars, 0)[50]
        assert K1 == pytest.approx(0.5, abs=1e-14)

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
        K1m = drift_profile(scen2, bundle2, bars2, 0)[60]
        scen1 = scalar_scenario(grid=grid, A=-0.4, B=0.5, D=0.3, sigma=0.9)
        b1 = kernel_bundle(scen1, GainSchedule.constant(grid, 0.5))
        K1s = drift_profile(scen1, b1, measure_averages(scen1), 0)
        assert K1m[0, 0] == pytest.approx(K1s[-1], abs=1e-7)


def _kernel_row(tb, w, i, w_mid, x, g_point, g_cross):
    """Row i of the sensitivity kernel from the kernel rows of node i alone
    (the reference for the triangle's row-wise quadratures): with
    f = phi - psi,

        k2 / 2 = -C int (f^2 wbar + psi^2 w_mid + 2 psi f x)
                 - D int (phi f wbar + phi psi x)
                 + G (q0 gbar^2 f^2 + g_point psi^2 + 2 q0 g_cross psi f)."""
    sl = slice(0, i + 1)
    psi, phi = tb.psi.values[i, sl], tb.phi.values[i, sl]
    f, wbar, x = phi - psi, w.wbar[sl], x[sl]
    c_term = cumulative_trapezoid(f**2 * wbar + psi**2 * w_mid[sl] + 2 * psi * f * x, tb.grid.dt)
    d_term = cumulative_trapezoid(phi * f * wbar + phi * psi * x, tb.grid.dt)
    boundary = w.G[sl] * (w.q0 * w.gbar[sl]**2 * f**2 + g_point[sl] * psi**2
                          + 2 * w.q0 * g_cross[sl] * psi * f)
    return 2.0 * (-tb.C[sl] * c_term - tb.D[sl] * d_term + boundary)


class TestSensitivityKernel:
    def test_zero_gain_closed_form(self, classical_pack):
        scen, bars, bundle = classical_pack
        row = row_sensitivity_triangle(scen, bundle, bars, 0)[75, :76]
        np.testing.assert_allclose(row, -2.0 * scen.grid.nodes[:76], atol=1e-13)

    def test_no_diffusion_gives_zero(self):
        scen = scalar_scenario(steps=50, sigma=0.0, gamma=0.0)
        gain = GainSchedule.constant(scen.grid, 0.4)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        tri = mean_sensitivity_triangle(scen, bundle, bars)
        np.testing.assert_allclose(tri, 0.0, atol=1e-15)

    def test_matches_fd_of_covariance(self, rough_pack):
        scen, bars, gain, bundle = rough_pack
        eps = 1e-4
        beta = 0.7 - 0.5 * np.sin(3 * scen.grid.nodes)
        up = kernel_bundle(scen, GainSchedule(scen.grid, gain.scalar + eps * beta))
        dn = kernel_bundle(scen, GainSchedule(scen.grid, gain.scalar - eps * beta))
        dt = scen.grid.dt
        for atom in range(2):
            Kp = covariance_profile(scen, up, bars, atom)
            Km = covariance_profile(scen, dn, bars, atom)
            tri = row_sensitivity_triangle(scen, bundle, bars, atom)
            for i in (scen.grid.n_steps, scen.grid.n_steps // 2):
                fd = (Kp[i] - Km[i]) / (2 * eps)
                quad = np.trapezoid(tri[i, : i + 1] * beta[: i + 1], dx=dt)
                assert abs(quad - fd) <= 1e-3 * max(abs(fd), 1e-3)

    def test_requires_scalar_and_ordering(self, classical_pack, matrix_pack):
        scen, bars, bundle = matrix_pack
        with pytest.raises(ScenarioError, match="scalar mode"):
            mean_sensitivity_triangle(scen, bundle, bars)
        # the kernel lives on s <= t: the triangle is zero above its diagonal
        scen, bars, bundle = classical_pack
        n = scen.grid.n_nodes
        tri = mean_sensitivity_triangle(scen, bundle, bars)
        assert tri.shape == (n, n)
        np.testing.assert_array_equal(tri[np.triu_indices(n, 1)], 0.0)


class TestMeanSensitivity:
    def test_zero_gain_closed_form(self, classical_pack):
        scen, bars, bundle = classical_pack
        tri = mean_sensitivity_triangle(scen, bundle, bars)
        assert tri[80, 40] == pytest.approx(-2.0 * scen.grid.nodes[40], abs=1e-13)

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
        tri = mean_sensitivity_triangle(scen, bundle, bars)
        for (i, j) in [(100, 40), (70, 70), (90, 10)]:
            theta = np.arange(j + 1)
            integrand = psi[i, theta] ** 2 * (1.0 + g[theta] ** 2)
            integral = np.trapezoid(integrand, dx=dt) if j > 0 else 0.0
            expected = 2.0 * (-integral + psi[i, j] ** 2 * g[j])
            got = tri[i, j]
            assert got == pytest.approx(expected, abs=1e-10)

    def test_triangle_caches_no_kernel_on_the_bundle(self):
        # the triangle builds phi and psi for itself: the caller's bundle
        # keeps no (N+1)^2 array it did not ask for, and the kernel is bit
        # for bit the products over the bundle's own phi and psi
        scen = cross_pairing_probe(120)
        gain = GainSchedule.constant(scen.grid, 0.7)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        got = mean_sensitivity_triangle(scen, bundle, bars)
        assert not {"phi", "psi", "f"} & vars(bundle).keys()
        (a, c), _ = _kernel_coefficients(bundle, _Evaluation(bundle, bars))
        phi, psi = bundle.phi.values, bundle.psi.values
        np.testing.assert_array_equal(got, np.tril(2.0 * (phi * phi * a + psi * psi * c)))

    def test_triangle_row_equals_row_path_and_atom_sum(self, rough_pack):
        # the triangle against the row-quadrature oracle and against the
        # measure-weighted sum of the atoms' oracle triangles, and the rows
        # of each against the row path
        packs = [rough_pack[:2] + rough_pack[3:]]
        for scen, value in [(cross_pairing_probe(200), 0.7),
                            (classical_scenario(steps=400), np.tanh),
                            (normal_flow_scenario(steps=200), np.tanh)]:
            gain = (GainSchedule.from_callable(scen.grid, value) if callable(value)
                    else GainSchedule.constant(scen.grid, value))
            packs.append((scen, measure_averages(scen), kernel_bundle(scen, gain)))
        for scen, bars, bundle in packs:
            n = scen.grid.n_steps
            w = _Evaluation(bundle, bars)
            tri = mean_sensitivity_triangle(scen, bundle, bars)
            atom_tris = [row_sensitivity_triangle(scen, bundle, bars, a)
                         for a in range(scen.n_atoms)]
            np.testing.assert_allclose(
                tri, sum(wa * t for wa, t in zip(scen.measure.weights, atom_tris)),
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(tri, row_sensitivity_triangle(scen, bundle, bars),
                                       rtol=0, atol=1e-12)
            for atom, t in [(None, tri)] + list(enumerate(atom_tris)):
                for i in (n, 3 * n // 4, 3 * n // 5):
                    row = _kernel_row(bundle, w, i, *row_weights(scen, w, atom))
                    np.testing.assert_allclose(t[i, : i + 1], row, rtol=0, atol=1e-12)
                    np.testing.assert_array_equal(t[i, i + 1:], 0.0)


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

    @pytest.mark.parametrize("steps", [200, 3200])
    @pytest.mark.parametrize("build", [
        classical_scenario, normal_flow_scenario, cross_pairing_probe,
        *(lambda steps, seed=seed: random_smooth_scenario(seed, steps) for seed in range(1, 9)),
    ], ids=["classical", "normal-flow", "probe"] + [f"random-{k}" for k in range(1, 9)])
    def test_cost_is_trace_cost_to_the_bit(self, build, steps):
        # and the gradient after trace_cost on one bundle, which reuses
        # its forward sums, is that of a fresh bundle, bit for bit
        scen = build(steps=steps)
        bars = measure_averages(scen)
        t = scen.grid.nodes
        reference = (riccati_normal_flow(0.0, 1.0, scen.grid).gain_values
                     if build is normal_flow_scenario else np.tanh(t))
        for values in (0.0 * t, reference, 0.4 + 0.2 * np.cos(2 * np.pi * t)):
            gain = GainSchedule(scen.grid, values)
            bundle = kernel_bundle(scen, gain)
            J = trace_cost(scen, bundle, bars)
            after = cost_gradient(scen, bundle, bars)
            fresh = cost_gradient(scen, kernel_bundle(scen, gain), bars)
            for name in ("values", "curvature", "diagonal_step"):
                np.testing.assert_array_equal(getattr(after, name), getattr(fresh, name))
            assert after.cost == fresh.cost == J

    @pytest.mark.parametrize("beta", [np.ones(1), 1.0, np.ones((101, 1)), np.ones(100)],
                             ids=["one-node", "scalar", "column", "short"])
    def test_pair_refuses_a_direction_off_the_nodes(self, classical_pack, beta):
        scen, bars, bundle = classical_pack
        g = cost_gradient(scen, bundle, bars)
        with pytest.raises(ScenarioError, match=r"must have shape \(101,\), got "):
            g.pair(beta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pair_refuses_a_nonfinite_direction(self, classical_pack, bad):
        scen, bars, bundle = classical_pack
        g = cost_gradient(scen, bundle, bars)
        beta = np.ones(101)
        beta[50] = bad
        with pytest.raises(ScenarioError, match="must be finite at every node"):
            g.pair(beta)


class TestAveragedEvaluation:
    """A scalar bundle keeps the weights, P_mean, P_dev and J it computed
    for one set of measure averages; cost_gradient after trace_cost on it
    adds only the two reverse costates."""

    def test_gradient_after_cost_adds_two_sums(self, monkeypatch):
        scen = cross_pairing_probe(steps=100)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.3))
        calls = count_running_integrals(monkeypatch)
        trace_cost(scen, bundle, bars)
        assert len(calls) == 2
        cost_gradient(scen, bundle, bars)
        assert len(calls) == 4
        trace_cost(scen, bundle, bars)
        mean_sensitivity_triangle(scen, bundle, bars)
        assert len(calls) == 4

    def test_atom_profiles_read_the_kept_mean(self, monkeypatch):
        # C2's pass: each atom's profile and drift add their own two sums to
        # the evaluation's two, and the cost after them adds none (66 and 2
        # when every profile and drift ran its own P_mean)
        scen = normal_flow_scenario(steps=50)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, GainSchedule.from_callable(scen.grid, np.tanh))
        calls = count_running_integrals(monkeypatch)
        for atom in range(scen.n_atoms):
            covariance_profile(scen, bundle, bars, atom)
            drift_profile(scen, bundle, bars, atom)
        assert len(calls) <= 46
        profiles = len(calls)
        trace_cost(scen, bundle, bars)
        assert len(calls) == profiles

    def test_other_measure_averages_are_not_served_the_memo(self, monkeypatch):
        scen = cross_pairing_probe(steps=100)
        bars = measure_averages(scen)
        gain = GainSchedule.constant(scen.grid, 0.3)
        bundle = kernel_bundle(scen, gain)
        J = trace_cost(scen, bundle, bars)
        calls = count_running_integrals(monkeypatch)
        # equal averages in another object are evaluated afresh
        assert trace_cost(scen, bundle, measure_averages(scen)) == J
        assert len(calls) == 2
        # and averages that differ get their own cost, here and fresh
        louder = rebuilt(bars, sigma2_bar=2.0 * bars.sigma2_bar)
        J_louder = trace_cost(scen, bundle, louder)
        assert J_louder != J
        assert J_louder == trace_cost(scen, kernel_bundle(scen, gain), louder)
        fresh = cost_gradient(scen, kernel_bundle(scen, gain), louder)
        np.testing.assert_array_equal(cost_gradient(scen, bundle, louder).values, fresh.values)
        assert cost_gradient(scen, bundle, bars).cost == J

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [
        lambda: (_ou_scenario(5.0, steps=400), 0.0),
        lambda: (classical_scenario(steps=20), 1e200),
    ], ids=["unstable", "overflowing-gain"])
    def test_each_caller_names_its_own_stage(self, make):
        scen, value = make()
        bars = measure_averages(scen)
        gain = GainSchedule.constant(scen.grid, value)

        def message(stage, bundle):
            with pytest.raises(NonFiniteError, match=rf"^{stage.__name__}: non-finite ") as e:
                stage(scen, bundle, bars)
            return str(e.value)

        fresh = {stage: message(stage, kernel_bundle(scen, gain))
                 for stage in (trace_cost, cost_gradient)}
        for order in ((trace_cost, cost_gradient), (cost_gradient, trace_cost)):
            bundle = kernel_bundle(scen, gain)
            for stage in order:
                assert message(stage, bundle) == fresh[stage]

    def test_matrix_bundle_keeps_nothing(self):
        scen, bars, bundle = _coupled_matrix_scenario(40)
        kept = set(vars(bundle))
        trace_cost(scen, bundle, bars)
        assert set(vars(bundle)) == kept


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

    @pytest.mark.parametrize("grid, n", [(make_grid(2.0, 100), 1), (make_grid(1.0, 120), 1),
                                         (make_grid(1.0, 100), 2)],
                             ids=["other-horizon", "other-steps", "other-shape"])
    def test_rejects_direction_off_the_gain_grid(self, classical_pack, grid, n, monkeypatch):
        scen, bars, _ = classical_pack
        gain = GainSchedule.constant(scen.grid, 0.3)

        def no_bundle(*args):
            raise AssertionError("a bundle was built before the check")

        monkeypatch.setattr(covariance, "kernel_bundle", no_bundle)
        with pytest.raises(ScenarioError, match="direction must have the gain's grid"):
            fd_cost_slope(scen, gain, GainSchedule.constant(grid, 1.0, n, n), 1e-4, bars)

    def test_rejects_bad_eps(self, classical_pack):
        scen, bars, _ = classical_pack
        zero = GainSchedule.constant(scen.grid, 0.0)
        for eps in (0.0, -1e-4, np.nan, np.inf):
            with pytest.raises(ScenarioError, match="eps must be finite and positive"):
                fd_cost_slope(scen, zero, zero, eps, bars)


class TestFactoredGradient:
    """The O(N) gradient against the O(N^2) triangle it replaces."""

    @pytest.mark.parametrize("build", [classical_scenario, normal_flow_scenario,
                                       cross_pairing_probe])
    @pytest.mark.parametrize("steps", [100, 800])
    def test_matches_triangle_oracle(self, build, steps):
        scen = build(steps=steps)
        for value in (0.0, 0.3):
            assert _oracle_gap(scen, GainSchedule.constant(scen.grid, value)) <= 1e-12

    def test_matches_triangle_oracle_random_scenarios(self):
        for seed in range(1, 25):
            scen = random_smooth_scenario(seed=seed, steps=200)
            values = 0.4 + 0.2 * np.cos(2 * np.pi * scen.grid.nodes)
            assert _oracle_gap(scen, GainSchedule(scen.grid, values[:, None, None])) <= 1e-12

    def test_no_dense_allocation_in_optimizer(self):
        # one (N+1) x (N+1) float triangle at N = 3200 is 82 MB
        scen = classical_scenario(steps=3200)
        tracemalloc.start()
        try:
            optimize_gain(scen, max_iter=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestLongHorizon:
    """exp(+-2 int H) leaves float64 range once |int H| passes ~350."""

    def test_stable_gradient_finite_and_matches_oracle(self):
        scen = _ou_scenario(-2.0, steps=400)
        for value in (0.0, 0.3):
            assert _oracle_gap(scen, GainSchedule.constant(scen.grid, value)) <= 1e-12

    def test_stable_cost(self):
        scen = _ou_scenario(-2.0, steps=4000)
        J = trace_cost(scen, kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.0)),
                       measure_averages(scen))
        # the trapezoid value of the discrete quadrature, and the exact
        # T/4 - (1 - e^{-4T})/16 up to the O(dt^2) quadrature error
        assert J == pytest.approx(50.10363857859703, rel=1e-10)
        assert J == pytest.approx(49.9375, rel=5e-3)

    def test_stable_profile_matches_closed_form(self):
        scen = _ou_scenario(-2.0, steps=20000)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.0))
        prof = covariance_profile(scen, bundle, measure_averages(scen), 0)
        expected = (1.0 - np.exp(-4.0 * scen.grid.nodes)) / 4.0
        np.testing.assert_allclose(prof, expected, rtol=0, atol=5e-5)

    @pytest.mark.parametrize("B, D, horizon, steps, frames", [(-0.5, 0.5, 10.0, 100, 1),
                                                             (0.5, 0.5, 200.0, 400, 3),
                                                             (-0.5, 0.5, 200.0, 400, 3)],
                             ids=["falling", "rising", "falling-long"])
    def test_coupled_gradient_matches_oracle_across_frames(self, B, D, horizon, steps, frames):
        # M = -0.65 (falling) or +0.35 (rising); on the long horizons int H
        # and int (H + M) fall by hundreds, so every running integral is cut
        # into frames (each spans at most FRAME_SPAN of a monotone
        # exponent), and exp(int (H + M)) alone would leave float64 range;
        # the triangle oracle, built from kernel values, stays accurate
        scen = _ou_scenario(-2.0, steps, horizon, B=B, D=D)
        gain = GainSchedule.constant(scen.grid, 0.3)
        tb = kernel_bundle(scen, gain)
        assert min(np.ptp(tb.lh), np.ptp(tb.lhm)) > (frames - 1) * FRAME_SPAN
        assert _oracle_gap(scen, gain) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_and_triangles_finite_on_long_horizon(self):
        # exp(int H) leaves float64 range here; rows and triangles
        # exponentiate only differences on and below the diagonal
        scen = _ou_scenario(-2.0, steps=400, horizon=400.0)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.3))
        assert np.all(np.isfinite(mean_sensitivity_triangle(scen, bundle, bars)))
        for kernel in (bundle.psi, bundle.phi, bundle.f):
            assert np.all(np.isfinite(kernel.values))

    @pytest.mark.parametrize("B, D, value, horizon, steps", [(-0.5, 0.5, 0.3, 200.0, 400),
                                                            (-1.0, 0.0, 0.0, 300.0, 600)])
    def test_coupled_cost_matches_stable_quadrature(self, B, D, value, horizon, steps):
        # exp(int M) falls below e^-130 and exp(int (H + M)) below e^-590:
        # unanchored exponentials lose every digit here
        scen = _ou_scenario(-2.0, steps, horizon, B=B, D=D)
        gain = GainSchedule.constant(scen.grid, value)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        assert np.all(np.isfinite(cost_gradient(scen, bundle, bars).values))
        assert trace_cost(scen, bundle, bars) == pytest.approx(
            _quadrature_cost(scen, gain), rel=1e-13)

    def test_coupled_gradient_matches_exact_arithmetic(self):
        scen = _ou_scenario(-2.0, 200, 100.0, B=-0.5, D=0.5)
        gain = GainSchedule.constant(scen.grid, 0.3)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, gain)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(100):
            cost, g = _exact_factored(mp, scen, gain)
        assert trace_cost(scen, bundle, bars) == pytest.approx(cost, rel=1e-13)
        np.testing.assert_allclose(cost_gradient(scen, bundle, bars).values, g,
                                   rtol=0, atol=1e-12 * np.max(np.abs(g)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unstable_overflow_names_stage_and_node(self):
        scen = _ou_scenario(5.0, steps=400)
        bars = measure_averages(scen)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.0))
        # K grows like e^{10 t} / 10 and leaves float64 range near t = 71
        with pytest.raises(ScenarioError, match=r"trace_cost: non-finite value at node 14\d"):
            trace_cost(scen, bundle, bars)
        with pytest.raises(ScenarioError, match=r"covariance_profile: non-finite value at node"):
            covariance_profile(scen, bundle, bars, 0)
        with pytest.raises(ScenarioError, match=r"cost_gradient: non-finite value at node 0"):
            cost_gradient(scen, bundle, bars)
        with pytest.raises(ScenarioError, match=r"drift_profile: non-finite value at node 14\d"):
            drift_profile(scen, bundle, bars, 0)
        # the printed forms follow the same policy
        with pytest.raises(NonFiniteError, match=r"^covariance_profile_transcribed: non-finite "
                                                 r"value at node 14\d$"):
            covariance_profile_transcribed(scen, bundle, bars, 0)
        with pytest.raises(NonFiniteError, match=r"^cost_gradient_transcribed: non-finite "
                                                 r"value at node 0$"):
            cost_gradient_transcribed(scen, bundle, bars)
        # and so does the sensitivity triangle
        with pytest.raises(NonFiniteError, match=r"^mean_sensitivity_triangle: non-finite "
                                                 r"value at node \d+$"):
            mean_sensitivity_triangle(scen, bundle, bars)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage", [trace_cost, cost_gradient], ids=lambda fn: fn.__name__)
    def test_overflowing_gain_names_stage_without_warning(self, stage):
        # the weights square the gain: 1e200 squared leaves float64 range
        scen = classical_scenario(steps=20)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 1e200))
        with pytest.raises(NonFiniteError, match=rf"^{stage.__name__}: non-finite value at "
                                                 r"node \d+$"):
            stage(scen, bundle, measure_averages(scen))

    @pytest.mark.parametrize("stage", [trace_cost, cost_gradient, covariance_profile,
                                       drift_profile], ids=lambda fn: fn.__name__)
    def test_stiff_step_finite_without_warnings(self, stage):
        # at a gain of 1e5 one step moves int H by 500 at N = 200 (31 at
        # N = 3200), more than a frame spans, and the trapezoid's one-step
        # map carries the integral across; P is about dt/2 w there, finite
        # but not accurate. The N = 3200 values are those of the frame-wise
        # quotients that this map replaced, which were finite on that grid.
        expected = {trace_cost: 1562255.8595312256,
                    cost_gradient: [31.25] + [-457.03125004882816] * 3199 + [0.0],
                    covariance_profile: [0.0] + [1562500.00015625] * 3200,
                    drift_profile: [0.0] + [-151250000015.125] * 3200}[stage]
        for steps in (200, 3200):
            scen = classical_scenario(steps=steps)
            bars = measure_averages(scen)
            bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 1e5))
            atom = (0,) if stage in (covariance_profile, drift_profile) else ()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = stage(scen, bundle, bars, *atom)
            got = got.values if stage is cost_gradient else got
            assert np.all(np.isfinite(got))
        if stage is trace_cost:
            assert got == pytest.approx(expected, rel=1e-12)
        else:
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-12 * np.max(np.abs(expected)))


class TestMatrixJointRecursion:
    """Matrix mode: the joint (mean error, atom error) recursion against
    the cellwise trapezoid on column-wise step-product triangles it
    replaces."""

    @pytest.mark.parametrize("steps", [50, 200])
    def test_matches_cellwise_oracle(self, steps):
        scen, bars, gain = two_atom_matrix_scenario(steps)
        bundle = kernel_bundle(scen, gain)
        cost = 0.0
        for atom, weight in enumerate(scen.measure.weights):
            K, drift, triangles = _cellwise(scen, bars, gain, atom)
            prof = covariance_profile(scen, bundle, bars, atom)
            assert _rel(prof, K) <= 1e-12
            assert _rel(drift_profile(scen, bundle, bars, atom), drift) <= 1e-12
            cost += weight * trapezoid(np.einsum("jab,jba->j", scen.Sigma, K), scen.grid.dt)
        for kernel, oracle in zip(matrix_transitions(bundle), triangles):
            assert _rel(kernel, oracle) <= 1e-12
        assert trace_cost(scen, bundle, bars) == pytest.approx(cost, rel=1e-12)
        np.testing.assert_array_equal(bundle.R[:, :2, 2:], 0.0)

    def test_rate_consistency(self):
        err = {}
        for steps in (100, 200):
            scen, bars, gain = two_atom_matrix_scenario(steps)
            bundle = kernel_bundle(scen, gain)
            K = covariance_profile(scen, bundle, bars, 1)
            drift = drift_profile(scen, bundle, bars, 1)
            fd = (K[2:] - K[:-2]) / (2 * scen.grid.dt)
            err[steps] = float(np.max(np.abs(fd - drift[1:-1] - drift[1:-1].transpose(0, 2, 1))))
        assert err[100] / err[200] >= 3.0

    def test_cost_memory_linear(self):
        # the (N+1)^2 triangles of one 2x2 kernel take 41 MB at N = 800
        scen, bars, gain = two_atom_matrix_scenario(800)
        tracemalloc.start()
        try:
            trace_cost(scen, kernel_bundle(scen, gain), bars)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _nonsquare_two_atom_scenario(steps):
    """(scenario, bars, gain) of a mean-coupled two-atom system with a
    2-dimensional state, a 1-dimensional observation and 2 noises."""
    grid = make_grid(1.0, steps)
    scen = build_scenario(
        grid, measure=InitialMeasure([[-1.0, 0.5], [1.0, -0.5]], [0.3, 0.7]), m=1,
        A=np.array([[-0.4, 0.3], [0.2, 0.1]]), B=np.array([[0.5, -0.3], [0.1, -0.2]]),
        C=np.array([[1.0, 0.4]]), D=lambda t: np.array([[0.3, 0.1 * t]]),
        sigma=lambda u, t: np.array([[0.9 + 0.2 * u[0], 0.1], [0.0, 1.1 + 0.1 * u[1] * t]]),
        gamma=lambda u, t: np.array([[1.0 + 0.2 * u[1], 0.1 * u[0]]]),
        Q=np.array([[1.0, 0.3], [0.3, 0.8]]), Q0=np.eye(2),
        Sigma=lambda t: np.array([[1.0, 0.2], [0.2, 0.5 + t]]))
    gain = GainSchedule.constant(grid, np.array([[0.5], [-0.2]]), 2, 1)
    return scen, measure_averages(scen), gain


class TestAveragedMatrixCost:
    """Matrix-mode J is the trace of Sigma against the atom block of one
    joint recursion on the measure-averaged diffusion, equal to the
    measure-weighted sum of the atoms' costs."""

    @pytest.mark.parametrize("build, steps", [(two_atom_matrix_scenario, 50),
                                              (two_atom_matrix_scenario, 200),
                                              (_nonsquare_two_atom_scenario, 200)])
    def test_matches_per_atom_oracle(self, build, steps):
        scen, bars, gain = build(steps)
        bundle = kernel_bundle(scen, gain)
        assert trace_cost(scen, bundle, bars) == pytest.approx(
            per_atom_cost(scen, bundle, bars), rel=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: two_atom_matrix_scenario(100)[0],
        lambda: normal_flow_scenario(100)],
        ids=["two-atom-2x2", "normal-flow"])
    def test_one_joint_pass_per_call(self, build, monkeypatch):
        scen = build()
        bars = measure_averages(scen)
        bundle = StepPropagators(scen, GainSchedule.constant(scen.grid, 0.5 * np.eye(scen.n),
                                                             scen.n, scen.m))
        calls = []
        joint_moments = covariance._joint_moments
        monkeypatch.setattr(covariance, "_joint_moments",
                            lambda *a: calls.append(1) or joint_moments(*a))
        trace_cost(scen, bundle, bars)
        assert len(calls) == 1


class TestOneStepRule:
    """Both engines step the transitions by the exponential of the
    trapezoid-averaged generator, so a 1x1 problem run in matrix mode
    reproduces the scalar tables to round-off at every gain, and a stiff
    stable 2x2 system stays finite."""

    @pytest.mark.parametrize("value", [0.5, 300.0, 1e3, 1e5])
    @pytest.mark.parametrize("build", [classical_scenario, cross_pairing_probe,
                                       normal_flow_scenario])
    def test_matrix_engine_matches_scalar_engine(self, build, value):
        scen = build(steps=200)
        gain = GainSchedule.constant(scen.grid, value)
        bars = measure_averages(scen)
        costs, profiles = [], []
        for bundle in (kernel_bundle(scen, gain), StepPropagators(scen, gain)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                costs.append(trace_cost(scen, bundle, bars))
                profiles.append([covariance_profile(scen, bundle, bars, a).reshape(-1)
                                 for a in range(scen.n_atoms)])
        assert costs[1] == pytest.approx(costs[0], rel=1e-12)
        for matrix, scalar in zip(profiles[1], profiles[0]):
            # relative to the atom's own scale; an atom with no noise
            # (normal-flow's u = 0) must be exactly zero in both
            assert np.max(np.abs(matrix - scalar)) <= 1e-12 * np.max(np.abs(scalar))

    @pytest.mark.parametrize("value", [0.5, 30.0])
    @pytest.mark.parametrize("build", [classical_scenario, normal_flow_scenario,
                                       cross_pairing_probe,
                                       lambda steps: random_smooth_scenario(3, steps)],
                             ids=["classical", "normal-flow", "probe", "rs3"])
    def test_matrix_drift_matches_scalar_drift(self, build, value):
        # the matrix drift was refused for a scalar scenario's bars; it
        # transports the same moments, 3.2e-14 relative at most here
        scen = build(steps=200)
        bars, gain = measure_averages(scen), GainSchedule.constant(scen.grid, value)
        for a in range(scen.n_atoms):
            scalar = drift_profile(scen, kernel_bundle(scen, gain), bars, a)
            matrix = drift_profile(scen, StepPropagators(scen, gain), bars, a)
            assert matrix.shape == (scen.grid.n_nodes, 1, 1)
            assert np.max(np.abs(matrix.ravel() - scalar)) <= 1e-12 * np.max(np.abs(scalar))

    @pytest.mark.filterwarnings("error")
    def test_stiff_two_atom_system_is_finite(self):
        scen, bars, _ = two_atom_matrix_scenario(200)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 1e3 * np.eye(2), 2, 2))
        J = trace_cost(scen, bundle, bars)
        assert np.isfinite(J) and J > 0.0
        for atom in range(scen.n_atoms):
            assert np.all(np.isfinite(drift_profile(scen, bundle, bars, atom)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage", [trace_cost, covariance_profile, drift_profile])
    def test_unstable_system_names_stage_and_node(self, stage):
        grid = make_grid(50.0, 400)
        scen = build_scenario(grid, measure=dirac_measure([0.0, 0.0]),
                              A=np.array([[20.0, 0.5], [0.0, -1.0]]), Q=np.eye(2))
        bundle = kernel_bundle(scen, GainSchedule.constant(grid, 0.0, 2, 2))
        atom = () if stage is trace_cost else (0,)
        with pytest.raises(NonFiniteError, match=rf"^{stage.__name__}: non-finite value at "
                                                 r"node \d+$"):
            stage(scen, bundle, measure_averages(scen), *atom)
        assert not np.all(np.isfinite(matrix_transitions(bundle)[2]))

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_generator_raises_without_warning(self):
        # gain times C overflows, so the generator itself is infinite
        grid = make_grid(1.0, 20)
        scen = build_scenario(grid, measure=dirac_measure([0.0, 0.0]),
                              C=np.array([[1e10, 0.0], [1e10, 1.0]]), D=np.eye(2),
                              Q=np.eye(2))
        bundle = kernel_bundle(scen, GainSchedule.constant(grid, 1e300, 2, 2))
        assert not np.all(np.isfinite(bundle.H))
        with pytest.raises(NonFiniteError, match=r"^trace_cost: non-finite value at node 1$"):
            trace_cost(scen, bundle, measure_averages(scen))
        assert not np.all(np.isfinite(matrix_transitions(bundle)[2]))


class TestEngineSwitch:
    """The bundle's type is the engine: ``kernel_bundle`` alone reads the
    scenario's dimensions to pick it, and the operations with only a
    scalar form refuse step propagators."""

    @pytest.mark.parametrize("stage", [
        cost_gradient, mean_sensitivity_triangle, cost_gradient_transcribed,
        lambda s, b, bars: covariance_profile_transcribed(s, b, bars, 0),
        lambda s, b, bars: f_direction(b, 10, 0, np.ones(s.grid.n_nodes)),
        lambda s, b, bars: f_direction_transcribed(b, 10, 0, np.ones(s.grid.n_nodes))],
        ids=["cost_gradient", "mean_sensitivity_triangle", "cost_gradient_transcribed",
             "covariance_profile_transcribed", "f_direction", "f_direction_transcribed"])
    def test_scalar_only_stages_refuse_step_propagators(self, stage):
        scen = classical_scenario(steps=20)
        bundle = StepPropagators(scen, GainSchedule.constant(scen.grid, 0.5))
        with pytest.raises(ScenarioError, match="requires scalar mode: a ScalarTables bundle"):
            stage(scen, bundle, measure_averages(scen))

    def test_scalar_mode_is_read_only_where_the_engine_is_picked(self):
        # covariance read it four times, to dispatch and in _checked, and
        # the flat views of Scenario and BarQuantities checked it again
        reads, flat_calls = [], []
        for path in sorted(Path(mfkalman.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for member in top.body if isinstance(top, ast.ClassDef) else [top]:
                    where = getattr(top, "name", "<module>")
                    if member is not top:
                        where += "." + getattr(member, "name", "<body>")
                    for node in ast.walk(member):
                        if isinstance(node, ast.Attribute) and node.attr == "scalar_mode":
                            reads.append(f"{path.stem}.{where}")
                        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                                and node.func.attr in ("flat", "flat_atom")):
                            flat_calls.append(f"{path.stem}:{node.lineno}")
        assert sorted(reads) == ["cli._load", "gain.optimize_gain",
                                 "kernels.ScalarTables.__init__", "kernels.kernel_bundle"]
        assert flat_calls == []


class TestCheckFinite:
    def test_names_first_bad_node(self):
        values = np.zeros((6, 2, 2))
        check_finite("stage", values)
        values[4, 1, 0] = np.inf
        values[2, 0, 1] = np.nan
        with pytest.raises(ScenarioError, match=r"^stage: non-finite value at node 2$"):
            check_finite("stage", values)


# every public function that takes (scenario, bundle, bars, ...)
_SCALAR_CALLS = {
    "trace_cost": trace_cost,
    "cost_gradient": cost_gradient,
    "covariance_profile": lambda *a: covariance_profile(*a, 0),
    "drift_profile": lambda *a: drift_profile(*a, 0),
    "mean_sensitivity_triangle": mean_sensitivity_triangle,
    "covariance_profile_transcribed": lambda *a: covariance_profile_transcribed(*a, 0),
    "cost_gradient_transcribed": cost_gradient_transcribed,
}
_MATRIX_CALLS = {name: _SCALAR_CALLS[name]
                 for name in ("trace_cost", "covariance_profile", "drift_profile")}


class TestForeignInputs:
    """A bundle or measure averages built for another scenario are refused,
    even one with the same grid (the probe against ``classical``) or with
    equal coefficients (a second build of the same matrix scenario)."""

    @pytest.fixture(scope="class")
    def scalar_pair(self):
        own, other = classical_scenario(steps=10), cross_pairing_probe(10)
        gain = GainSchedule.constant(own.grid, 0.3)
        return own, other, gain

    @pytest.fixture(scope="class")
    def matrix_pair(self):
        (own, _, gain), (other, _, _) = (two_atom_matrix_scenario(10),
                                         two_atom_matrix_scenario(10))
        return own, other, gain

    @pytest.mark.parametrize("mode, name", [("scalar", n) for n in _SCALAR_CALLS]
                             + [("matrix", n) for n in _MATRIX_CALLS])
    def test_foreign_bundle_rejected(self, scalar_pair, matrix_pair, mode, name):
        own, other, gain = scalar_pair if mode == "scalar" else matrix_pair
        with pytest.raises(ScenarioError, match="bundle was built for another scenario"):
            _SCALAR_CALLS[name](own, kernel_bundle(other, gain), measure_averages(own))

    @pytest.mark.parametrize("mode, name", [("scalar", n) for n in _SCALAR_CALLS]
                             + [("matrix", n) for n in _MATRIX_CALLS])
    def test_foreign_measure_averages_rejected(self, scalar_pair, matrix_pair, mode, name):
        own, other, gain = scalar_pair if mode == "scalar" else matrix_pair
        with pytest.raises(ScenarioError, match="averages were computed for another scenario"):
            _SCALAR_CALLS[name](own, kernel_bundle(own, gain), measure_averages(other))

    def test_foreign_averages_rejected_by_fd_slope_and_optimizer(self, scalar_pair):
        own, other, gain = scalar_pair
        with pytest.raises(ScenarioError, match="averages were computed for another"):
            fd_cost_slope(own, gain, gain, 1e-4, measure_averages(other))
        with pytest.raises(ScenarioError, match="averages were computed for another"):
            optimize_gain(own, bars=measure_averages(other))
