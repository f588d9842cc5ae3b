import itertools
import math
import warnings

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    NonFiniteError,
    ScenarioError,
    build_scenario,
    classical_scenario,
    cost_gradient,
    dirac_measure,
    kernel_bundle,
    make_grid,
    measure_averages,
    normal_flow_scenario,
    optimize_gain,
    riccati_classical,
    riccati_normal_flow,
    trace_cost,
    trapezoid,
)
from mfkalman import gain as gain_module
from mfkalman.covariance import _Evaluation
from mfkalman.scenarios import cross_pairing_probe, random_smooth_scenario

from conftest import count_running_integrals, scalar_scenario


def _stationarity(scen, gain):
    """Sup over nodes of |g|, the first-order optimality residual."""
    g = cost_gradient(scen, kernel_bundle(scen, gain), measure_averages(scen))
    return float(np.max(np.abs(g.values)))


def _diagonal_update_by_rows(scenario, bars, values, nodes, sweeps):
    """Row-quadrature reference for the gradient's ``diagonal_step``: each
    sweep solves the diagonal condition G g2q0 = C theta + D xi at the
    given nodes with the gain it starts from frozen, the C- and D-term
    integrals of the diagonal kernel integrated row by row over the kernel
    rows (f = phi - psi)."""
    out = values.copy()
    dt = scenario.grid.dt
    for _ in range(sweeps):
        gain = GainSchedule(scenario.grid, out[:, None, None])
        tb = kernel_bundle(scenario, gain)
        w = _Evaluation(tb, bars)
        for j in nodes:
            if w.g2q0[j] <= 1e-14:
                continue
            sl = slice(0, j + 1)
            psi_r, phi_r, wbar = tb.psi.values[j, sl], tb.phi.values[j, sl], w.wbar[sl]
            f_r = phi_r - psi_r
            theta = trapezoid(f_r**2 * wbar + psi_r**2 * w.w2[sl] + 2 * psi_r * f_r * wbar, dt)
            xi = trapezoid(phi_r * (f_r + psi_r) * wbar, dt)
            out[j] = (tb.C[j] * theta + tb.D[j] * xi) / w.g2q0[j]
    return out


def _rk4_step(rhs, t, y, h):
    """One classical Runge-Kutta step of y' = rhs(t, y) from t to t + h."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_on_arrays(rhs, y0, grid):
    """RK4 on numpy arrays, one :func:`_rk4_step` per grid step: the loop
    the Riccati references ran before they moved to Python floats."""
    out = np.empty((grid.n_nodes, len(y0)))
    out[0] = y0
    for i in range(grid.n_steps):
        out[i + 1] = _rk4_step(rhs, grid.nodes[i], out[i], grid.dt)
    return out


def _time_fn(v):
    return v if callable(v) else (lambda t, _v=float(v): _v)


# (horizon, coefficients) of each reference; the callables return Python
# floats and numpy scalars
_CLASSICAL_COEFFS = {
    "unit": (1.0, (0.0, 1.0, 1.0, 1.0)),
    "time-varying": (2.0, (lambda t: 0.2 * np.sin(t), lambda t: 1.0 + 0.3 * math.cos(t),
                           lambda t: np.float64(0.8) + 0.1 * t, 1.3)),
}
_NORMAL_FLOW_COEFFS = {
    "unit": (1.0, (0.0, 1.0)),
    "time-varying": (2.0, (lambda t: -0.5 + 0.2 * np.sin(t), lambda t: 1.0 + 0.2 * np.cos(2 * t))),
}


@pytest.mark.parametrize("steps", [200, 800])
@pytest.mark.parametrize("coeffs", sorted(_CLASSICAL_COEFFS))
def test_riccati_classical_bitwise_equals_array_rk4(coeffs, steps):
    horizon, args = _CLASSICAL_COEFFS[coeffs]
    grid = make_grid(horizon, steps)
    A, C, s0, g0 = map(_time_fn, args)

    def rhs(t, s):
        g2 = g0(t) ** 2
        return 2.0 * A(t) * s - (C(t) ** 2 / g2) * s * s + s0(t) ** 2

    S = _rk4_on_arrays(rhs, np.zeros(1), grid)[:, 0]
    gain = np.array([C(t) * S[i] / g0(t) ** 2 for i, t in enumerate(grid.nodes)])
    sol = riccati_classical(*args, grid)
    assert sol.state.tobytes() == S.tobytes()
    assert sol.gain_values.tobytes() == gain.tobytes()


@pytest.mark.parametrize("steps", [200, 800])
@pytest.mark.parametrize("coeffs", sorted(_NORMAL_FLOW_COEFFS))
def test_riccati_normal_flow_bitwise_equals_array_rk4(coeffs, steps):
    horizon, args = _NORMAL_FLOW_COEFFS[coeffs]
    grid = make_grid(horizon, steps)
    A, C = map(_time_fn, args)

    def rhs(t, y):
        m, kb = y
        a, c2 = A(t), C(t) ** 2
        return np.array([1.0 + 2.0 * a * m - c2 * m * m,
                         1.0 + c2 * m * m + 2.0 * (a - c2 * m) * kb])

    state = _rk4_on_arrays(rhs, np.zeros(2), grid)
    gain = np.array([C(t) for t in grid.nodes]) * state[:, 0]
    sol = riccati_normal_flow(*args, grid)
    assert sol.state.tobytes() == state[:, 0].tobytes()
    assert sol.mean_variance.tobytes() == state[:, 1].tobytes()
    assert sol.gain_values.tobytes() == gain.tobytes()


class TestRiccatiClassical:
    def test_unit_constants_give_tanh(self):
        grid = make_grid(1.0, 200)
        sol = riccati_classical(0.0, 1.0, 1.0, 1.0, grid)
        assert sol.state[-1] == pytest.approx(np.tanh(1.0), abs=1e-6)
        np.testing.assert_allclose(sol.gain_values, sol.state)  # C/gamma0^2 = 1
        assert sol.state[0] == 0.0

    def test_no_state_noise_zero_gain(self):
        grid = make_grid(1.0, 100)
        sol = riccati_classical(0.0, 1.0, 0.0, 1.0, grid)
        np.testing.assert_allclose(sol.state, 0.0, atol=0)
        np.testing.assert_allclose(sol.gain_values, 0.0, atol=0)

    def test_time_varying_coefficients(self):
        grid = make_grid(1.0, 400)
        sol = riccati_classical(lambda t: -0.5 * t, lambda t: 1.0 + 0.2 * t,
                                1.0, lambda t: 1.0 + 0.1 * t, grid)
        assert np.all(np.isfinite(sol.state))
        assert np.all(sol.state >= 0)

    def test_vanishing_observation_noise_rejected(self):
        grid = make_grid(1.0, 100)
        with pytest.raises(ScenarioError, match="gamma0 vanishes at t = 0.5"):
            riccati_classical(0.0, 1.0, 1.0, lambda t: t - 0.5, grid)

    def test_blowup_detected(self):
        grid = make_grid(1.0, 100)
        with pytest.raises(ScenarioError, match="blew up"):
            riccati_classical(60.0, 1e-4, 1.0, 1.0, grid)


class TestRiccatiNormalFlow:
    def test_unit_constants_give_tanh(self):
        grid = make_grid(1.0, 200)
        sol = riccati_normal_flow(0.0, 1.0, grid)
        assert sol.state[-1] == pytest.approx(np.tanh(1.0), abs=1e-6)
        assert sol.state[0] == 0.0

    def test_variance_identity(self):
        grid = make_grid(1.0, 200)
        sol = riccati_normal_flow(lambda t: 0.2 * np.sin(t), lambda t: 1.0 + 0.3 * t, grid)
        assert np.max(np.abs(sol.mean_variance - sol.state)) <= 1e-6

    def test_gain_is_c_times_state(self):
        grid = make_grid(1.0, 100)
        sol = riccati_normal_flow(0.0, lambda t: 2.0 - t, grid)
        np.testing.assert_allclose(sol.gain_values, (2.0 - grid.nodes) * sol.state)

    def test_vanishing_c_rejected(self):
        grid = make_grid(1.0, 100)
        with pytest.raises(ScenarioError, match="C vanishes at t = 0"):
            riccati_normal_flow(0.0, lambda t: t, grid)

    def test_reference_gain_is_stationary(self):
        scen = normal_flow_scenario(steps=100)
        sol = riccati_normal_flow(0.0, 1.0, scen.grid)
        assert _stationarity(scen, sol.gain()) <= 1e-3


class TestOptimizeGain:
    @staticmethod
    def _count_calls(monkeypatch) -> dict[str, int]:
        """Live counts of the optimizer's calls of kernel_bundle,
        trace_cost and cost_gradient, as bound in mfkalman.gain."""
        counts = dict.fromkeys(("kernel_bundle", "trace_cost", "cost_gradient"), 0)
        for name in counts:
            def counted(*args, _fn=getattr(gain_module, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(gain_module, name, counted)
        return counts

    @pytest.mark.parametrize("build", [classical_scenario, cross_pairing_probe])
    def test_call_counts_match_report(self, build, monkeypatch):
        # the same counts as the benchmark's own check, on the calls bound
        # in mfkalman.gain: one kernel_bundle per Armijo trial plus the
        # start and, on a converged run, the completed gain; one
        # cost_gradient per accepted step plus the same ones; one
        # trace_cost per trial plus the start
        counts = self._count_calls(monkeypatch)
        scen = build(steps=200)
        reports = [optimize_gain(scen, initial_gain=GainSchedule.constant(scen.grid, g0))
                   for g0 in (0.0, 10.0)]
        assert all(r.converged for r in reports)
        reports.append(optimize_gain(scen, max_iter=1))
        assert not reports[-1].converged
        trials = sum(sum(r.line_search_trials) for r in reports)
        iterations = sum(r.iterations for r in reports)
        completed = sum(r.converged for r in reports)
        assert counts == {"kernel_bundle": trials + len(reports) + completed,
                          "trace_cost": trials + len(reports),
                          "cost_gradient": iterations + len(reports) + completed}

    @pytest.mark.parametrize("build, g0", [(classical_scenario, -3.0),
                                           (cross_pairing_probe, -2.0)])
    def test_failed_search_returns_last_iterate(self, build, g0):
        # the last iterate (J = 105.35 on classical, 18.05 on the probe),
        # not completed: completing it made J some 80 and 100 times larger
        scen = build(steps=200)
        report = optimize_gain(scen, initial_gain=GainSchedule.constant(scen.grid, g0))
        assert not report.converged
        assert report.message == "line search step underflow"
        assert report.final_cost == report.cost_trajectory[-1]
        bars = measure_averages(scen)
        assert report.final_cost == trace_cost(scen, kernel_bundle(scen, report.gain), bars)
        assert report.stationarity == _stationarity(scen, report.gain)

    @pytest.mark.parametrize("build, steps, g0", [
        pytest.param(classical_scenario, 200, -100.0, id="classical-200-from-100"),
        pytest.param(classical_scenario, 800, -100.0, id="classical-800-from-100"),
        pytest.param(classical_scenario, 200, -300.0, id="classical-200-from-300"),
        pytest.param(cross_pairing_probe, 200, -100.0, id="probe-200-from-100"),
    ])
    def test_far_start_reported_not_raised(self, build, steps, g0, monkeypatch):
        # these starts cost 1e86 and more; no trial from them decreases J,
        # and no overflow escapes as a warning or an exception
        counts = self._count_calls(monkeypatch)
        scen = build(steps=steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = optimize_gain(scen, initial_gain=GainSchedule.constant(scen.grid, g0))
        assert not report.converged
        assert report.message == "line search step underflow"
        assert report.iterations == 0 and report.step_sizes == []
        assert report.final_cost == report.cost_trajectory[-1]
        assert np.isfinite(report.stationarity)
        # one bundle per trial and for the start, and none for a completion
        assert counts["kernel_bundle"] == counts["trace_cost"]

    def test_nonfinite_completion_gain_reported(self, monkeypatch):
        # no start found reaches it: an infinite diagonal step at node N - 1,
        # where the Newton step does not read it
        def with_infinite_step(*args):
            field = cost_gradient(*args)
            field.diagonal_step[-2] = np.inf
            return field

        monkeypatch.setattr(gain_module, "cost_gradient", with_infinite_step)
        counts = self._count_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = optimize_gain(classical_scenario(steps=100))
        assert not report.converged
        assert report.message == "endpoint completion gave a non-finite gain"
        assert report.final_cost == report.cost_trajectory[-1]
        assert np.isfinite(report.gain.scalar).all()
        assert counts["kernel_bundle"] == counts["trace_cost"]

    def test_nonfinite_completion_cost_reported(self, monkeypatch):
        # the completion's cost_gradient call raises: it is the one after
        # the start's and one per accepted step
        scen = classical_scenario(steps=100)
        completion_call = optimize_gain(scen).iterations + 2
        calls = itertools.count(1)

        def nonfinite_at_completion(*args):
            if next(calls) == completion_call:
                raise NonFiniteError("cost_gradient: non-finite value at node 100")
            return cost_gradient(*args)

        monkeypatch.setattr(gain_module, "cost_gradient", nonfinite_at_completion)
        counts = self._count_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = optimize_gain(scen)
        assert not report.converged
        assert report.message == "endpoint completion gave a non-finite cost"
        assert report.final_cost == report.cost_trajectory[-1]
        assert report.stationarity == _stationarity(scen, report.gain)
        assert counts["kernel_bundle"] == counts["trace_cost"] + 1

    def test_nonfinite_trial_cost_halves_the_step(self, monkeypatch):
        self._reject_trials(monkeypatch, lambda k: k == 1, nonfinite=True)
        report = optimize_gain(classical_scenario(steps=100))
        assert report.step_sizes[0] == 0.5
        assert report.line_search_trials[0] == 2
        assert report.rejected_trials[0] == ["non-finite cost"]
        assert report.converged

    def test_every_trial_cost_nonfinite_reports_step_underflow(self, monkeypatch):
        self._reject_trials(monkeypatch, lambda k: k >= 1, nonfinite=True)
        report = optimize_gain(classical_scenario(steps=100))
        assert report.converged is False
        assert report.message == "line search step underflow"
        assert report.iterations == 0
        assert report.rejected_trials == []

    def test_nonfinite_candidate_gain_rejected_without_a_bundle(self, monkeypatch):
        # an infinite Newton step at one node: every candidate gain is
        # infinite there, so no trial builds a bundle or a cost
        newton = gain_module._newton_direction

        def with_infinite_step(field):
            p = newton(field)
            k = len(p) // 2
            p[k] = -np.copysign(np.inf, field.values[k])
            return p

        monkeypatch.setattr(gain_module, "_newton_direction", with_infinite_step)
        counts = self._count_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = optimize_gain(classical_scenario(steps=100))
        assert report.message == "line search step underflow"
        assert report.iterations == 0
        assert report.rejected_trials == []
        assert counts == {"kernel_bundle": 1, "trace_cost": 1, "cost_gradient": 1}

    @pytest.mark.parametrize("grad_tol", [0.0, -1e-5, np.inf, np.nan])
    def test_rejects_bad_grad_tol_before_any_bundle(self, monkeypatch, grad_tol):
        def no_bundle(*args):
            raise AssertionError("a bundle was built")

        monkeypatch.setattr(gain_module, "kernel_bundle", no_bundle)
        with pytest.raises(ScenarioError, match="grad_tol must be finite and positive"):
            optimize_gain(classical_scenario(steps=20), grad_tol=grad_tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, 1.0, "5", None])
    def test_rejects_bad_max_iter_before_any_bundle(self, monkeypatch, max_iter):
        # max_iter=0 used to report "iteration limit reached" from a
        # stationary start, -3 passed silently and 2.5 raised a TypeError
        def no_bundle(*args):
            raise AssertionError("a bundle was built")

        monkeypatch.setattr(gain_module, "kernel_bundle", no_bundle)
        with pytest.raises(ScenarioError, match="max_iter must be an integer >= 1"):
            optimize_gain(classical_scenario(steps=20), max_iter=max_iter)

    def test_classical_reaches_reference(self):
        scen = classical_scenario(steps=100)
        report = optimize_gain(scen, grad_tol=1e-5)
        assert report.converged
        dev = np.max(np.abs(report.gain.scalar - np.tanh(scen.grid.nodes)))
        assert dev <= 5e-3
        assert report.stationarity <= 1e-3

    def test_descent_is_monotone(self):
        scen = classical_scenario(steps=100)
        report = optimize_gain(scen, grad_tol=1e-4)
        traj = report.cost_trajectory
        assert all(b <= a for a, b in zip(traj, traj[1:]))
        assert len(report.gradient_trajectory) == len(traj)

    def test_start_at_optimum_stops_immediately(self):
        scen = classical_scenario(steps=100)
        init = GainSchedule.from_callable(scen.grid, np.tanh)
        report = optimize_gain(scen, initial_gain=init)
        assert report.converged
        assert report.iterations <= 2

    def test_no_state_noise_keeps_zero_gain(self):
        scen = scalar_scenario(steps=80, sigma=0.0, gamma=1.0)
        report = optimize_gain(scen)
        assert report.converged
        assert report.final_cost == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(report.gain.scalar, 0.0, atol=1e-12)

    def test_matches_riccati_reference(self):
        scen = classical_scenario(steps=200)
        report = optimize_gain(scen, grad_tol=1e-5)
        ref = riccati_classical(0.0, 1.0, 1.0, 1.0, scen.grid)
        assert np.max(np.abs(report.gain.scalar - ref.gain_values)) <= 5e-3

    def test_grid_refinement_shrinks_deviation(self):
        devs = {}
        for steps in (100, 200):
            scen = classical_scenario(steps=steps)
            report = optimize_gain(scen, grad_tol=1e-5)
            devs[steps] = np.max(np.abs(report.gain.scalar - np.tanh(scen.grid.nodes)))
        assert devs[100] / max(devs[200], 1e-15) >= 2.0 or devs[200] < 1e-4

    @pytest.mark.parametrize("build", [classical_scenario, cross_pairing_probe])
    def test_final_cost_is_cost_of_completed_gain(self, build):
        scen = build(steps=100)
        report = optimize_gain(scen)
        bars = measure_averages(scen)
        assert report.final_cost == trace_cost(scen, kernel_bundle(scen, report.gain), bars)
        assert report.cost_trajectory[-1] != report.final_cost  # completion moved the gain

    def test_iteration_limit_reported(self):
        scen = classical_scenario(steps=100)
        report = optimize_gain(scen, grad_tol=1e-12, max_iter=3)
        assert not report.converged
        assert report.message == "iteration limit reached"
        assert report.iterations == 3

    @pytest.mark.parametrize("build", [classical_scenario, cross_pairing_probe])
    def test_converging_on_the_last_allowed_iteration_is_converged(self, build):
        # the tolerance used to be tested only before a step: on classical
        # N = 200, max_iter = 3 ended at stationarity 2.3e-7, below grad_tol,
        # yet reported "iteration limit reached" and skipped the completion
        scen = build(steps=200)
        full = optimize_gain(scen)
        assert full.converged and full.iterations >= 1
        capped = optimize_gain(scen, max_iter=full.iterations)
        for name, value in vars(full).items():
            if name not in ("gain", "iteration_seconds"):
                assert getattr(capped, name) == value, name
        np.testing.assert_array_equal(capped.gain.values, full.gain.values)

    def test_no_observation_noise_reports_no_descent_direction(self):
        # gamma = 0: the curvature vanishes everywhere and the cost keeps
        # falling as the gain grows, so there is no Newton step to take
        scen = scalar_scenario(steps=80, sigma=1.0, gamma=0.0)
        report = optimize_gain(scen)
        assert not report.converged
        assert report.message == "no descent direction"
        assert report.iterations == 0

    def test_records_each_iteration(self):
        scen = cross_pairing_probe(steps=200)
        report = optimize_gain(scen)
        assert report.converged
        assert len(report.step_sizes) == len(report.cost_trajectory) - 1 == report.iterations
        assert len(report.line_search_trials) == report.iterations
        # each accepted step is 1 halved once per failed trial
        assert report.step_sizes == [0.5 ** (t - 1) for t in report.line_search_trials]

    def test_times_each_iteration(self):
        scen = cross_pairing_probe(steps=200)
        report = optimize_gain(scen)
        assert report.iterations > 0
        assert len(report.iteration_seconds) == len(report.step_sizes)
        assert all(s > 0.0 for s in report.iteration_seconds)
        # every trial but the accepted last one was rejected
        assert ([len(reasons) + 1 for reasons in report.rejected_trials]
                == report.line_search_trials)
        assert optimize_gain(scen, initial_gain=report.gain).iteration_seconds == []

    @pytest.mark.parametrize("build, steps, sums", [(classical_scenario, 400, 20),
                                                    (cross_pairing_probe, 200, 24)])
    def test_running_sums_per_run(self, build, steps, sums, monkeypatch):
        # two forward sums per evaluated gain (the start, each trial and the
        # completed gain), which a gradient on the same bundle reuses, and
        # two reverse sums per gradient
        calls = count_running_integrals(monkeypatch)
        report = optimize_gain(build(steps=steps))
        assert report.converged
        trials = sum(report.line_search_trials)
        assert len(calls) == 2 * (trials + 2) + 2 * (report.iterations + 2) == sums

    @staticmethod
    def _reject_trials(monkeypatch, rejected, nonfinite=False):
        """Make the optimizer's trace_cost return inf, or with ``nonfinite``
        raise NonFiniteError as it does on a non-finite cost, at every
        call k (k = 0 is the starting cost, then one call per Armijo
        trial) for which ``rejected(k)`` holds."""
        calls = itertools.count()

        def trace_cost_with_rejections(*args):
            if not rejected(next(calls)):
                return trace_cost(*args)
            if nonfinite:
                raise NonFiniteError("trace_cost: non-finite value at node 1")
            return np.inf

        monkeypatch.setattr(gain_module, "trace_cost", trace_cost_with_rejections)

    def test_rejected_trial_halves_the_step(self, monkeypatch):
        self._reject_trials(monkeypatch, lambda k: k == 1)
        report = optimize_gain(classical_scenario(steps=100))
        assert report.step_sizes[0] == 0.5
        assert report.line_search_trials[0] == 2
        assert report.rejected_trials[0] == ["armijo"]
        assert report.converged

    def test_every_trial_rejected_reports_step_underflow(self, monkeypatch):
        self._reject_trials(monkeypatch, lambda k: k >= 1)
        report = optimize_gain(classical_scenario(steps=100))
        assert report.converged is False
        assert report.message == "line search step underflow"
        assert report.iterations == 0

    def test_requires_scalar_mode(self):
        grid = make_grid(1.0, 20)
        scen = build_scenario(grid, measure=dirac_measure([0.0, 0.0]),
                              A=lambda t: np.zeros((2, 2)),
                              C=lambda t: np.eye(2),
                              sigma=lambda u, t: np.eye(2),
                              gamma=lambda u, t: np.eye(2),
                              Q=np.eye(2), Q0=np.eye(2),
                              Sigma=lambda t: np.eye(2))
        with pytest.raises(ScenarioError):
            optimize_gain(scen)


@pytest.mark.xfail(strict=True, reason="the default grad_tol is scaled by the starting "
                   "cost, so it passes these iterates far above the optimum")
@pytest.mark.parametrize("build, steps", [(classical_scenario, 3200), (cross_pairing_probe, 200),
                                          (cross_pairing_probe, 800),
                                          (cross_pairing_probe, 3200)],
                         ids=["classical-3200", "probe-200", "probe-800", "probe-3200"])
def test_converged_from_minus_ten_reaches_optimum(build, steps):
    # converged=True at J = 1.8e6 (classical) and 1.4e11, 3.3e8, 8.7e5
    # (probe), for optima of 0.434 and 0.445
    scen = build(steps=steps)
    optimum = optimize_gain(scen).final_cost
    report = optimize_gain(scen, initial_gain=GainSchedule.constant(scen.grid, -10.0))
    assert not report.converged or report.final_cost <= 1.01 * optimum


@pytest.mark.xfail(strict=True, reason="the first full Newton step takes the gain 670 off tanh "
                   "at the last nodes, where the gradient density's slope has the opposite "
                   "sign to that of the discrete cost, and the line search underflows")
def test_minus_three_start_converges_on_classical():
    # converged=False, "line search step underflow", after 1 iteration at
    # J = 105.4, 243 times the best 0.4338; N = 800 and 3200 converge
    scen = classical_scenario(steps=200)
    best = optimize_gain(scen, grad_tol=1e-9, max_iter=50).final_cost
    report = optimize_gain(scen, initial_gain=GainSchedule.constant(scen.grid, -3.0))
    assert report.converged and report.final_cost <= 1.01 * best


def _iterations(scen) -> int:
    report = optimize_gain(scen)
    assert report.converged, report.message
    return report.iterations


class TestMeshIndependence:
    """The preconditioned step p = -g / d takes as many iterations on a
    fine mesh as on a coarse one."""

    @pytest.mark.parametrize("build", [classical_scenario, cross_pairing_probe])
    def test_iterations_do_not_grow_with_n(self, build):
        assert _iterations(build(steps=3200)) <= _iterations(build(steps=200)) + 1

    def test_random_scenarios_same_iterations_at_two_meshes(self):
        for seed in range(1, 25):
            coarse = _iterations(random_smooth_scenario(seed=seed, steps=400))
            fine = _iterations(random_smooth_scenario(seed=seed, steps=1600))
            assert coarse == fine, seed

    @pytest.mark.parametrize("steps", [200, 800, 3200])
    def test_classical_gain_matches_tanh(self, steps):
        scen = classical_scenario(steps=steps)
        report = optimize_gain(scen)
        assert report.converged
        assert np.max(np.abs(report.gain.scalar - np.tanh(scen.grid.nodes))) <= 2e-5

    def test_probe_converges_on_fine_mesh(self):
        # plain gradient descent stopped at max_iter = 2000 here
        scen = cross_pairing_probe(steps=1600)
        report = optimize_gain(scen)
        assert report.converged
        assert report.stationarity <= 1e-4 * (1.0 + abs(report.cost_trajectory[0]))


def _curvature_gap(scen, eps: float = 1e-6) -> float:
    """Largest relative gap between ``GradientField.curvature`` and the
    central difference of g_j in G_j, over every tenth interior node."""
    bars = measure_averages(scen)
    n = scen.grid.n_steps
    values = 0.3 + 0.2 * np.sin(2 * np.pi * scen.grid.nodes)
    gain = GainSchedule(scen.grid, values[:, None, None])
    d = cost_gradient(scen, kernel_bundle(scen, gain), bars).curvature
    gaps = []
    for j in range(n // 10, n, n // 10):
        g = []
        for e in (eps, -eps):
            bumped = values.copy()
            bumped[j] += e
            bumped_gain = GainSchedule(scen.grid, bumped)
            g.append(cost_gradient(scen, kernel_bundle(scen, bumped_gain), bars).values[j])
        gaps.append(abs((g[0] - g[1]) / (2 * eps) - d[j]) / d[j])
    return max(gaps)


class TestCurvature:
    @pytest.mark.parametrize("build", [classical_scenario, cross_pairing_probe])
    def test_matches_central_difference_to_first_order(self, build):
        # P and L move with G_j only through O(dt) quadrature weights
        coarse = _curvature_gap(build(steps=100))
        fine = _curvature_gap(build(steps=200))
        assert coarse <= 0.15
        assert coarse / fine >= 1.8

    def test_nonnegative_and_zero_at_horizon(self):
        scen = random_smooth_scenario(seed=5, steps=200)
        gain = GainSchedule.constant(scen.grid, 0.5)
        d = cost_gradient(scen, kernel_bundle(scen, gain), measure_averages(scen)).curvature
        assert d[-1] == 0.0
        assert np.all(d[:-1] > 0.0)


class TestStationarityResidual:
    """The sup-norm of the gradient density, which
    ``OptimizationReport.stationarity`` reports."""

    def test_zero_gain_value(self):
        scen = classical_scenario(steps=200)
        resid = _stationarity(scen, GainSchedule.constant(scen.grid, 0.0))
        # tail integral of the zero-gain kernel peaks at mid-horizon: 2t(1-t)
        assert resid == pytest.approx(0.5, abs=1e-3)

    def test_small_at_reference(self):
        scen = classical_scenario(steps=200)
        gain = GainSchedule.from_callable(scen.grid, np.tanh)
        assert _stationarity(scen, gain) <= 1e-3

    def test_zero_without_diffusion(self):
        scen = scalar_scenario(steps=60, sigma=0.0, gamma=0.0)
        resid = _stationarity(scen, GainSchedule.constant(scen.grid, 0.3))
        assert resid == 0.0

    def test_report_stationarity_is_gradient_sup(self):
        scen = cross_pairing_probe(steps=100)
        report = optimize_gain(scen, max_iter=3)
        assert report.stationarity == _stationarity(scen, report.gain)


class TestBuildFilter:
    """The filter's closed-loop coefficients h = A - gain C and
    m = B - gain D are the drifts ``H`` and ``M`` of the kernel bundle."""

    def test_zero_gain_passthrough(self):
        scen = scalar_scenario(steps=40, A=0.7, B=0.3)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.0))
        np.testing.assert_allclose(bundle.H, scen.A)
        np.testing.assert_allclose(bundle.M, scen.B)

    def test_classical_reference_filter(self):
        scen = classical_scenario(steps=100)
        bundle = kernel_bundle(scen, GainSchedule.from_callable(scen.grid, np.tanh))
        np.testing.assert_allclose(bundle.H.reshape(-1), -np.tanh(scen.grid.nodes))
        np.testing.assert_allclose(bundle.M, 0.0, atol=0)

    def test_normal_flow_reference_filter(self):
        scen = normal_flow_scenario(steps=100)
        sol = riccati_normal_flow(0.0, 1.0, scen.grid)
        bundle = kernel_bundle(scen, sol.gain())
        np.testing.assert_allclose(bundle.H.reshape(-1), -sol.state, atol=1e-12)

    def test_grid_mismatch(self):
        scen = classical_scenario(steps=100)
        with pytest.raises(ScenarioError):
            kernel_bundle(scen, GainSchedule.constant(make_grid(1.0, 50), 0.0))


class TestDiagonalUpdate:
    """The gradient's ``diagonal_step``: the paper's necessary condition,
    the vanishing of the averaged sensitivity kernel on its diagonal."""

    @pytest.mark.parametrize("scen", [classical_scenario(steps=200),
                                      normal_flow_scenario(steps=200),
                                      cross_pairing_probe(steps=200),
                                      random_smooth_scenario(seed=3, steps=200)],
                             ids=["classical", "normal-flow", "probe", "random"])
    def test_matches_row_quadrature(self, scen):
        bars = measure_averages(scen)
        start = 0.3 + 0.2 * np.sin(2 * np.pi * scen.grid.nodes)
        gain = GainSchedule(scen.grid, start[:, None, None])
        step = cost_gradient(scen, kernel_bundle(scen, gain), bars).diagonal_step
        nodes = list(range(scen.grid.n_nodes))
        ref = _diagonal_update_by_rows(scen, bars, start, nodes, sweeps=1)
        np.testing.assert_allclose(start + step, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("build, reference", [
        (classical_scenario, lambda grid: riccati_classical(0.0, 1.0, 1.0, 1.0, grid)),
        (normal_flow_scenario, lambda grid: riccati_normal_flow(0.0, 1.0, grid)),
    ], ids=["classical", "normal-flow"])
    def test_second_order_at_riccati_reference(self, build, reference):
        # the Riccati gain satisfies the continuous condition, so what is
        # left is the quadrature error: 2.87e-5 at N = 100, a quarter of it
        # at each doubling
        sups = {}
        for steps in (100, 200, 400, 800, 1600):
            scen = build(steps=steps)
            gain = reference(scen.grid).gain()
            field = cost_gradient(scen, kernel_bundle(scen, gain), measure_averages(scen))
            sups[steps] = float(np.max(np.abs(field.diagonal_step)))
            assert sups[steps] <= 0.3 * scen.grid.dt**2, steps
        for coarse, fine in itertools.pairwise(sups):
            assert math.log2(sups[coarse] / sups[fine]) >= 1.8, (coarse, fine)
