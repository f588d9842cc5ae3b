import argparse
import json

import numpy as np
import pytest

from mfkalman import (
    GainSchedule,
    ScenarioError,
    classical_scenario,
    kernel_bundle,
    load_scenario,
    optimize_gain,
)
from mfkalman import cli, scenarios
from mfkalman.cli import main


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestSimulate:
    def test_zero_paths_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--paths", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "simulate" in capsys.readouterr().err

    def test_one_path_rejected_before_writing(self, tmp_path, capsys):
        # the statistics need two replications; nothing may be written first
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--steps", "20", "--paths", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--paths" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_paths_and_statistics(self, tmp_path):
        code = main(["simulate", "--scenario", "classical", "--steps", "50",
                     "--paths", "200", "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        meta, header, rows = read_csv(tmp_path / "paths.csv")
        assert header == ["rep", "atom", "t", "x", "y", "z", "e"]
        assert meta["seed"] == "5"
        # error column starts at zero for every replication
        first_nodes = [r for r in rows if float(r[2]) == 0.0]
        assert all(float(r[6]) == 0.0 for r in first_nodes)
        meta, header, rows = read_csv(tmp_path / "statistics.csv")
        assert header == ["atom", "t", "mean", "var", "se_mean", "se_var"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--steps", "40", "--paths", "100", "--seed", "3",
                "--out", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "paths.csv").read_bytes()
        assert main(args + ["--force"]) == 0
        assert (tmp_path / "paths.csv").read_bytes() == first

    def test_overwrite_needs_force(self, tmp_path, capsys):
        args = ["simulate", "--steps", "40", "--paths", "50", "--out", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 2
        assert "exists" in capsys.readouterr().err


class TestKernels:
    def test_psi_diagonal_is_one(self, tmp_path):
        code = main(["kernels", "--scenario", "classical", "--steps", "60",
                     "--gain", "reference", "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "kernel_psi.csv")
        assert header == ["t", "s", "value"]
        diag = [r for r in rows if r[0] == r[1]]
        assert len(diag) == 61
        assert all(float(r[2]) == 1.0 for r in diag)

    def test_f_diagonal_is_zero(self, tmp_path):
        code = main(["kernels", "--steps", "60", "--out", str(tmp_path)])
        assert code == 0
        _, _, rows = read_csv(tmp_path / "kernel_f.csv")
        diag = [r for r in rows if r[0] == r[1]]
        assert all(float(r[2]) == 0.0 for r in diag)
        assert (tmp_path / "kernels_report.txt").exists()


class TestCovariance:
    def test_initial_node_zero(self, tmp_path):
        code = main(["covariance", "--scenario", "normal-flow", "--steps", "50",
                     "--gain", "reference", "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "covariance.csv")
        assert header == ["atom", "t", "K"]
        start = [r for r in rows if float(r[1]) == 0.0]
        assert len(start) == 11  # one per quadrature atom
        assert all(float(r[2]) == 0.0 for r in start)


class TestGradcheck:
    def test_constant_direction_row(self, tmp_path):
        code = main(["gradcheck", "--scenario", "classical", "--seed", "9",
                     "--out", str(tmp_path)])
        assert code == 0
        meta, header, rows = read_csv(tmp_path / "gradcheck.csv")
        assert header == ["direction", "pairing", "fd_oracle", "abs_diff"]
        first = rows[0]
        assert float(first[1]) == pytest.approx(-1.0 / 3.0, abs=1e-5)
        assert float(first[3]) <= 1e-5
        # remaining directions satisfy the relative tolerance
        for row in rows[1:]:
            assert float(row[3]) <= 1e-3 * (1 + abs(float(row[1])))

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_directions_below_one_rejected(self, tmp_path, capsys, count):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--steps", "20", "--directions", count, "--out", str(out)])
        assert exc.value.code == 2
        assert "--directions" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["0", "-1e-4"])
    def test_nonpositive_eps_rejected_before_output(self, tmp_path, capsys, eps):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--steps", "20", f"--eps={eps}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_nonfinite_eps_rejected_before_output(self, tmp_path, capsys, eps):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--steps", "20", f"--eps={eps}", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --eps: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_eps_recorded_in_full(self, tmp_path):
        assert main(["gradcheck", "--steps", "20", "--eps", "1.23456789e-4",
                     "--directions", "1", "--out", str(tmp_path)]) == 0
        meta, _, _ = read_csv(tmp_path / "gradcheck.csv")
        assert float(meta["eps"]) == 1.23456789e-4


class TestOptimize:
    @pytest.mark.parametrize("flag", ["--max-iter=0", "--max-iter=-1",
                                      "--grad-tol=0", "--grad-tol=-1e-5",
                                      "--grad-tol=inf", "--grad-tol=nan"])
    def test_bad_limit_rejected_before_output(self, tmp_path, capsys, flag):
        # --grad-tol=inf used to report "converged: True" after 0 iterations
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--steps", "20", flag, "--out", str(out)])
        assert exc.value.code == 2
        assert flag.partition("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_run_fails_after_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["optimize", "--steps", "20", "--max-iter", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "converged: False" in captured.out
        assert "error in stage optimize: iteration limit reached" in captured.err
        assert sorted(p.name for p in out.iterdir()) == [
            "filter.csv", "optimizer_gain.csv", "optimizer_report.txt",
            "optimizer_trajectory.csv"]

    def test_converging_on_the_last_allowed_iteration_exits_0(self, tmp_path, capsys):
        # the default run on classical N = 200 converges in 3 iterations; with
        # --max-iter 3 it used to exit 1 with "iteration limit reached"
        assert optimize_gain(classical_scenario(200)).iterations == 3
        assert main(["optimize", "--steps", "200", "--max-iter", "3",
                     "--out", str(tmp_path)]) == 0
        assert "converged: True" in capsys.readouterr().out

    def test_classical_run(self, tmp_path, capsys):
        code = main(["optimize", "--scenario", "classical", "--steps", "150",
                     "--grad-tol", "1e-5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "max gain deviation from closed-form reference" in out
        assert "line-search trials: " in out
        dev = float(out.rsplit(":", 1)[1])
        assert dev <= 5e-3
        meta, header, rows = read_csv(tmp_path / "optimizer_trajectory.csv")
        assert header == ["iter", "J", "grad_norm"]
        costs = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        _, header, rows = read_csv(tmp_path / "filter.csv")
        assert header == ["t", "h", "m", "gain"]
        # classical: h = -gain, m = 0
        assert all(float(r[1]) == pytest.approx(-float(r[3]), abs=1e-12) for r in rows)
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_filter_columns_are_bundle_drifts(self, tmp_path):
        # mean-coupled, so m = B - gain D is not zero
        spec = tmp_path / "scen.yaml"
        spec.write_text("steps: 60\n"
                        "measure: {kind: discrete, points: [[-1.0], [1.0]], weights: [0.5, 0.5]}\n"
                        "coefficients: {A: 0.2, B: \"0.5 * cos(t)\", C: 1.0, D: 0.1}\n"
                        "sigma: \"1.0 + 0.25 * u\"\n")
        out = tmp_path / "out"
        assert main(["optimize", "--scenario", str(spec), "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "filter.csv")
        t, h, m, gain = np.array(rows, dtype=float).T
        scen = load_scenario(spec)
        np.testing.assert_array_equal(t, scen.grid.nodes)
        bundle = kernel_bundle(scen, GainSchedule(scen.grid, gain))
        assert np.any(bundle.M != 0.0)
        np.testing.assert_array_equal(h, bundle.H[:, 0, 0])
        np.testing.assert_array_equal(m, bundle.M[:, 0, 0])

    @pytest.mark.parametrize("gain", ["zero", "reference"])
    def test_gain_option_rejected(self, tmp_path, capsys, gain):
        # the optimizer starts from zero whatever --gain says, so it takes none
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--gain", gain, "--out", str(out)])
        assert exc.value.code == 2
        assert "--gain" in capsys.readouterr().err
        assert not out.exists()


class TestScenarioFiles:
    def test_yaml_round_trip(self, tmp_path):
        spec = tmp_path / "scen.yaml"
        spec.write_text(
            "horizon: 1.0\n"
            "steps: 60\n"
            "measure: {kind: discrete, points: [[-1.0], [1.0]], weights: [0.5, 0.5]}\n"
            "coefficients:\n"
            "  A: 0.2\n"
            "  B: \"0.5 * cos(t)\"\n"
            "  C: 1.0\n"
            "  D: 0.1\n"
            "sigma: \"1.0 + 0.25 * u\"\n"
            "gamma: \"0.6 + 0.2 * u\"\n"
            "noise: {Q: 1.0, Q0: 1.0}\n"
            "cost_weight: 1.0\n"
        )
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(spec), "--paths", "50",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out / "statistics.csv")
        atoms = {r[0] for r in rows}
        assert atoms == {"0", "1"}

    @pytest.mark.parametrize("spec, points", [("{kind: dirac}", [[0.0]]),
                                              ("{kind: dirac, x0: 2.0}", [[2.0]]),
                                              ("{kind: gauss_hermite}", 11),
                                              ("{kind: gauss_hermite, n_nodes: 3}", 3)])
    def test_measure_defaults(self, tmp_path, spec, points):
        path = tmp_path / "scen.yaml"
        path.write_text(f"steps: 10\nmeasure: {spec}\n")
        atoms = load_scenario(path).measure.points
        if isinstance(points, int):
            assert atoms.shape == (points, 1)
        else:
            np.testing.assert_array_equal(atoms, points)

    def test_unknown_measure_kind_rejected(self, tmp_path):
        path = tmp_path / "scen.yaml"
        path.write_text("measure: {kind: uniform}\n")
        with pytest.raises(ScenarioError, match="unknown measure kind 'uniform'"):
            load_scenario(path)
        path.write_text("measure: {kind: [dirac]}\n")
        with pytest.raises(ScenarioError, match=r"unknown measure kind \['dirac'\]"):
            load_scenario(path)

    @pytest.mark.parametrize("text, match", [
        ("steps: 2.7", "steps must be an integer"),
        ("horizon: one", "horizon must be a number"),
        ("coeficients: {A: -1.0}", "unknown key 'coeficients' in scenario file"),
        ("coefficients: {E: 1.0}", "unknown key 'E' in coefficients"),
        ("measure: {kind: dirac, y0: 1.0}", "unknown key 'y0' in measure"),
        ("measure: dirac", "measure must be a mapping"),
        ("noise: [1, 2]", "noise must be a mapping"),
        ("sigma: {a: 1}", "sigma must be a number"),
        ("measure: {kind: discrete}", "measure 'discrete' needs the parameter 'points'"),
        # expressions that fail to parse or to evaluate: the key, the
        # expression and, once evaluated, the point where it failed
        ('coefficients: {A: "1 +"}', r"^A: cannot parse expression '1 \+'"),
        ('coefficients: {A: "exp(1000 * t)"}',
         r"^A: expression 'exp\(1000 \* t\)' raised OverflowError at t=0\.71"),
        ('sigma: "1 / u"',
         r"^sigma: expression '1 / u' raised ZeroDivisionError at u=0\.0, t=0\.0"),
        ('cost_weight: "log(t)"',
         r"^cost_weight: expression 'log\(t\)' raised ValueError at t=0\.0"),
        ('coefficients: {B: "t(1)"}', r"^B: expression 't\(1\)' raised TypeError at t=0\.0"),
    ])
    def test_bad_file_rejected_naming_key(self, tmp_path, text, match):
        path = tmp_path / "scen.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ScenarioError, match=match):
            load_scenario(path)

    def test_failing_expression_exits_naming_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text('steps: 10\ncoefficients: {A: "exp(1000 * t)"}\n')
        out = tmp_path / "out"
        assert main(["covariance", "--scenario", str(path), "--out", str(out)]) == 1
        assert ("error in stage scenario: A: expression 'exp(1000 * t)' raised OverflowError"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_weights_named(self, tmp_path, capsys):
        path = tmp_path / "scen.yaml"
        path.write_text("steps: 10\nmeasure: {kind: discrete, points: [0.0, 1.0], "
                        "weights: [.nan, 1.0]}\n")
        with pytest.raises(ScenarioError, match="atom weights must be finite"):
            load_scenario(path)
        code = main(["covariance", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code != 0
        assert "atom weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "kernels", "covariance", "gradcheck",
                                         "optimize"])
    def test_matrix_scenario_not_exported(self, tmp_path, capsys, command):
        path = tmp_path / "scen.yaml"
        path.write_text("steps: 10\n"
                        "measure: {kind: discrete, points: [[0.0, 0.0]], weights: [1.0]}\n")
        assert not load_scenario(path).scalar_mode
        out = tmp_path / "out"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
        assert (f"error in stage {command}: CSV export supports scalar scenarios"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_reference_gain_needs_bundled_scenario(self, tmp_path, capsys):
        path = tmp_path / "scen.yaml"
        path.write_text("steps: 10\n")
        code = main(["kernels", "--scenario", str(path), "--gain", "reference",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("error in stage gain: --gain reference is only defined for bundled "
                "scenarios" in capsys.readouterr().err)

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "nope", "--out", str(tmp_path)])
        assert code != 0
        assert "scenario" in capsys.readouterr().err

    def test_malicious_expression_rejected(self, tmp_path, capsys):
        spec = tmp_path / "bad.yaml"
        spec.write_text("coefficients: {A: \"__import__('os')\"}\n")
        code = main(["simulate", "--scenario", str(spec), "--out", str(tmp_path)])
        assert code != 0

    # nested code has names of its own, which the top-level check never saw
    _NESTED = ["(lambda: ().__class__)()", "[v.__class__ for v in (t,)]",
               "abs(v.real for v in (t,))", "{v: v.imag for v in (t,)}[t]"]

    @pytest.mark.parametrize("expr", _NESTED)
    def test_nested_code_rejected_before_evaluation(self, expr):
        with pytest.raises(ScenarioError, match="not allowed in expression") as info:
            scenarios._compile_expr(expr, ("t",), "A")
        assert repr(expr) in str(info.value)

    @pytest.mark.parametrize("expr", _NESTED)
    def test_nested_code_rejected_in_scenario_files(self, tmp_path, capsys, expr):
        spec = tmp_path / "bad.yaml"
        spec.write_text(f"steps: 10\ncoefficients: {{A: {expr!r}}}\n")
        with pytest.raises(ScenarioError, match="not allowed in expression"):
            load_scenario(spec)
        out = tmp_path / "out"
        assert main(["covariance", "--scenario", str(spec), "--out", str(out)]) == 1
        assert "error in stage scenario: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("expr, want", [("2 * t  # ) + (", 0.5),
                                            ("(t  # ) + (\n + 1)", 1.25)])
    def test_comment_in_expression_is_ignored(self, tmp_path, expr, want):
        # the expression is compiled inside parentheses of its own, which
        # a comment must not swallow
        assert scenarios._compile_expr(expr, ("t",), "A")(0.25) == want
        spec = tmp_path / "scen.yaml"
        spec.write_text(f"steps: 4\ncoefficients: {{A: {json.dumps(expr)}}}\n")
        assert load_scenario(spec).A[1, 0, 0] == want

    def test_every_expression_name_evaluates(self):
        # each name of the namespace, and both arguments, in one expression
        names = " + ".join(f"{name}(0.5)" if callable(fn) else name
                           for name, fn in scenarios._EXPR_NAMES.items())
        fn = scenarios._compile_expr(f"{names} + u * t", ("u", "t"), "sigma")
        want = sum(fn(0.5) if callable(fn) else fn for fn in scenarios._EXPR_NAMES.values())
        assert fn(2.0, 3.0) == pytest.approx(want + 6.0, rel=1e-15)


class _ReadRecorder(argparse.Namespace):
    """Parsed options that record which of them the command reads."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_reads", None)   # None: not recording yet

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)

    def start(self):
        object.__setattr__(self, "_reads", set())

    def unread(self) -> set[str]:
        options = object.__getattribute__(self, "__dict__")
        return set(options) - {"_reads"} - options["_reads"]


# every subcommand, at sizes small enough for a quick run
_SMALL_RUNS = {
    "simulate": ["--steps", "20", "--paths", "4"],
    "kernels": ["--steps", "20"],
    "covariance": ["--steps", "20"],
    "gradcheck": ["--steps", "20", "--directions", "1"],
    "optimize": ["--steps", "20"],
    "validate": [],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_every_parsed_option_is_read(tmp_path, monkeypatch, command):
    """An option that its command never reads is one a user sets to no
    effect. argparse fills a namespace that records the reads made after
    parsing; each command must read every option it was given."""
    parsed = []
    build = cli._build_parser

    def recording_parser():
        parser = build()
        parse = parser.parse_args

        def parse_args(argv=None):
            parsed.append(parse(argv, namespace=_ReadRecorder()))
            parsed[-1].start()
            return parsed[-1]

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "_build_parser", recording_parser)
    # the suite itself is exercised elsewhere; its options are read before it runs
    monkeypatch.setattr(cli.ValidationSuite, "run_all", lambda self: [])
    # --out already holds a result: validate reads --force only then
    out = tmp_path / "out"
    out.mkdir()
    (out / "old.csv").write_text("")
    assert main([command, "--out", str(out), "--force"] + _SMALL_RUNS[command]) == 0
    assert parsed[0].unread() == set()


_UNSTABLE = "horizon: 50\nsteps: 400\ncoefficients: {A: 20.0}\n"


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in sorted(_SMALL_RUNS)
    for flag in ("--seed=-3", "--seed=x", "--steps=1", "--steps=0")
    if command != "validate" or flag.startswith("--seed")])
def test_bad_seed_or_steps_exits_2_before_output(tmp_path, capsys, command, flag):
    # validate --seed -3 used to write the CSVs of C1-C5 and then fail with
    # numpy's unnamed "expected non-negative integer"; --steps 1 exited 1
    out = tmp_path / "out"
    out.mkdir()
    stale = out / "old.csv"
    stale.write_text("")
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "--out", str(out), "--force"])
    assert exc.value.code == 2
    assert flag.partition("=")[0] in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["old.csv"]


class TestUnstableScenario:
    @pytest.mark.filterwarnings("error")
    def test_simulate_nonfinite_moments_exit_1_without_csv(self, tmp_path, capsys):
        # the states stay finite; their moments do not
        spec = tmp_path / "unstable.yaml"
        spec.write_text(_UNSTABLE)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(spec), "--paths", "4",
                     "--out", str(out)]) == 1
        assert "error in stage simulate: error moments are not finite at node" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_covariance_overflow_reaches_last_resort_handler(self, tmp_path, capsys):
        spec = tmp_path / "unstable.yaml"
        spec.write_text(_UNSTABLE)
        out = tmp_path / "out"
        assert main(["covariance", "--scenario", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error in stage covariance: covariance_profile: non-finite value at node 143\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_kernels_overflow_exits_1_naming_the_first_row(self, tmp_path, capsys):
        # it exited 0 with inf and NaN rows in every CSV and nan residuals
        spec = tmp_path / "unstable.yaml"
        spec.write_text(_UNSTABLE)
        scen = load_scenario(spec)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.0))
        finite = np.isfinite(np.stack([bundle.phi.values, bundle.psi.values, bundle.f.values]))
        row = int(np.flatnonzero(~finite.all(axis=(0, 2)))[0])
        out = tmp_path / "out"
        assert main(["kernels", "--scenario", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error in stage kernels: kernel export: non-finite value at node {row}\n")
        assert not out.exists()
