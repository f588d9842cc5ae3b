"""Acceptance suite: every release criterion at its stated tolerance.

One full validation run (via the CLI ``validate`` subcommand, which also
exercises the command wiring) backs all criterion assertions; each test
prints the criterion's pass/fail line and supporting detail.
"""

import collections
import contextlib
import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfkalman
from mfkalman import (
    GainSchedule,
    build_scenario,
    classical_scenario,
    dirac_measure,
    kernel_bundle,
    make_grid,
    riccati_classical,
    scenario_hash,
    validation,
)
from mfkalman.cli import main
from mfkalman.validation import DEFAULT_SEED, _dump_kernels, _rate_residuals, write_csv

from conftest import run_fresh


@pytest.fixture(scope="session")
def validate_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("validate")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["validate", "--seed", str(DEFAULT_SEED), "--out", str(out_dir)])
    text = buffer.getvalue()
    return code, text, out_dir


def _criterion_block(text: str, cid: str) -> str:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if f"] {cid}:" in line)
    block = [lines[start]]
    for line in lines[start + 1:]:
        if line.startswith("    "):
            block.append(line)
        else:
            break
    return "\n".join(block)


def _assert_criterion(validate_run, cid: str):
    _, text, _ = validate_run
    block = _criterion_block(text, cid)
    print(block)
    assert block.startswith(f"[PASS] {cid}:"), block


def test_c1_kernel_correctness(validate_run):
    """Semigroup identity to 1e-10 and mixed-kernel rate residual <= 1e-3."""
    _assert_criterion(validate_run, "C1")


def test_c2_covariance_rate_consistency(validate_run):
    """Central-difference covariance rate within 2% of twice the drift on
    both bundled scenarios at N=400, shrinking >= 3x at N=800."""
    _assert_criterion(validate_run, "C2")


def test_c3_gradient_correctness(validate_run):
    """Gradient pairings within 1e-3(1+|.|) of the fd oracle over five
    directions; the constant-direction value equals -1/3 within 1e-5."""
    _assert_criterion(validate_run, "C3")


def test_c4_classical_reproduction(validate_run):
    """Riccati endpoint tanh(1) to 1e-6; optimizer deviation <= 5e-3 and
    stationarity residual <= 1e-3 at N=200."""
    _assert_criterion(validate_run, "C4")


def test_c5_interacting_reproduction(validate_run):
    """Riccati endpoint to 1e-6, variance identity to 1e-6, gradient
    sup-norm at the reference gain <= 1e-3."""
    _assert_criterion(validate_run, "C5")


def test_c6_monte_carlo(validate_run):
    """20000-path error variance within 3 SE of the analytic covariance at
    t in {0.25, 0.5, 1.0}; mean within 3 SE of zero."""
    _assert_criterion(validate_run, "C6")


def test_c7_transcription_arbitration(validate_run):
    """Adopted formula variants agree with their oracles; discrepancies of
    both variants are reported."""
    _assert_criterion(validate_run, "C7")
    _, text, out_dir = validate_run
    block = _criterion_block(text, "C7")
    assert "adopted=rederived" in block
    assert (out_dir / "arbitration.csv").exists()


def test_c8_determinism(validate_run):
    """Re-running the suite with the same seed gives byte-identical CSVs."""
    _assert_criterion(validate_run, "C8")


def test_validate_exit_status(validate_run):
    code, text, out_dir = validate_run
    assert code == 0
    assert "8/8 criteria passed" in text
    assert sorted(p.name for p in out_dir.glob("*.csv"))  # artifacts present


def test_every_criterion_reports_runtime(validate_run):
    _, text, _ = validate_run
    for cid in (f"C{i}" for i in range(1, 9)):
        assert "    runtime " in _criterion_block(text, cid), cid


def test_validate_simulates_only_the_nodes_it_reads(tmp_path, monkeypatch):
    # C6 reads the error moments at t = 0.25, 0.5 and 1 of a 200-step
    # grid, C7(a) at the final node alone; the ensembles record no others
    requested = []
    simulate = validation.simulate_ensemble

    def recording(*args, **kwargs):
        requested.append(list(kwargs.get("nodes")))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(validation, "simulate_ensemble", recording)
    suite = validation.ValidationSuite(tmp_path)
    suite.criterion_monte_carlo()
    assert requested == [[50, 100, 200]]
    suite.criterion_arbitration()
    assert requested == [[50, 100, 200], [200]]


def _reference_line(row) -> str:
    """A CSV line as the files have it: floats (np.float64 included) as
    f"{x:.17g}", anything else as str."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)


def test_write_csv_matches_reference_formatter(tmp_path):
    row = (-0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf"), 7, "name",
           np.float64(0.1), np.float32(0.1), 1 / 3)
    # each column of the second row is another type of the same format:
    # a float kind where the first row has a float, else any other value
    again = (np.float64(2.5), -1e-300, np.float64(-0.0), 0.5, np.float64(1e300), 1 / 7,
             True, np.int64(-3), 0.25, "x", np.float64(float("nan")))
    path = tmp_path / "out.csv"
    write_csv(path, "h", [row, again], {"seed": 1})
    expected = [_reference_line(r) for r in (row, again)]
    assert path.read_text() == "\n".join(["# seed=1", "h"] + expected) + "\n"

    # a generator of rows (lists and tuples) in which every column changes
    # its type from one row to the next within its format
    floats = [2.5, np.float64(-0.0), float("nan"), np.float64(1 / 3), -float("inf"),
              np.float64(float("inf"))]
    others = [3, True, np.int64(-4), np.float32(0.1), "label", False]
    mixed = [[(floats if c % 2 else others)[(k + c) % 6] for c in range(4)]
             for k in range(12)]
    assert all(type(a) is not type(b) for r0, r1 in zip(mixed, mixed[1:])
               for a, b in zip(r0, r1))
    write_csv(path, "a,b,c,d", (r if k % 2 else tuple(r) for k, r in enumerate(mixed)),
              {"seed": 2, "n": 4})
    expected = [_reference_line(r) for r in mixed]
    assert path.read_text() == "\n".join(["# seed=2", "# n=4", "a,b,c,d"] + expected) + "\n"


def test_write_csv_chunks_keep_the_bytes(tmp_path):
    # runs longer than a chunk, a change of float kind inside a chunk and
    # on its boundary, and a last chunk that is not full
    chunk = validation._CSV_CHUNK
    rows = ([(k, k / 7) for k in range(chunk + 3)] + [(k, np.float64(k) / 9)
                                                      for k in range(chunk - 3)]
            + [(k, -k / 3) for k in range(2 * chunk + 1)])
    path = tmp_path / "out.csv"
    write_csv(path, "h", iter(rows), {"seed": 3})
    expected = [_reference_line(r) for r in rows]
    assert path.read_text() == "\n".join(["# seed=3", "h"] + expected) + "\n"

    def failing():   # raises after whole chunks were written
        yield from rows[:2 * chunk + 1]
        raise RuntimeError("row failed")

    with pytest.raises(RuntimeError, match="row failed"):
        write_csv(path, "h", failing(), {"seed": 3})
    assert not path.exists()


_HELD_AFTER_WRITE = """\
import sys, tracemalloc
from pathlib import Path
from mfkalman.validation import write_csv
labels = [str(k) for k in range(4000)]
values = [k / 7 for k in range(4000)]
tracemalloc.start()
write_csv(Path(sys.argv[1]), "a,b,c", zip(labels, labels, values), {"seed": 1})
print(tracemalloc.get_traced_memory()[0])
"""


def test_write_csv_holds_no_run_of_rows(tmp_path):
    # zip reuses its row tuple once the consumer lets it go; a writer that
    # held runs of rows left about 2,000 freed tuples (123 KiB) on the
    # interpreter's tuple free list, so this runs in a fresh interpreter
    (held,) = run_fresh(_HELD_AFTER_WRITE, str(tmp_path / "rows.csv"))
    assert int(held) < 8 * 1024


def test_write_csv_row_that_raises_leaves_no_file(tmp_path):
    def rows():
        yield (1.0, 2)
        raise RuntimeError("row failed")

    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="row failed"):
        write_csv(path, "a,b", rows(), {"seed": 1})
    assert not path.exists()


@pytest.mark.parametrize("late", [False, True], ids=["first-chunk", "after-whole-chunks"])
@pytest.mark.parametrize("misfit", [("x", 2), (1, 2), (1.0, 2.0), (1.0,), (1.0, 2, 3)],
                         ids=["str-for-float", "int-for-float", "float-for-int", "short",
                              "long"])
def test_write_csv_row_that_does_not_fit_raises_and_leaves_no_file(tmp_path, misfit, late):
    # the first row (float, int) fixes the file's format
    rows = [(0.5, k) for k in range(2 * validation._CSV_CHUNK + 5 if late else 3)]
    rows.insert(len(rows) - 2, misfit)
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="does not fit the columns of the first row"):
        write_csv(path, "a,b", iter(rows), {"seed": 1})
    assert not path.exists()


def _reference_kernel_csvs(bundle, seed: int) -> dict[str, str]:
    """The three kernel CSVs of ``bundle`` rendered value by value."""
    scen = bundle.scenario
    head = [f"# scenario_hash={scenario_hash(scen)}", f"# seed={seed}",
            f"# grid=T={scen.grid.horizon:g},N={scen.grid.n_steps}",
            f"# version={mfkalman.__version__}", "t,s,value"]
    t = bundle.grid.nodes
    out = {}
    for name, kernel in (("kernel_phi.csv", bundle.phi), ("kernel_psi.csv", bundle.psi),
                         ("kernel_f.csv", bundle.f)):
        body = [f"{t[i]:.17g},{t[j]:.17g},{kernel.values[i, j]:.17g}"
                for i in range(len(t)) for j in range(i + 1)]
        out[name] = "\n".join(head + body) + "\n"
    return out


def _tanh_bundle(steps: int):
    scen = classical_scenario(steps=steps)
    return kernel_bundle(scen, GainSchedule.from_callable(scen.grid, np.tanh))


def test_dump_kernels_matches_reference_rendering(tmp_path):
    bundle = _tanh_bundle(50)
    _dump_kernels(tmp_path, bundle, 5)
    for name, text in _reference_kernel_csvs(bundle, 5).items():
        assert (tmp_path / name).read_text() == text, name


def test_kernels_command_matches_reference_rendering(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["kernels", "--gain", "reference", "--steps", "50", "--out", str(tmp_path)])
    assert code == 0
    scen = classical_scenario(steps=50)
    bundle = kernel_bundle(scen, riccati_classical(0.0, 1.0, 1.0, 1.0, scen.grid).gain())
    for name, text in _reference_kernel_csvs(bundle, DEFAULT_SEED).items():
        assert (tmp_path / name).read_text() == text, name


def test_dump_kernels_streams_its_rows(tmp_path):
    # the rows go to the file as they are made, each read from the O(N)
    # tables: neither the rows, nor the text of a file, nor a triangle is
    # held whole (6.4 MB at N = 200 when the rows and text were; 64 kB now)
    bundle = _tanh_bundle(200)
    _dump_kernels(tmp_path, bundle, 1)   # imports on first use
    tracemalloc.start()
    try:
        _dump_kernels(tmp_path, bundle, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
    assert not {"phi", "psi", "f"} & set(vars(bundle))


def test_kernel_export_memory_is_linear_in_n(monkeypatch):
    # the export and the rate residuals read rows i - 1, i, i + 1 from the
    # O(N) tables, so at N = 1500 they take O(N) memory, not the ~110 MB
    # of (N+1)^2 triangles. write_csv only drains the rows here: formatting
    # 3.4 million rows under tracemalloc takes about a minute, and the
    # test above pins that it streams
    monkeypatch.setattr(validation, "write_csv",
                        lambda path, header, rows, meta: collections.deque(rows, maxlen=0))
    bundle = _tanh_bundle(1500)
    tracemalloc.start()
    try:
        _dump_kernels(Path("unused"), bundle, 1)
        _rate_residuals(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert not {"phi", "psi", "f"} & set(vars(bundle))


def _triangle_rate_residuals(bundle) -> tuple[float, float]:
    """:func:`_rate_residuals` over the whole dense triangles at once."""
    Fv, Pv, Sv = bundle.f.values, bundle.phi.values, bundle.psi.values
    dt = bundle.grid.dt
    mid = slice(1, len(Fv) - 1)
    M, H = bundle.M.reshape(-1, 1)[mid], bundle.H.reshape(-1, 1)[mid]
    below = np.tri(len(Fv), k=-1, dtype=bool)[mid]   # the cells j < i
    f_rate = (Fv[2:] - Fv[:-2]) / (2 * dt) - M * Pv[mid] - H * Fv[mid]
    psi_rate = (Sv[2:] - Sv[:-2]) / (2 * dt) - H * Sv[mid]
    return float(np.max(np.abs(f_rate[below]))), float(np.max(np.abs(psi_rate[below])))


@pytest.mark.parametrize("case", ["tanh", "rough", "unstable"])
def test_rate_residuals_equal_the_triangle_form(case, rough_pack):
    if case == "tanh":
        bundle = _tanh_bundle(120)
    elif case == "rough":
        scen, _, gain, _ = rough_pack
        bundle = kernel_bundle(scen, gain)
    else:   # the kernels overflow near t = 35: NaN residuals, as the triangles give
        scen = build_scenario(make_grid(50.0, 400), measure=dirac_measure(0.0), A=20.0)
        bundle = kernel_bundle(scen, GainSchedule.constant(scen.grid, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(_rate_residuals(bundle), _triangle_rate_residuals(bundle))
