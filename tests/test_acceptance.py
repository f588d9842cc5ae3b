"""Acceptance suite: every release criterion at its stated tolerance.

One full validation run (via the CLI ``validate`` subcommand, which also
exercises the command wiring) backs all criterion assertions; each test
prints the criterion's pass/fail line and supporting detail.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

import mfkalman
from mfkalman import (
    GainSchedule,
    classical_scenario,
    kernel_bundle,
    riccati_classical,
    scenario_hash,
)
from mfkalman.cli import main
from mfkalman.validation import DEFAULT_SEED, _dump_kernels, write_csv


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


def _reference_line(row) -> str:
    """A CSV line as the files have it: floats (np.float64 included) as
    f"{x:.17g}", anything else as str."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)


def test_write_csv_matches_reference_formatter(tmp_path):
    row = (-0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf"), 7, "name",
           np.float64(0.1), np.float32(0.1), 1 / 3)
    path = tmp_path / "out.csv"
    write_csv(path, "h", [row, row[::-1]], {"seed": 1})
    expected = [_reference_line(r) for r in (row, row[::-1])]
    assert path.read_text() == "\n".join(["# seed=1", "h"] + expected) + "\n"

    # a generator of rows (lists and tuples) in which every column changes
    # its type from one row to the next
    cycle = [3, 2.5, True, np.int64(-4), -0.0, np.float32(0.1), float("nan"), "label",
             float("inf"), False, -float("inf"), np.float64(1 / 3)]
    mixed = [[cycle[(k + c) % len(cycle)] for c in range(4)] for k in range(2 * len(cycle))]
    assert all(type(a) is not type(b) for r0, r1 in zip(mixed, mixed[1:])
               for a, b in zip(r0, r1))
    write_csv(path, "a,b,c,d", (r if k % 2 else tuple(r) for k, r in enumerate(mixed)),
              {"seed": 2, "n": 4})
    expected = [_reference_line(r) for r in mixed]
    assert path.read_text() == "\n".join(["# seed=2", "# n=4", "a,b,c,d"] + expected) + "\n"


def test_write_csv_row_that_raises_leaves_no_file(tmp_path):
    def rows():
        yield (1.0, 2)
        raise RuntimeError("row failed")

    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="row failed"):
        write_csv(path, "a,b", rows(), {"seed": 1})
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
    # the rows go to the file as they are made: neither the rows nor the
    # text of a file is held whole (6.4 MB at N = 200 when they were)
    bundle = _tanh_bundle(200)
    _dump_kernels(tmp_path, bundle, 1)   # builds the triangles, imports on first use
    tracemalloc.start()
    try:
        _dump_kernels(tmp_path, bundle, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6
