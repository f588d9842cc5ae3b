"""Acceptance suite: every release criterion at its stated tolerance.

One full validation run (via the CLI ``validate`` subcommand, which also
exercises the command wiring) backs all criterion assertions; each test
prints the criterion's pass/fail line and supporting detail.
"""

import contextlib
import io

import numpy as np
import pytest

from mfkalman.cli import main
from mfkalman.validation import DEFAULT_SEED, write_csv


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


def test_write_csv_matches_reference_formatter(tmp_path):
    # reference: floats (np.float64 included) as f"{x:.17g}", anything else as str
    row = (-0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf"), 7, "name",
           np.float64(0.1), np.float32(0.1), 1 / 3)
    path = tmp_path / "out.csv"
    write_csv(path, "h", [row, row[::-1]], {"seed": 1})
    expected = [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in r)
                for r in (row, row[::-1])]
    assert path.read_text() == "\n".join(["# seed=1", "h"] + expected) + "\n"
