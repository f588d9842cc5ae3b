"""C8, the determinism criterion: its re-run runs the real artifact pipeline
in a fresh interpreter, so every difference made here on the suite's side
must show in C8, and a failed or interrupted suite run must leave no
re-run behind."""

import contextlib
import io
import subprocess
from pathlib import Path

import pytest

import mfkalman
from mfkalman.cli import main
from mfkalman.validation import CriterionResult, ValidationSuite, write_csv

SHADOW = ".determinism-recheck"


def _c8_block(text: str) -> list[str]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if "] C8:" in line)
    block = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith("    "):
            break
        block.append(line.strip())
    return block


@pytest.fixture(scope="module")
def perturbed_c8(tmp_path_factory):
    """C8 lines of one ``validate`` run whose own side differs from its
    re-run: kernel_phi.csv has one byte changed, C7 writes extra.csv in
    place of arbitration.csv, and mfkalman appears to come from elsewhere."""
    out = tmp_path_factory.mktemp("perturbed")
    elsewhere = (out.parent / "elsewhere" / "mfkalman" / "__init__.py").resolve()
    real_kernels = ValidationSuite.criterion_kernels

    def kernels_one_byte_off(self):
        res = real_kernels(self)
        path = self.out / "kernel_phi.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1   # the last digit of the last value
        path.write_bytes(bytes(data))
        return res

    def arbitration_elsewhere(self):
        write_csv(self.out / "extra.csv", "h", [(1,)], {"seed": self.seed})
        return CriterionResult("C7", "transcription arbitration", True)

    buffer = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buffer):
        mp.setattr(ValidationSuite, "criterion_kernels", kernels_one_byte_off)
        mp.setattr(ValidationSuite, "criterion_arbitration", arbitration_elsewhere)
        mp.setattr(mfkalman, "__file__", str(elsewhere))
        code = main(["validate", "--out", str(out)])
    return code, _c8_block(buffer.getvalue()), elsewhere


def test_c8_flags_changed_byte(perturbed_c8):
    code, block, _ = perturbed_c8
    assert code == 1
    assert block[0] == "[FAIL] C8: deterministic outputs"
    assert "kernel_phi.csv: bytes differ" in block


def test_c8_flags_csv_missing_in_rerun(perturbed_c8):
    assert "extra.csv: missing in re-run" in perturbed_c8[1]


def test_c8_flags_csv_missing_in_this_run(perturbed_c8):
    assert "arbitration.csv: missing in this run" in perturbed_c8[1]


def test_c8_names_both_module_files(perturbed_c8):
    _, block, elsewhere = perturbed_c8
    real = Path(mfkalman.__file__).resolve()   # what the re-run imports
    assert f"re-run imported mfkalman from {real}, this run from {elsewhere}" in block
    assert len(block) == 1 + 4 + 1, block   # status, the four differences, runtime


def test_force_replaces_stale_csv(tmp_path, capsys):
    (tmp_path / "old_artifact.csv").write_text("from an earlier version\n")
    assert main(["validate", "--out", str(tmp_path)]) == 2
    assert "use --force" in capsys.readouterr().err
    assert main(["validate", "--out", str(tmp_path), "--force"]) == 0
    block = _c8_block(capsys.readouterr().out)
    assert block[:2] == ["[PASS] C8: deterministic outputs",
                         "all CSV artifacts byte-identical across re-run"]
    assert not (tmp_path / "old_artifact.csv").exists()
    assert not (tmp_path / SHADOW).exists()


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_interrupted_run_stops_rerun(tmp_path, monkeypatch, exc):
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    def gradient_raises(self):
        raise exc("stop")

    monkeypatch.setattr(subprocess, "Popen", Recording)
    monkeypatch.setattr(ValidationSuite, "criterion_gradient", gradient_raises)
    with pytest.raises(exc):
        ValidationSuite(tmp_path).run_all()
    assert len(started) == 1
    assert started[0].returncode is not None   # reaped, so no live child
    assert not (tmp_path / SHADOW).exists()


def test_rerun_that_cannot_write_fails_c8_with_status(tmp_path):
    (tmp_path / SHADOW).write_text("a file where the re-run's directory goes\n")
    res = ValidationSuite(tmp_path).criterion_determinism()
    assert not res.passed
    assert res.details[0] == "re-run exited with status 1; stderr ends:"
    assert "FileExistsError" in res.details[-1]
