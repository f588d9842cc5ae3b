"""``README.md`` against the library as it is. Its ``python`` examples are
read from source and executed block by block, and its ``yaml`` examples
loaded as scenario files, so that a changed signature or file format
cannot leave the README stale, and the simulator sizes and random
generator it quotes are the code's constants."""

import re
from pathlib import Path

import pytest

from mfkalman import load_scenario, scenario_hash, simulation

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), flags=re.M | re.S)
    assert blocks
    for k, block in enumerate(blocks):
        exec(compile(block, f"{_README.name}, python block {k}", "exec"), {})


def test_yaml_examples_load(tmp_path):
    blocks = re.findall(r"^```yaml\n(.*?)^```", _README.read_text(), flags=re.M | re.S)
    assert blocks
    for k, block in enumerate(blocks):
        path = tmp_path / f"block{k}.yaml"
        path.write_text(block)
        assert load_scenario(path).scalar_mode


def test_yaml_example_keeps_its_hash(tmp_path):
    # the scenario the first example file describes, pinned: a change in
    # how a file is read shows here
    block = re.search(r"^```yaml\n(.*?)^```", _README.read_text(), flags=re.M | re.S)[1]
    path = tmp_path / "example.yaml"
    path.write_text(block)
    assert scenario_hash(load_scenario(path)) == "8a683c5aa3b283c3"


@pytest.mark.parametrize("patterns,value", [
    ((r"(\d+)-path block",), simulation._BLOCK),
    ((r"first (\d+) replications",), simulation.KEPT_PATHS),
    # one block's draw buffer for d = 1: one step's 2 x _BLOCK doubles
    ((r"(\d+) kB for d = 1",), 2 * simulation._BLOCK * 8 // 1024),
    ((r"\b(MT19937|PCG64DXSM|PCG64|Philox|SFC64)\b",), simulation._BITGEN),
], ids=["block", "kept", "buffer", "generator"])
def test_simulator_numbers_match_the_code(patterns, value):
    # every place the README quotes one of these numbers, or names a numpy
    # bit generator, quotes the code's
    text = " ".join(_README.read_text().split())   # one line, so a match may wrap
    found = [m for p in patterns for m in re.findall(p, text)]
    assert found
    assert set(found) == {str(value)}
