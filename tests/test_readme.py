"""The ``python`` examples of ``README.md`` run against the library as it
is. They are read from source and executed block by block, so that a
changed signature cannot leave the README stale."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), flags=re.M | re.S)
    assert blocks
    for k, block in enumerate(blocks):
        exec(compile(block, f"{_README.name}, python block {k}", "exec"), {})
