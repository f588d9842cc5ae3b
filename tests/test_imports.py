"""What a fresh ``import mfkalman, mfkalman.cli`` loads and runs: PyYAML,
hashlib, the simulation's thread pool and the determinism check's
``subprocess`` and ``filecmp`` are imported where they are first used, so
a process that never reads a scenario file, hashes a scenario, runs a
threaded simulation or re-runs the artifact pipeline does not pay for them;
and no source is generated and compiled at import (``dataclasses``,
``namedtuple`` and other ``exec`` class factories do), so every command
pays only for the package's own files."""

from conftest import run_fresh

DEFERRED = ("yaml", "hashlib", "_hashlib", "concurrent.futures", "subprocess", "filecmp")

_CODE = """\
import sys
import mfkalman, mfkalman.cli
print(*sorted(m for m in {deferred!r} if m in sys.modules), sep=",")
scen = mfkalman.load_scenario(sys.argv[1])
print(scen.grid.n_steps, len(mfkalman.scenario_hash(scen)))
gain = mfkalman.GainSchedule.constant(scen.grid, 0.5)
ens = mfkalman.simulate_ensemble(scen, gain, n_paths=20, seed=3)
print(ens.n_paths, "concurrent.futures" in sys.modules)
"""

# numpy first, then count what importing the package compiles and runs from
# source strings: the compile event names the source's file, the exec event
# carries the code object
_GENERATED = """\
import sys
import numpy
events = {"compile": 0, "exec": 0}

def hook(event, args):
    if event == "compile" and args[1] == "<string>" or (
            event == "exec" and getattr(args[0], "co_filename", None) == "<string>"):
        events[event] += 1

sys.addaudithook(hook)
import mfkalman, mfkalman.cli
print(events["compile"], events["exec"], "dataclasses" in sys.modules)
"""


def test_fresh_import_defers_yaml_hashlib_and_executor(tmp_path):
    spec = tmp_path / "scenario.yaml"
    spec.write_text("horizon: 1.0\nsteps: 10\ncoefficients: {A: -0.5}\n")
    # two simulation threads, so the helper's executor is imported and used
    loaded, scenario, simulation = run_fresh(_CODE.format(deferred=DEFERRED), str(spec),
                                             MFK_THREADS="2")
    assert loaded == ""
    assert scenario == "10 16"
    assert simulation == "20 True"


def test_fresh_import_compiles_no_generated_source():
    assert run_fresh(_GENERATED) == ["0 0 False"]
