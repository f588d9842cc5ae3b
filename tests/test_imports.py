"""What a fresh ``import mfkalman, mfkalman.cli`` loads: PyYAML, hashlib,
the simulation's thread pool and the determinism check's ``subprocess`` and
``filecmp`` are imported where they are first used, so a process that never
reads a scenario file, hashes a scenario, runs a threaded simulation or
re-runs the artifact pipeline does not pay for them."""

import os
import subprocess
import sys
from pathlib import Path

import mfkalman

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


def test_fresh_import_defers_yaml_hashlib_and_executor(tmp_path):
    spec = tmp_path / "scenario.yaml"
    spec.write_text("horizon: 1.0\nsteps: 10\ncoefficients: {A: -0.5}\n")
    src = str(Path(mfkalman.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    # two simulation threads, so the helper's executor is imported and used
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src,
               MFK_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", _CODE.format(deferred=DEFERRED), str(spec)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, scenario, simulation = proc.stdout.splitlines()
    assert loaded == ""
    assert scenario == "10 16"
    assert simulation == "20 True"
