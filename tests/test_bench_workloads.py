"""The benchmark's optimizer workloads (``bench/workloads.py``) call the
public API that ``bench/`` depends on: ``optimize_gain``, ``GainSchedule``,
``kernel_bundle``, ``trace_cost``, ``cost_gradient``, ``fd_cost_slope``,
``measure_averages`` and the two scenarios. Each workload runs here at its
small size, and every one of its correctness checks must hold. These tests
read ``bench/`` and change nothing there."""

import types
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads() -> dict:
    # executed from source, so no bytecode cache is written under bench/
    module = types.ModuleType("bench_workloads")
    exec(compile(_WORKLOADS.read_text(), str(_WORKLOADS), "exec"), module.__dict__)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["optimize-classical", "optimize-coupled"])
def test_small_workload_passes_its_checks(name, seed):
    workload = WORKLOADS[name]
    state = workload.setup(seed, small=True)
    checks = workload.check(state, workload.run(state))
    assert checks and all(ok for _, ok in checks), checks
