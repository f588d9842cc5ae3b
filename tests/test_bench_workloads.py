"""The benchmark's optimizer workloads (``bench/workloads.py``) call the
public API that ``bench/`` depends on: ``optimize_gain``, ``GainSchedule``,
``kernel_bundle``, ``trace_cost``, ``cost_gradient``, ``fd_cost_slope``,
``measure_averages`` and the two scenarios. Each workload runs here at its
small size, and every one of its correctness checks must hold, as must the
traced run's call-count checks (``bench/worker.py``). These tests read
``bench/`` and change nothing there."""

import types
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_OPTIMIZE = ["optimize-classical", "optimize-coupled"]


def _from_source(name: str) -> types.ModuleType:
    # executed from source, so no bytecode cache is written under bench/
    path = _BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _from_source("workloads").WORKLOADS


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", _OPTIMIZE)
def test_small_workload_passes_its_checks(name, seed):
    workload = WORKLOADS[name]
    state = workload.setup(seed, small=True)
    checks = workload.check(state, workload.run(state))
    assert checks and all(ok for _, ok in checks), checks


@pytest.mark.parametrize("name", _OPTIMIZE)
def test_traced_call_counts_match_reports(name):
    # per converged run: kernel_bundle = trials + 2, cost_gradient =
    # iterations + 2, counted as the benchmark's traced run counts them
    layers, worker = _from_source("layers"), _from_source("worker")
    tracer = _from_source("tracer").Tracer()
    tracer.install("mfkalman", probes=layers.PROBES)
    try:
        for seed in (1, 2, 3):
            workload = WORKLOADS[name]
            workload.run(workload.setup(seed, small=True))
    finally:
        tracer.uninstall()
    table = layers.SpanTable(tracer)
    assert table.optimizer_counts()["runs"] == 3
    checks = worker._count_checks(table)
    assert checks and all(ok for _, ok in checks), (checks, table.optimizer_counts())
