"""The benchmark's workloads: inputs made from a seed, the timed operation,
and the correctness checks on its outputs.

Each workload calls into ``mfkalman`` only through module attributes
(``mk.optimize_gain``, ``mk.scenarios.cross_pairing_probe``), so the
tracer, which rebinds those attributes, sees every call the workload
makes. A workload's timed operation returns only what its checks need;
large intermediate results are dropped before the next repetition.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from pathlib import Path

import numpy as np

import mfkalman as mk
import mfkalman.cli  # noqa: F401  (binds mk.cli for the validate workload)

# C4's floor on the optimized classical gain against the tanh reference.
TANH_TOL = 5e-3
# C3's floor: |pairing - fd| <= FD_TOL * (1 + |pairing|), central step FD_EPS.
FD_TOL = 1e-3
FD_EPS = 1e-4


def smooth_start(grid, seed: int):
    """Seeded smooth starting gain of amplitude at most 0.1."""
    rng = random.Random(seed)
    a, b, c = (rng.uniform(-1.0, 1.0) for _ in range(3))
    w = rng.randint(1, 3)
    t = grid.nodes / grid.horizon
    shape = a + b * np.sin(np.pi * w * t) + c * np.cos(2 * np.pi * t)
    values = 0.1 * shape / (abs(a) + abs(b) + abs(c))
    return mk.GainSchedule(grid, values[:, None, None])


def _grad_tol(scen, gain, bars) -> float:
    """The optimizer's default tolerance, 1e-4 * (1 + |J|) at the start."""
    J0 = mk.trace_cost(scen, mk.kernel_bundle(scen, gain), bars)
    return 1e-4 * (1.0 + abs(J0))


class Optimize:
    """``optimize_gain`` with the default ``grad_tol`` from a seeded start."""

    name = ""
    steps = small_steps = 0

    def scenario(self, steps: int):
        raise NotImplementedError

    def setup(self, seed: int, small: bool) -> dict:
        scen = self.scenario(self.small_steps if small else self.steps)
        bars = mk.measure_averages(scen)
        return {"scen": scen, "bars": bars, "start": smooth_start(scen.grid, seed)}

    def run(self, st: dict):
        return mk.optimize_gain(st["scen"], initial_gain=st["start"], bars=st["bars"])

    def check(self, st: dict, report) -> list[tuple[str, bool]]:
        scen, bars = st["scen"], st["bars"]
        if "grad_tol" not in st:
            st["grad_tol"] = _grad_tol(scen, st["start"], bars)
        checks = [("converged", report.converged),
                  ("stationarity", report.stationarity <= st["grad_tol"])]
        return checks + self.extra_checks(scen, bars, report)

    def extra_checks(self, scen, bars, report) -> list[tuple[str, bool]]:
        raise NotImplementedError


class OptimizeClassical(Optimize):
    name = "optimize-classical"
    steps, small_steps = 400, 100

    def scenario(self, steps: int):
        return mk.classical_scenario(steps=steps)

    def extra_checks(self, scen, bars, report):
        dev = float(np.max(np.abs(report.gain.scalar - np.tanh(scen.grid.nodes))))
        traj = report.cost_trajectory
        return [("gain_vs_tanh", dev <= TANH_TOL),
                ("cost_monotone", all(b <= a for a, b in zip(traj, traj[1:])))]


class OptimizeCoupled(Optimize):
    name = "optimize-coupled"
    steps, small_steps = 200, 50

    def scenario(self, steps: int):
        return mk.scenarios.cross_pairing_probe(steps=steps)

    def extra_checks(self, scen, bars, report):
        ones = mk.GainSchedule.constant(scen.grid, 1.0)
        g = mk.cost_gradient(scen, mk.kernel_bundle(scen, report.gain), bars)
        pairing = g.pair(ones.scalar)
        fd = mk.fd_cost_slope(scen, report.gain, ones, FD_EPS, bars)
        return [("pairing_vs_fd", abs(pairing - fd) <= FD_TOL * (1.0 + abs(pairing)))]


class Validate:
    """``mfkalman validate`` through ``cli.main``, into a fresh directory.

    The suite runs with its default seed, the one users run: C6 and C7
    compare Monte Carlo z-scores with an unadjusted limit of 3, so other
    seeds fail by chance now and then, and a benchmark run must not.
    """

    name = "validate"

    def setup(self, seed: int, small: bool) -> dict:
        return {"work": Path(".bench_work").resolve(), "runs": 0}

    def run(self, st: dict):
        st["runs"] += 1
        out = st["work"] / f"validate-{os.getpid()}-{st['runs']}"
        argv = ["validate", "--out", str(out), "--seed",
                str(mk.validation.DEFAULT_SEED), "--force"]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = mk.cli.main(argv)
        return code, buffer.getvalue(), out

    def check(self, st: dict, result) -> list[tuple[str, bool]]:
        code, text, out = result
        shutil.rmtree(out, ignore_errors=True)
        lines = text.splitlines()
        checks = [(cid, any(line.startswith(f"[PASS] {cid}:") for line in lines))
                  for cid in (f"C{k}" for k in range(1, 9))]
        return checks + [("exit_code", code == 0)]


WORKLOADS = {w.name: w for w in (OptimizeClassical(), OptimizeCoupled(), Validate())}
