"""Runs every workload on several seeds and writes their summary as JSON.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, i.e. the
interquartile distance as a share of the median, which must stay below the
metric's bound in BENCHMARK.json. One traced run per workload, on the
first seed, gives the per-layer metrics. Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(lines[-2])["conditions"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seeds = _seeds(args.seeds)
    report = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            conditions, result = _run(wl, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        _, traced = _run(wl, seeds[0], 1)
        report["workloads"][wl] = {
            "attempted": attempted, "failed": failed,
            "end_to_end": {name: summarize(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        report["conditions"] = {k: conditions[k] for k in
                                ("python", "numpy", "nproc", "mfk_threads", "blas_threads",
                                 "git_sha", "src_sha256")}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for wl, rep in report["workloads"].items():
        for name, s in rep["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  UNSTEADY"
            print(f"{wl:20s} {name:12s} median {s['median']:.4g} spread {s['spread']:.3f}"
                  f" (bound {bounds[name]}){flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
