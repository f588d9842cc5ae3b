"""Benchmark of the mfkalman pipeline: runs one named workload with a seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the library under ``src/``
there. The workloads are defined in ``workloads.py`` and declared, with
every metric, in ``BENCHMARK.json``. Each measurement runs in a fresh
child process with one BLAS thread and ``MFK_THREADS`` at its default.

With ``--trace 0`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run
instead. The line before it records the run conditions.

Only the standard library is used here; the child processes need what
mfkalman itself needs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true",
                   help="reduced problem sizes, for the benchmark's self-test")
    return p.parse_args(argv)


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("MFK_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args, env: dict) -> dict:
    cmd = [sys.executable, str(WORKER), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--small"] if args.small else [])
    # own process group, so that a stop also ends the set-up probes it starts
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    limit = 2 * args.seconds + 60  # the measuring process is stopped after this
    try:
        stdout, stderr = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run exceeded {limit:.0f} s") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the run failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args) -> tuple[dict, dict]:
    root = Path.cwd()
    if not (root / "src" / "mfkalman" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no src/mfkalman; run from the repository root")
    out = _worker(args, _child_env(root))
    conditions = dict(out["conditions"], workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, small=args.small,
                      git_sha=_git_sha(root), src_sha256=_source_digest(root),
                      failed_checks=out["failed_checks"], notes=out["notes"])
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": out["metrics"]}
    return conditions, result


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        conditions, result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"conditions": conditions}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
