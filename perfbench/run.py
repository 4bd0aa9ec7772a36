"""Benchmark entry point: set-up probes, one measured worker, one result.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding src/tailbound. Each workload runs
in a fresh interpreter (worker.py) with BLAS/OpenMP pools pinned to one
thread, and every process of the run pinned to the highest-numbered CPU.
Untraced runs first start SETUP_PROBES set-up-only workers; setup_s
is the median time from spawning a worker to its first timed operation,
over the probes and the measured worker. Set-up and operation times are
scaled to a reference CPU speed (see speed.py). The last line printed is the
result JSON; the full record, with run metadata, goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("iid-curves", "hetero-roots", "mc-verify", "cli-batch")
SETUP_PROBES = 3
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}
TIMEOUT_S = 170


def spawn(args, workdir, setup_only=False):
    """Run worker.py; returns its set-up time as wall seconds and at
    reference speed (see speed.py), and its parsed last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"))
    cal_start = speed.window()
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = result["ready"] - start
    return wall, speed.scale(wall, cal_start, result["cal_ready"]), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tailbound" / "__init__.py").is_file():
        print(f"error: no tailbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for the worker and everything it starts: on a shared host an
    # unpinned process migrating between CPUs ran 10-20% slower or faster
    # from one second to the next
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, workdir, setup_only=True)[:2] for _ in range(SETUP_PROBES)]
        *setup, result = spawn(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(setup)
        walls, scaled = zip(*setups)
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        result["raw_wall"]["setup_s"] = statistics.median(walls)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, setup_samples_s=setups)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
