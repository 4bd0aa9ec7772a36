"""Run the benchmark over several seeds and report each metric's spread.

usage: python3 perfbench/spread.py --workload NAME [--workload NAME ...]
           [--seeds 1-10] [--seconds 10] [--trace 0]

For each workload and metric prints the median of the runs, their first
and third quartiles (statistics.quantiles, n=4) and the distance between
the quartiles as a share of the median, plus the failed share and wall time of every run.
The runs' records stay in perfbench/out/; a summary goes to
perfbench/out/spread-<workload>-trace<T>.json. Runs on different kernel
backends are refused: their figures are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    for workload in args.workload:
        runs = []
        walls = []
        backends = set()
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, text=True, cwd=HERE.parent, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            walls.append(time.monotonic() - start)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            name = f"{workload}-seed{seed}-trace{args.trace}.json"
            record = json.loads((HERE / "out" / name).read_text())
            backends.add(record["meta"]["kernel_backend"])
        if len(backends) != 1:
            print(f"{workload}: runs on several kernel backends {backends}",
                  file=sys.stderr)
            return 1
        summary = {"workload": workload, "seeds": args.seeds, "seconds": args.seconds,
                   "kernel_backend": backends.pop(), "metrics": {},
                   "correct": all(r["correct"] for r in runs),
                   "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                   "attempted": [r["attempted"] for r in runs],
                   "run_wall_s": walls}
        print(f"{workload}: correct={summary['correct']} "
              f"failed shares={summary['failed_share']} attempted={summary['attempted']} "
              f"run wall {min(walls):.0f}-{max(walls):.0f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "values": values}
            print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}")
        out = HERE / "out" / f"spread-{workload}-trace{args.trace}.json"
        out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
