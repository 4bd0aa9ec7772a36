"""One benchmark process: set up a workload, run its rounds, check outputs.

Started by run.py in a fresh interpreter, so that set-up time covers
`import tailbound`. Prints one JSON object on stdout. With --setup-only it
stops when the first timed operation would start and reports only that
moment (time.monotonic, comparable across processes).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from stats import Tally

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# stop starting rounds after this much loop time, so a run ends in time
# even on a machine far slower than expected
MAX_LOOP_S = 110.0
CLI_PROBES = 3
CLASSICAL = ["bound", "--family", "hoeffding", "--dist", "uniform", "--n", "40",
             "--t", "10", "--p", "1"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import tailbound as tb

    import workloads

    origin = Path(tb.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"tailbound was imported from {origin}, not from {SRC}", file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[args.workload](tb, args.seed, Path(args.workdir))
    first = workload.build_round(0)
    workload.warmup()
    ready = time.monotonic()
    cal_ready = speed.window()
    if args.setup_only:
        print(json.dumps({"ready": ready, "cal_ready": cal_ready}))
        return 0

    if args.trace:
        result = traced(workload, first)
    else:
        result = untraced(workload, first, args.seconds)
    result.update(ready=ready, cal_ready=cal_ready, meta=metadata(tb))
    print(json.dumps(result))
    return 0


def run_rounds(workload, first, seconds=None, rounds=None, on_op=None):
    """Run whole rounds: exactly `rounds`, or at least workload.min_rounds
    and until `seconds` of timed operations have passed."""
    tally = Tally()      # at reference speed (see speed.py)
    raw = Tally()        # wall time
    problems: list[str] = []
    unexpected: list[str] = []
    timed = 0.0
    loop_start = time.perf_counter()
    r = 0
    while True:
        if rounds is not None:
            if r >= rounds:
                break
        elif r >= workload.min_rounds and (
                timed >= seconds or time.perf_counter() - loop_start > MAX_LOOP_S):
            break
        ops = first if (r == 0 and first is not None) else workload.build_round(r)
        outcomes = []
        cal_before = speed.sample()
        for op in ops:
            if on_op:
                on_op(op, None)
            start = time.perf_counter()
            try:
                result, ok = op.run(), True
            except Exception as exc:  # an operation's failure is a measurement
                result, ok = exc, False
            elapsed = time.perf_counter() - start
            cal_after = speed.sample()
            timed += elapsed
            raw.add(elapsed, ok)
            tally.add(speed.scale(elapsed, cal_before, cal_after), ok)
            cal_before = cal_after
            outcomes.append((op, ok, result))
            if on_op:
                on_op(op, (elapsed, ok))
        full = workload.full_check(r)
        for op, ok, result in outcomes:
            if ok:
                problems += op.check(result, full)
            elif not op.known_fault:
                unexpected.append(f"{op.label}: {type(result).__name__}: {result}")
        if full:
            # collect the reference computations' garbage outside timed work
            gc.collect()
        r += 1
    return tally, raw, problems, unexpected, r


def untraced(workload, first, seconds):
    tally, raw, problems, unexpected, rounds = run_rounds(workload, first, seconds=seconds)
    cli = workload.name == "cli-batch"
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    q = workload.tail_q

    def timings(t):
        return {"ops_per_s": (t.ops_per_s(), "1/s"),
                "op_p50_ms": (t.latency_ms(50), "ms"),
                "op_tail_ms": (t.latency_ms(q), "ms")}

    metrics = timings(tally)
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024.0, "MiB")
    return outcome(tally, problems, unexpected, metrics,
                   extra={"rounds": rounds, "tail_percentile": q,
                          "raw_wall": {k: v for k, (v, _) in timings(raw).items()}})


def traced(workload, first):
    """Time min_rounds untraced, then the same rounds traced, and report
    per-layer metrics per operation of the traced pass."""
    import tracing

    rounds = workload.min_rounds
    plain, _, problems, unexpected, _ = run_rounds(workload, first, rounds=rounds)
    tracer = tracing.Tracer()
    per_op = []
    marks = {}

    def on_op(op, done):
        if done is None:
            marks["before"] = tracer.snapshot()
        else:
            per_op.append({"op": op.label, "ms": done[0] * 1e3, "ok": done[1],
                           "layers": _delta(marks["before"], tracer.snapshot())})

    workload.traced = True
    tracer.install()
    try:
        tally, _, more, unexpected_t, _ = run_rounds(workload, None, rounds=rounds,
                                                     on_op=on_op)
    finally:
        tracer.uninstall()
    problems += more
    unexpected += unexpected_t
    snapshot = tracer.snapshot()
    if workload.name == "cli-batch":
        records = workload.cli_records
        snapshot = tracing.merge([snapshot] + [r.get("trace", _EMPTY) for r in records])
        for row, rec in zip(per_op, records):
            row["layers"] = rec.get("trace", _EMPTY)
            row["cli"] = {k: rec.get(k) for k in ("import_ms", "main_ms", "wall_ms",
                                                  "import_scipy_ms")}
    else:
        records = cli_probes(workload)
    layers = tracing.per_layer(snapshot, tally.attempted)
    layers.update(cli_layers(records))
    layers["trace.untraced_ops_per_s"] = plain.ops_per_s()
    layers["trace.traced_ops_per_s"] = tally.ops_per_s()
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    return outcome(tally, problems, unexpected, metrics,
                   extra={"rounds": rounds, "per_op": per_op})


_EMPTY = {"calls": {}, "total_ns": {}, "self_ns": {}, "draws": 0}


def _delta(before, after):
    out = {}
    for key in ("calls", "total_ns"):
        for layer, value in after[key].items():
            diff = value - before[key].get(layer, 0)
            if diff:
                out.setdefault(key, {})[layer] = diff
    return out


def _unit(name):
    if name.endswith("_ms") or name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


def cli_probes(workload):
    """Time CLI_PROBES runs of the README's classical example through
    cli_child.py, for the cli.* layer metrics of library workloads."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    records = []
    for i in range(CLI_PROBES):
        out = workload.workdir / f"probe-{i}.json"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(workloads.CLI_CHILD), str(out),
             *CLASSICAL], capture_output=True, text=True, env=env, timeout=150)
        wall_ms = (time.perf_counter() - start) * 1e3
        if proc.returncode != 0:
            raise RuntimeError(f"CLI probe failed: {proc.stderr[-500:]}")
        _, scipy_ms = workloads.split_importtime(proc.stderr)
        rec = json.loads(out.read_text())
        rec.update(wall_ms=wall_ms, import_scipy_ms=scipy_ms)
        records.append(rec)
    return records


def cli_layers(records):
    def mean(key):
        return statistics.fmean(r[key] for r in records)

    return {
        "cli.import_ms": mean("import_ms"),
        "cli.import_scipy_ms": mean("import_scipy_ms"),
        "cli.main_ms": mean("main_ms"),
        "cli.process_ms": statistics.fmean(
            r["wall_ms"] - r["import_ms"] - r["main_ms"] for r in records),
    }


def outcome(tally, problems, unexpected, metrics, extra):
    for line in (problems + unexpected)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    return {
        # unexpected failures are counted in `failed`; they also mean the
        # workload did not run as designed
        "correct": not problems and not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": len(problems),
        "unexpected_failures": unexpected[:20],
        **extra,
    }


def metadata(tb):
    import mpmath
    import numpy
    import scipy

    return {
        "kernel_backend": tb.kernel_backend,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


if __name__ == "__main__":
    sys.exit(main())
