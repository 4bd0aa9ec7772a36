"""Run one tailbound CLI command with its import and main() timed.

usage: python -X importtime cli_child.py OUT.json ARG...

Writes the milliseconds spent importing tailbound.cli and inside
cli.main, plus the library layer spans recorded during main, to OUT.json,
then exits with main's code. Used for traced runs only; the untraced
benchmark runs `python -m tailbound.cli` itself.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import tailbound.cli as cli
    imported = time.perf_counter_ns()

    from tracing import Tracer  # beside this file, first on sys.path

    tracer = Tracer()
    tracer.install()
    record = {"import_ms": (imported - start) / 1e6}
    begin = time.perf_counter_ns()
    try:
        return cli.main(argv)
    finally:
        record["main_ms"] = (time.perf_counter_ns() - begin) / 1e6
        record["trace"] = tracer.snapshot()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
