"""Run one ``histmatch`` command in this fresh process with tracing on.

Usage: traced_cli.py <spans.json> <op id> <histmatch arguments...>

Times the package import (``cli.import_s``), wraps the CLI's layer functions
at the names ``histmatch.cli`` binds, calls ``cli.main`` and writes the spans
and counts to ``spans.json``.  The exit code is that of ``cli.main``.
"""
import json
import sys
from time import perf_counter

start = perf_counter()
import histmatch.cli  # noqa: E402

import_s = perf_counter() - start

from tracing import CLI_TARGETS, Tracer  # noqa: E402


def main() -> int:
    out_path, op = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    tracer.install(CLI_TARGETS)
    tracer.begin_op(op)
    tracer.counts[(op, "cli.import_s")] += import_s
    try:
        code = histmatch.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
