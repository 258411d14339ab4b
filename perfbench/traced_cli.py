"""Run one rbed CLI command with every rbed layer traced.

    python3 perfbench/traced_cli.py TRACE_PREFIX RBED_ARGS...

Writes ``TRACE_PREFIX-main.json`` when the command ends; each forked pool
worker writes ``TRACE_PREFIX-<pid>.json`` when it exits. rbed must be
importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    prefix, rbed_args = argv[0], argv[1:]
    start = time.perf_counter_ns()
    import rbed.cli

    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.follow_forks(prefix)
    with tracer:
        code = rbed.cli.main(rbed_args)
    tracer.write(f"{prefix}-main.json", cli_import_ns=import_ns)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
