"""``repro serve`` with the benchmark's timing wrappers installed.

    python benchmarks/e2e/serve_traced.py TRACE_DIR SERVE_ARGS...

Installs the wrappers from ``tracer.py``, then runs
``repro.cli.main(["serve", *SERVE_ARGS])``.  SIGTERM stops the service
the way Ctrl-C does; the process then writes its spans to
``TRACE_DIR/spans-<pid>.ndjson``.
"""

from __future__ import annotations

import signal
import sys

import tracer as tracing


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    trace_dir, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer(trace_dir)
    tracing.install(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.cli import main as cli_main

    try:
        cli_main(["serve", *serve_args])
    finally:
        tracer.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
