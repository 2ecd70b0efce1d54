"""Run ``repro-pre serve`` with the benchmark's span hooks installed.

    python benchmarks/suite/traced_server.py --spans SPANS.json serve ...

Everything after ``--spans PATH`` is handed to ``repro.cli.main``
unchanged.  The spans stay in memory and are written to ``PATH`` once
the server returns, which SIGTERM triggers through the CLI's clean
shutdown path.  Each SIGUSR1 takes the hooks out or puts them back, so
the benchmark can time traced and untraced stretches of one server
process.  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import signal
import sys

from tracing import SERVER_HOOKS, SpanRecorder


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_server.py --spans PATH serve [serve options]", file=sys.stderr)
        return 2
    spans_path, serve_argv = argv[1], argv[2:]
    recorder = SpanRecorder().install(SERVER_HOOKS)
    signal.signal(signal.SIGUSR1, lambda signum, frame: recorder.toggle(SERVER_HOOKS))
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
