"""Run ``linesearch serve`` with the benchmark's tracing shim installed.

Usage::

    python traced_serve.py TRACE_OUT serve --state-dir DIR [serve options]

The shim wraps the service and library layers before the CLI starts, so
the process topology is the same as an untraced ``python -m repro.cli
serve``.  When the server drains (SIGTERM), the spans are written to
``TRACE_OUT`` as ``trace.jsonl``.
"""

from __future__ import annotations

import sys

from shim import Shim


def main(argv) -> int:
    trace_out, serve_args = argv[0], argv[1:]
    shim = Shim().install(service=True)
    try:
        from repro.cli import main as cli_main

        return cli_main(serve_args)
    finally:
        shim.uninstall()
        shim.write(trace_out, metadata={"workload": "serve"})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
