"""Run ``repro-scap`` with the layer wrappers installed, for the traced run.

Usage::

    python3 perfbench/traced_daemon.py TOTALS.json serve --unix … [serve options]

Installs the same class-level wrappers as the benchmark's own process
before the daemon is built, runs the CLI, and writes the per-layer span
totals to ``TOTALS.json`` when the daemon has shut down.  The exit code
is the CLI's.
"""

from __future__ import annotations

import sys

from layers import LayerTracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer(side="daemon")
    tracer.install()
    from repro.tools.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
