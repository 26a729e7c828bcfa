"""Traced daemon: wrap the layers' public functions, then serve.

Usage::

    python perfbench/launcher.py --trace-out DIR -- --socket S [serve flags]

Installs :func:`tracing.install_daemon_wrappers`, then runs the same
``repro-gridftp serve`` entry point (which calls ``run_daemon``).  When
the daemon has drained it writes ``DIR/trace.json`` (Chrome Trace Event
JSON) and ``DIR/spans.json`` (per-span-name table plus counters and
queue-wait samples) and exits with the daemon's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: launcher.py --trace-out DIR -- <serve flags>",
              file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    tracing.install_daemon_wrappers(tracer)
    from repro import cli

    code = cli.main(["serve", *argv[3:]])
    tracer.write_chrome(out / "trace.json")
    with open(out / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({
            "table": tracer.table(),
            "counts": tracer.counts,
            "samples": tracer.samples,
            "n_spans": len(tracer.spans),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
