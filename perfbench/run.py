"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload daemon-vc --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` re-runs the workload with spans recorded around the
layers' public functions and reports the per-layer metrics (a layer the
workload never reaches reports 0).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries the run's provenance.  The full result — provenance, the
per-layer table with per-call times, the tracing overhead — is written
to ``.perfbench/last/<workload>/result.json``, next to the Chrome trace
(``trace.json``, traced runs only).  A broken output check prints
``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` (no git process), or "unknown"."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    import numpy

    import workloads

    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names or args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            ROOT, workdir, args.seed, args.seconds, bool(args.trace)
        )
        last = base / "last" / args.workload
        last.mkdir(parents=True, exist_ok=True)
        for stale in last.glob("trace*.json"):
            stale.unlink()
        traces = sorted(workdir.rglob("trace.json"))
        for trace in traces:
            dest = last / ("trace.json" if len(traces) == 1
                           else f"trace-{trace.parent.name}.json")
            shutil.copyfile(trace, dest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    have = outcome.layers if args.trace else outcome.e2e
    metrics = {}
    for m in wanted:
        value, unit = have.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"]:
            outcome.broken.append(f"metric {m['name']} in {unit}, not {m['unit']}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": _git_sha(ROOT), **outcome.provenance,
    }
    result = {
        "correct": not outcome.broken,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    with open(last / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": provenance,
                   "broken": outcome.broken, "table": outcome.table,
                   "all_metrics": {k: v[0] for k, v in
                                   {**outcome.e2e, **outcome.layers}.items()}},
                  fh, indent=1, sort_keys=True)
    for problem in outcome.broken:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
