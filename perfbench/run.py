"""End-to-end benchmark of the Aarohi reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``replay_quiet`` and ``replay_storm`` time ``aarohi predict --json``
(``replay.py``); ``serve_paced`` feeds a default ``aarohi serve`` daemon
open-loop over TCP (``serve.py``); BENCHMARK.json says why each exists.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced layer-by-layer run instead (``layers.py``).  Every metric is
printed by name with its unit (per-layer ones with the end-to-end
metric and workload they should move), and the last line is the JSON
result.  Generated inputs, the scanner artifact cache, temporary files
and traces live in ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Context:
    """Where a run reads and writes; everything stays in the checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.here = root / HERE.name
        self.work = self.here / ".work"
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        os.environ["AAROHI_SCANNER_CACHE"] = str(self.work / "scanner-cache")
        os.environ["TMPDIR"] = str(self.work / "tmp")
        tempfile.tempdir = None  # re-read TMPDIR
        sys.path.insert(0, src)
        self.env = dict(os.environ)


def measure(ctx: Context, args):
    import layers
    import replay
    import serve

    if args.trace:
        return layers.traced_run(
            ctx, args.workload, args.seed, args.seconds)
    if args.workload == "serve_paced":
        return serve.run(ctx, args.seed, args.seconds)
    return replay.run(ctx, args.workload, args.seed, args.seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Aarohi end-to-end benchmark")
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    ctx = Context(ROOT)
    try:
        import repro

        where = Path(repro.__file__).resolve().parent
        if where != (ROOT / "src" / "repro").resolve():
            raise RuntimeError(f"imported repro from {where}, not from "
                               "this checkout")
        result = measure(ctx, args)
    except Exception:
        traceback.print_exc()
        return 1
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if set(result.metrics) != set(table):
        print("perfbench: metrics missing or unexpected: "
              f"{sorted(set(result.metrics) ^ set(table))}", file=sys.stderr)
        return 1
    for note in result.notes:
        print(f"# {note}")
    for name, metric in table.items():
        moves = f"  -> {metric.moves}" if metric.moves else ""
        print(f"{name:32s} {result.metrics[name]:>14.6g} "
              f"{metric.unit:5s}{moves}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": metric.unit}
            for name, metric in table.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
