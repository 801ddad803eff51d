"""Repository benchmark command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Prints every metric by name, value and
unit, a ``record`` line (the full run record as JSON: host stamp, input
digest, metrics with sample counts, check results), and as its last
line the result object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer ones.  Exits 2 without a result when the program's
sources (``src/repro``) are not beside it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import the benchmark package and the program from this checkout.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import print_record, run
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    record = run(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
        spans_dir=ROOT / "perfbench" / "out" if args.trace else None,
    )
    print_record(record)
    print("record " + json.dumps(record, sort_keys=True))
    checks = record["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
