"""Steadiness evidence: run the benchmark over several seeds and record
every run's value of every end-to-end metric, per workload, with its
median, quartiles and spread (interquartile range over median).

    python3 perfbench/steadiness.py --seeds 1-10 [--workload NAME ...]
        [--trace] [--out perfbench/results.json]

Each run is a separate ``perfbench/run.py`` process of BENCHMARK.json's
``run_seconds``, one at a time.  Each invocation appends one set (keyed
by its start time) to the output file and keeps the sets already there;
``--trace`` adds one traced run per workload (the first seed).  After
each set, every pair of consecutive sets that ran a workload on the same
seeds is compared metric by metric: the gap between their medians is
recorded under ``agreement``.  A spread above a third of the metric's
bound, or a gap beyond the bound, is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    lines = completed.stdout.splitlines()
    record = json.loads(next(line[7:] for line in lines if line.startswith("record ")))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: checks failed {record['checks']}")
    return record


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "runs": len(values),
    }


def run_set(workloads: list[str], seed_list: list[int], seconds: int, trace: bool,
            bounds: dict[str, float]) -> tuple[dict[str, Any], list[str]]:
    """One set: every seed on every workload; returns it and its flags."""
    flagged: list[str] = []
    entries: dict[str, Any] = {}
    stamp: dict[str, Any] = {}
    for workload in workloads:
        runs = []
        for seed in seed_list:
            record = one_run(workload, seed, seconds, trace=False)
            runs.append(record)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {entry['value']:.6g}" for name, entry in record["metrics"].items()
            ), flush=True)
        stamp = {k: runs[0]["stamp"][k] for k in ("nproc", "python", "numpy", "machine")}
        entry: dict[str, Any] = {
            "runs": [
                {
                    "seed": r["stamp"]["seed"],
                    "input_digest": r["stamp"]["input_digest"],
                    "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                    "samples": {k: v.get("samples") for k, v in r["metrics"].items()},
                    "figures": {k: v["value"] for k, v in r["figures"].items()},
                    "figure_samples": {k: v.get("samples") for k, v in r["figures"].items()},
                    "checks": {k: r["checks"][k] for k in ("attempted", "failed")},
                }
                for r in runs
            ],
            "summary": {},
        }
        for name in list(runs[0]["metrics"]) + list(runs[0]["figures"]):
            values = [
                (r["metrics"].get(name) or r["figures"].get(name))["value"] for r in runs
            ]
            summary = spread(values) if len(values) >= 2 else {"median": values[0], "runs": 1}
            if name in bounds:
                summary["bound"] = bounds[name]
                if summary.get("spread", 0) > bounds[name] / 3:
                    flagged.append(f"{workload} {name} spread {summary['spread']:.3f}")
            entry["summary"][name] = summary
            print(f"  {workload} {name}: median {summary['median']:.6g} "
                  f"spread {summary.get('spread', 0):.4f}", flush=True)
        if trace:
            traced = one_run(workload, seed_list[0], seconds, trace=True)
            entry["traced"] = {
                "seed": seed_list[0],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                "checks": {k: traced["checks"][k] for k in ("attempted", "failed")},
            }
        entries[workload] = entry
    return {"seeds": seed_list, "seconds": seconds, "stamp": stamp, "workloads": entries}, flagged


def agreement(sets: list[dict[str, Any]], definition: dict[str, Any]) -> tuple[dict, list[str]]:
    """Median gaps between consecutive sets of a workload on the same
    seeds: ``gap`` is the later median's change over the earlier one,
    ``worse_by`` the part of it in the metric's worse direction."""
    metrics = {m["name"]: m for m in definition["end_to_end"]}
    table: dict[str, Any] = {}
    flagged: list[str] = []
    workloads = sorted({w for s in sets for w in s["workloads"]})
    for workload in workloads:
        ran = [s for s in sets if workload in s["workloads"]]
        pairs = []
        for earlier, later in zip(ran, ran[1:]):
            if earlier["seeds"] != later["seeds"]:
                continue
            gaps = {}
            for name, metric in metrics.items():
                a = earlier["workloads"][workload]["summary"][name]["median"]
                b = later["workloads"][workload]["summary"][name]["median"]
                gap = (b - a) / a
                worse_by = gap if metric["better"] == "lower" else -gap
                gaps[name] = {"medians": [a, b], "gap": gap, "worse_by": max(0.0, worse_by),
                              "bound": metric["bound"]}
                if abs(gap) > metric["bound"]:
                    flagged.append(
                        f"{workload} {name} gap {gap:+.3f} between sets "
                        f"{earlier['set']} and {later['set']}"
                    )
            pairs.append({"sets": [earlier["set"], later["set"]], "metrics": gaps})
        if pairs:
            table[workload] = pairs
    return table, flagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "results.json")
    args = parser.parse_args()
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    workloads = args.workload or [w["name"] for w in definition["workloads"]]
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    sets = results.setdefault("sets", [])
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    one_set, flagged = run_set(
        workloads, args.seeds, definition["run_seconds"], args.trace, bounds
    )
    sets.append({"set": started, **one_set})
    results["agreement"], gap_flags = agreement(sets, definition)
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    for workload, pairs in results["agreement"].items():
        last = pairs[-1]
        print(f"{workload} sets {last['sets'][0]} -> {last['sets'][1]}: " + ", ".join(
            f"{name} {g['gap']:+.3f}" for name, g in last["metrics"].items()
        ))
    for line in flagged + gap_flags:
        print(f"FLAGGED {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
