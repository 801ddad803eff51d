"""Perf-regression gate over the committed throughput record.

Compares the ``speedups`` section of a freshly measured
``BENCH_throughput.smoke.json`` (the CI smoke run) against the committed
``BENCH_throughput.json`` (the full-run perf trajectory) and fails when
any ratio dropped below its tolerance band.

Smoke runs use tiny traces, so their absolute ratios sit well below the
full-run ones (fixed per-batch overheads dominate) and CI runners add
scheduler noise on top; the bands encode both.  A *tolerance* is the
fraction of the committed baseline the fresh measurement must still
reach: ``current >= tolerance * baseline``.  The point of the gate is
not precision — it is catching the change that turns a 22x cache win
into 2x, or the pipelined transport into a slowdown, before it merges.

Runnable locally exactly as CI runs it::

    PYTHONPATH=src REPRO_BENCH_SMOKE=1 python -m pytest \
        benchmarks/bench_throughput.py -q --benchmark-disable
    python benchmarks/check_regression.py

or against a full measurement (``--tolerance 0.8``, say) to compare two
real runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO_ROOT / "BENCH_throughput.json"
CURRENT_PATH = REPO_ROOT / "BENCH_throughput.smoke.json"

#: Fraction of the committed baseline a smoke measurement must reach,
#: per speedup key.  Cache-hierarchy ratios shrink hardest in smoke mode
#: (tiny traces never amortise the build/warm-up cost), transport-vs-
#: transport ratios are the steadiest; anything unlisted uses
#: DEFAULT_TOLERANCE.
TOLERANCES = {
    "cached_batch_vs_decomposition": 0.25,
    "megaflow_vs_batch_uniform_wide": 0.25,
    "sharded_vs_single": 0.3,
    "shm_lockstep_vs_single_small_batch": 0.3,
    "pipelined_vs_serial_shm_small_batch": 0.5,
    # Columnar-vs-dict ratios collapse hardest in smoke mode: the tiny
    # traces are cold-cache dominated, and the cold path (table
    # resolution) is shared by both sides.
    "columnar_vs_dict_cached_batch": 0.2,
    "columnar_vs_dict_megaflow_uniform_wide": 0.3,
    # Swept-vs-frozen hovers near 1.0 (the lifecycle tax is a few
    # percent), so the absolute floor below does the real gating.
    "timeout_churn_swept_vs_frozen": 0.5,
}
DEFAULT_TOLERANCE = 0.3

#: Absolute floors for transport-vs-transport ratios, whose baselines
#: hover near 1.0 — there a *fraction* of baseline is vacuous (half of
#: 1.07x would wave a 1.8x slowdown through).  The final floor per key
#: is max(tolerance * baseline, absolute floor): the absolute side is
#: what actually catches "the pipelined transport became a slowdown",
#: set below the observed smoke-mode values with margin for CI-runner
#: noise.
ABSOLUTE_FLOORS = {
    # Lockstep shm vs single-process on small batches sits at 0.1-0.3x
    # (IPC-bound: 0.24 on 2 cpus full, 0.13-0.29 in smoke).  The floor
    # keeps the lockstep path gated on hosts whose cpu stamp differs
    # from the baseline's: it catches an order-of-magnitude collapse,
    # not drift.
    "shm_lockstep_vs_single_small_batch": 0.03,
    "pipelined_vs_serial_shm_small_batch": 0.8,
    "columnar_vs_dict_cached_batch": 0.6,
    "columnar_vs_dict_megaflow_uniform_wide": 0.6,
    # Baseline ~1.0: sweeps ride along nearly for free.  The floor is
    # what catches "the expiry sweep fell off the vectorized path and
    # now dominates the replay".
    "timeout_churn_swept_vs_frozen": 0.5,
}

#: Speedup keys whose ratio depends on how many cores the host has
#: (process fan-out measures scheduler contention on one core and real
#: parallelism on many).  Each measured ratio is stamped with the
#: ``cpu_count`` it was taken on (the bench writes a ``speedup_cpus``
#: section next to ``speedups``); when the baseline stamp and the
#: current host disagree, these keys are *skipped* instead of gated —
#: a multi-core CI runner must not be held to (or excused by) a
#: single-core baseline like the committed ``sharded_vs_single: 0.24``.
CPU_SENSITIVE_KEYS = frozenset(
    {
        "sharded_vs_single",
        "shm_lockstep_vs_single_small_batch",
        "pipelined_vs_serial_shm_small_batch",
    }
)


#: Fraction of the baseline p99 the current streaming p99 may *grow*
#: to before the gate fails: ``current_p99 <= P99_TOLERANCE *
#: baseline_p99``.  Latencies are in virtual ticks, so the band is not
#: absorbing CI-runner noise (there is none — same seed, same schedule,
#: same ticks); it absorbs deliberate retunes of batch formation that
#: shift the tail a little without being regressions.
P99_TOLERANCE = 1.5


@dataclass(frozen=True)
class Check:
    """Outcome of one speedup-key comparison."""

    key: str
    baseline: float
    current: float
    floor: float

    @property
    def ok(self) -> bool:
        return self.current >= self.floor


def load_speedups(path: Path) -> dict[str, float]:
    speedups, _ = load_record(path)
    return speedups


def load_record(path: Path) -> tuple[dict[str, float], dict[str, int]]:
    """The ``speedups`` section plus each key's cpu stamp.

    Per-key stamps come from the ``speedup_cpus`` section when present
    (a merged record can carry ratios measured on different hosts),
    falling back to the record's top-level ``cpu_count``.
    """
    record = json.loads(path.read_text())
    speedups = record.get("speedups")
    if not isinstance(speedups, dict) or not speedups:
        raise SystemExit(f"{path}: no speedups section to gate on")
    stamps = record.get("speedup_cpus") or {}
    default_cpus = record.get("cpu_count")
    cpus = {
        key: int(stamps.get(key, default_cpus) or 0) for key in speedups
    }
    return {key: float(value) for key, value in speedups.items()}, cpus


def load_streaming(path: Path) -> dict[str, object]:
    """The record's ``streaming`` SLO section, or ``{}`` when absent.

    Absent is normal, not an error: records predating the streaming
    bench (or runs that deselected it) simply skip the streaming gate —
    same catch-up contract as speedup keys only one record carries.
    """
    record = json.loads(path.read_text())
    section = record.get("streaming")
    return section if isinstance(section, dict) else {}


def run_streaming_checks(
    baseline: dict[str, object],
    current: dict[str, object],
    p99_tolerance: float = P99_TOLERANCE,
) -> tuple[list[str], list[str]]:
    """Gate the streaming section: shed determinism plus the p99 band.

    Returns ``(failures, notes)``.  Two independent checks:

    * **Determinism (hard, current record only).**  The bench runs the
      same seeded overload schedule twice and records both shed counts;
      any daylight between them means load shedding picked up a
      nondeterministic input (wall-clock, unseeded hashing, host
      scheduling) and replay-based recovery can no longer promise
      bitwise-identical reruns.  No tolerance.
    * **Tail latency (banded, vs baseline).**  ``p99_ticks`` may grow
      to at most ``p99_tolerance`` times the committed baseline.  Only
      comparable when both records measured the same schedule —
      ``arrival_count`` is the guard; a resized schedule skips the band
      (and the next full run rebaselines it).
    """
    failures: list[str] = []
    notes: list[str] = []
    if not current:
        notes.append(
            "skip streaming: current record has no streaming section"
        )
        return failures, notes

    shed = current.get("shed_packets")
    rerun = current.get("shed_packets_rerun")
    if shed != rerun:
        failures.append(
            f"streaming shed ledger is not deterministic: first run "
            f"shed {shed} packets, rerun shed {rerun} — same seed must "
            "shed identically"
        )

    if not baseline:
        notes.append(
            "skip streaming p99 band: baseline record has no streaming "
            "section"
        )
        return failures, notes
    if baseline.get("arrival_count") != current.get("arrival_count"):
        notes.append(
            f"skip streaming p99 band: schedule resized "
            f"(baseline arrival_count {baseline.get('arrival_count')}, "
            f"current {current.get('arrival_count')})"
        )
        return failures, notes

    base_p99 = baseline.get("p99_ticks")
    cur_p99 = current.get("p99_ticks")
    if not isinstance(base_p99, (int, float)) or not isinstance(
        cur_p99, (int, float)
    ):
        notes.append("skip streaming p99 band: p99_ticks missing")
        return failures, notes
    ceiling = p99_tolerance * float(base_p99)
    if float(cur_p99) > ceiling:
        failures.append(
            f"streaming p99 regressed: {cur_p99} ticks vs baseline "
            f"{base_p99} (ceiling {ceiling:.1f})"
        )
    else:
        notes.append(
            f"ok   streaming p99: {cur_p99} ticks vs baseline "
            f"{base_p99} (ceiling {ceiling:.1f})"
        )
    return failures, notes


def run_checks(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerances: dict[str, float] | None = None,
    default_tolerance: float = DEFAULT_TOLERANCE,
    absolute_floors: dict[str, float] | None = None,
    baseline_cpus: dict[str, int] | None = None,
    current_cpus: dict[str, int] | None = None,
    skipped: list[str] | None = None,
) -> list[Check]:
    """Compare every key present in *both* records.

    Keys only in the baseline (a mode the smoke run skipped) or only in
    the current run (a mode newer than the committed record) are not
    gated — the gate must not block adding or retiring bench modes; the
    committed record catches up on the next full run.  Cpu-sensitive
    keys (:data:`CPU_SENSITIVE_KEYS`) whose baseline cpu stamp differs
    from the current host's drop the baseline-relative band — a
    sharded-vs-single ratio from a 1-cpu host says nothing about a
    4-cpu runner, in either direction — but keep their *absolute*
    floor when one exists (it encodes "this transport must not be a
    slowdown", which holds on any host); keys with no absolute floor
    are skipped entirely (appended to ``skipped`` when given).
    """
    tolerances = TOLERANCES if tolerances is None else tolerances
    absolute_floors = (
        ABSOLUTE_FLOORS if absolute_floors is None else absolute_floors
    )
    checks = []
    for key in sorted(set(baseline) & set(current)):
        floor = max(
            tolerances.get(key, default_tolerance) * baseline[key],
            absolute_floors.get(key, 0.0),
        )
        if (
            key in CPU_SENSITIVE_KEYS
            and baseline_cpus is not None
            and current_cpus is not None
            and baseline_cpus.get(key) != current_cpus.get(key)
        ):
            if key not in absolute_floors:
                if skipped is not None:
                    skipped.append(key)
                continue
            floor = absolute_floors[key]
        checks.append(
            Check(
                key=key,
                baseline=baseline[key],
                current=current[key],
                floor=floor,
            )
        )
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a committed speedup ratio regressed"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help="committed perf record (default: BENCH_throughput.json)",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=CURRENT_PATH,
        help="fresh measurement (default: BENCH_throughput.smoke.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "override every per-key band with one fraction of baseline "
            "(e.g. 0.8 when comparing two full runs)"
        ),
    )
    args = parser.parse_args(argv)

    tolerances: dict[str, float] | None = None
    absolute_floors: dict[str, float] | None = None
    default_tolerance = DEFAULT_TOLERANCE
    if args.tolerance is not None:
        # An explicit override replaces the whole banding scheme,
        # absolute floors included — one predictable fraction.
        tolerances = {}
        absolute_floors = {}
        default_tolerance = args.tolerance

    baseline_speedups, baseline_cpus = load_record(args.baseline)
    current_speedups, current_cpus = load_record(args.current)
    skipped: list[str] = []
    checks = run_checks(
        baseline_speedups,
        current_speedups,
        tolerances=tolerances,
        default_tolerance=default_tolerance,
        absolute_floors=absolute_floors,
        baseline_cpus=baseline_cpus,
        current_cpus=current_cpus,
        skipped=skipped,
    )
    for key in skipped:
        print(
            f"skip {key}: baseline measured on {baseline_cpus.get(key)} "
            f"cpu(s), current on {current_cpus.get(key)} — "
            "cpu-sensitive ratio not comparable"
        )
    if not checks:
        if skipped:
            print(
                f"all {len(skipped)} overlapping keys were cpu-skipped; "
                "nothing left to gate on this host"
            )
            return 0
        print("no overlapping speedup keys; nothing to gate", file=sys.stderr)
        return 1

    failed = False
    for check in checks:
        status = "ok  " if check.ok else "FAIL"
        print(
            f"{status} {check.key}: current {check.current:.2f}x vs "
            f"baseline {check.baseline:.2f}x (floor {check.floor:.2f}x)"
        )
        failed |= not check.ok

    stream_failures, stream_notes = run_streaming_checks(
        load_streaming(args.baseline), load_streaming(args.current)
    )
    for note in stream_notes:
        print(note)
    for failure in stream_failures:
        print(f"FAIL {failure}")
        failed = True

    if failed:
        print(
            "\nperf regression: a speedup ratio fell out of its tolerance "
            "band (see FAIL lines above)",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(checks)} speedup ratios within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
