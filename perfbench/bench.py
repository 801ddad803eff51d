"""One benchmark run: inputs, set-up, timed region, checks, metrics.

An untraced run (``trace=False``) reports the end-to-end metrics.  A
traced run drives the same workload twice for half the time each --
first untraced, then with the span recorder wrapped around every layer
entry point -- and reports the per-layer metrics, the time no span
covers, and the tracing overhead (untraced over traced packet rate).
A workload with a sharded twin (``stream-overload``) then replays one
traced pass through the twin for the shard and rulestate figures.
Both kinds end with the reference check; its failures count against
``error_rate``.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import sys
import time
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.reference import Checks, Outcome, classify, compare
from perfbench.tracing import SpanRecorder, SpanSummary
from perfbench.workloads import (
    DECOMP_LOOKUPS,
    MEGAFLOW_PROBES,
    Drive,
    Inputs,
    Workload,
    peak_rss_mib,
    replay_view,
)
from repro.memory.report import architecture_memory_report

#: End-to-end metrics every untraced run reports: name -> unit.
END_TO_END = {
    "pkts_per_s": "1/s",
    "batch_p50_us": "us",
    "batch_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Layers whose self times add up (with the unattributed remainder) to
#: the traced wall time.
TIMED_LAYERS = (
    "batch", "openflow", "microflow", "megaflow", "decomp", "update",
    "lifecycle", "stream", "shard",
)

#: Per-layer metrics every traced run reports: name -> unit.  A layer
#: that does no work on a workload reports 0.
PER_LAYER = {
    "batch.self_ns_per_pkt": "ns/pkt",
    "batch.waves_per_batch": "waves/batch",
    "openflow.exec_ns_per_pkt": "ns/pkt",
    "microflow.ns_per_pkt": "ns/pkt",
    "microflow.self_ns_per_pkt": "ns/pkt",
    "microflow.hit_ratio": "ratio",
    "megaflow.probe_ns_per_pkt": "ns/pkt",
    "megaflow.install_ns_per_miss": "ns/miss",
    "megaflow.self_ns_per_pkt": "ns/pkt",
    "megaflow.hit_ratio": "ratio",
    "megaflow.masks": "count",
    "megaflow.entries": "count",
    "decomp.ns_per_lookup": "ns/lookup",
    "decomp.self_ns_per_pkt": "ns/pkt",
    "decomp.lookups_per_pkt": "lookups/pkt",
    "decomp.trie_ns": "ns/lookup",
    "decomp.lut_ns": "ns/lookup",
    "decomp.index_ns": "ns/lookup",
    "update.us_per_flowmod": "us/flowmod",
    "update.self_ns_per_pkt": "ns/pkt",
    "update.flowmods": "count",
    "lifecycle.ns_per_advance": "ns/advance",
    "lifecycle.self_ns_per_pkt": "ns/pkt",
    "lifecycle.entries_scanned_per_advance": "entries/advance",
    "lifecycle.expired": "count",
    "stream.admit_ns_per_pkt": "ns/pkt",
    "stream.form_ns_per_batch": "ns/batch",
    "stream.self_ns_per_pkt": "ns/pkt",
    "stream.peak_occupancy": "pkts",
    "stream.batches": "count",
    "stream.stalls": "count",
    "stream.max_level": "level",
    "stream.p50_ticks": "ticks",
    "stream.p99_ticks": "ticks",
    "stream.p999_ticks": "ticks",
    "stream.shed_rate": "ratio",
    "shard.submit_ns_per_pkt": "ns/pkt",
    "shard.collect_ns_per_pkt": "ns/pkt",
    "shard.self_ns_per_pkt": "ns/pkt",
    "shard.restarts": "count",
    "shard.replayed_batches": "count",
    "shard.inline_packets": "count",
    "shard.worker_peak_rss_mib": "MiB",
    "rulestate.seal_s": "s",
    "rulestate.spinup_s": "s",
    "rulestate.sealed_bytes": "B",
    "memory.model_bits": "bits",
    "memory.model_bits_per_rule": "bits/rule",
    "unattributed_ns_per_pkt": "ns/pkt",
    "trace.wall_ns_per_pkt": "ns/pkt",
    "trace.overhead": "x",
}

#: End-to-end figures that only one workload has; printed by the
#: untraced run, not part of the gated set (every gated metric must
#: exist, and be nonzero, on every workload).
WORKLOAD_FIGURES = {
    "flowmods_per_s": "1/s",
    "worker_peak_rss_mib": "MiB",
    "p50_ticks": "ticks",
    "p99_ticks": "ticks",
    "p999_ticks": "ticks",
    "shed_rate": "ratio",
}


def percentile(values: Sequence[float], quantile: float) -> tuple[float, int, int]:
    """Nearest-rank percentile: ``(value, samples, samples beyond)``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0, 0
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1], len(ordered), len(ordered) - rank


def stamp(workload: str, seed: int, inputs: Inputs) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "input_digest": inputs.digest,
        "inputs": inputs.description,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _counters(state: Any) -> dict[str, int]:
    runner = state.runner
    stats = runner.stats_snapshot()
    life = runner.lifecycle.stats
    return {
        "batches": stats.batches,
        "waves": stats.waves,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "megaflow_hits": stats.megaflow_hits,
        "megaflow_misses": stats.megaflow_misses,
        "lookups": state.table.lookup_count,
        "advances": life.advances,
        "entries_scanned": life.entries_scanned,
        "expired": life.expired,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def check(
    workload: Workload,
    state: Any,
    inputs: Inputs,
    drives: Sequence[Drive],
    checks: Checks | None = None,
) -> Checks:
    """Runner counters and stream results against the reference, added
    to ``checks`` when given."""
    checks = Checks() if checks is None else checks
    observed = workload.observe(state)
    outcomes = classify(workload.reference(state, inputs), inputs.index.flows)
    packets, nbytes = workload.flow_counts(drives, inputs)
    compare(checks, observed, outcomes, packets, nbytes)
    for drive in drives:
        report = drive.extra.get("report")
        if report is None:
            continue
        try:
            report.assert_conserved()
            conserved = True
        except AssertionError:
            conserved = False
        checks.expect("stream conservation", conserved, True)
        for rerun, identical in enumerate(drive.extra["reruns_identical"], start=2):
            checks.expect(f"stream pass {rerun} replays pass 1", identical, True)
        flow_ids = inputs.flow_ids[0]
        for (arrival, _), result in zip(report.latencies, report.results):
            checks.expect(
                f"arrival {arrival} result", Outcome.of(result), outcomes[flow_ids[arrival]]
            )
    for name, value in getattr(state, "supervision", {}).items():
        checks.expect(f"supervision {name}", value, 0)
    return checks


def _setup(workload: Workload, inputs: Inputs, recorder: SpanRecorder | None) -> tuple[Any, list[float]]:
    """``setup_repeats`` fresh set-ups; keeps the last, returns all times."""
    times: list[float] = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        start = time.perf_counter()
        if recorder is None:
            state = workload.setup(inputs)
        else:
            with recorder.installed(workload.setup_points):
                state = workload.setup(inputs)
        times.append(time.perf_counter() - start)
    return state, times


def end_to_end(drive: Drive, setup_s: list[float]) -> dict[str, dict]:
    """The gated metrics, with their sample counts."""
    p50, samples, _ = percentile(drive.batch_us, 0.50)
    p99, _, beyond = percentile(drive.batch_us, 0.99)
    if beyond < 10:
        raise RuntimeError(
            f"batch_p99_us has {beyond} samples beyond it (of {samples}); need 10"
        )
    metrics = {
        "pkts_per_s": {"value": drive.packets / drive.elapsed_s,
                       "samples": drive.packets, "seconds": drive.elapsed_s},
        "batch_p50_us": {"value": p50, "samples": samples},
        "batch_p99_us": {"value": p99, "samples": samples, "beyond": beyond},
        "setup_s": {"value": statistics.median(setup_s), "samples": len(setup_s)},
        "peak_rss_mib": {"value": peak_rss_mib(), "samples": 1},
    }
    for name, unit in END_TO_END.items():
        metrics[name]["unit"] = unit
    return metrics


def workload_figures(state: Any, drive: Drive) -> dict[str, dict]:
    """The end-to-end figures only one workload has (read after the
    runner is closed, so worker peaks are known)."""
    figures: dict[str, dict] = {}
    if drive.flowmods:
        figures["flowmods_per_s"] = {"value": drive.flowmods / drive.flowmod_s,
                                     "samples": drive.flowmods}
    if getattr(state, "worker_peak_rss_mib", 0):
        figures["worker_peak_rss_mib"] = {"value": state.worker_peak_rss_mib,
                                          "samples": state.runner.workers}
    report = drive.extra.get("report")
    if report is not None:
        completed = len(report.latencies)
        for name, quantile in (("p50_ticks", 0.5), ("p99_ticks", 0.99), ("p999_ticks", 0.999)):
            rank = max(1, math.ceil(quantile * completed))
            figures[name] = {"value": report.latency_percentile(quantile),
                             "samples": completed, "beyond": completed - rank}
        figures["shed_rate"] = {"value": report.shed_rate, "samples": report.admitted_packets}
    for name, figure in figures.items():
        figure["unit"] = WORKLOAD_FIGURES[name]
    return figures


def _traced_drives(
    workload: Workload, state: Any, inputs: Inputs, seconds: float, recorder: SpanRecorder
) -> tuple[list[Drive], list[Drive], dict[str, int]]:
    """Alternate untraced and traced segments, ``workload.trace_pairs``
    of each, so both sample the same stretches of a workload that is
    not stationary (flow-mod rounds, warming caches).  Returns both
    sets and the runner counters' change over the traced segments."""
    segment = seconds / (2 * workload.trace_pairs)
    plain: list[Drive] = []
    traced: list[Drive] = []
    delta: dict[str, int] = {}
    for pair in range(workload.trace_pairs):
        plain.append(workload.drive(state, inputs, segment, 0, None, warmup=pair == 0))
        before = _counters(state)
        with recorder.installed(workload.entry_points):
            traced.append(workload.drive(state, inputs, segment, 0, recorder, warmup=False))
        after = _counters(state)
        for key, value in after.items():
            delta[key] = delta.get(key, 0) + value - before[key]
    return plain, traced, delta


def _rate(drives: Sequence[Drive]) -> float:
    return sum(d.packets for d in drives) / sum(d.elapsed_s for d in drives)


def per_layer(
    state: Any,
    spans: SpanSummary,
    setup_spans: SpanSummary,
    plain: Sequence[Drive],
    traced: Sequence[Drive],
    delta: dict[str, int],
) -> dict[str, float]:
    """Every per-layer metric of a traced run (0 where a layer idles)."""
    packets = sum(d.packets for d in traced)
    wall_ns = sum(d.elapsed_s for d in traced) * 1e9
    layer_self = spans.layer_self_ns()
    lookups = delta["lookups"]
    values: dict[str, float] = {
        f"{layer}.self_ns_per_pkt": _ratio(layer_self.get(layer, 0), packets)
        for layer in TIMED_LAYERS
        if f"{layer}.self_ns_per_pkt" in PER_LAYER
    }
    values.update({
        "batch.waves_per_batch": _ratio(delta["waves"], delta["batches"]),
        "openflow.exec_ns_per_pkt": _ratio(
            spans.inclusive_ns("openflow.instructions", "openflow.action_set"), packets
        ),
        "microflow.ns_per_pkt": _ratio(
            spans.inclusive_ns("microflow.lookup_batch_columnar", "microflow.lookup_batch"),
            packets,
        ),
        "microflow.hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "megaflow.probe_ns_per_pkt": _ratio(spans.inclusive_ns(*MEGAFLOW_PROBES), packets),
        "megaflow.install_ns_per_miss": _ratio(
            spans.inclusive_ns("megaflow.install"), delta["megaflow_misses"]
        ),
        "megaflow.hit_ratio": _ratio(
            delta["megaflow_hits"], delta["megaflow_hits"] + delta["megaflow_misses"]
        ),
        "decomp.ns_per_lookup": _ratio(
            spans.inclusive_ns(*DECOMP_LOOKUPS, "decomp.trie", "decomp.lut", "decomp.index"),
            lookups,
        ),
        "decomp.lookups_per_pkt": _ratio(lookups, packets),
        "decomp.trie_ns": _ratio(spans.inclusive_ns("decomp.trie"), lookups),
        "decomp.lut_ns": _ratio(spans.inclusive_ns("decomp.lut"), lookups),
        "decomp.index_ns": _ratio(spans.inclusive_ns("decomp.index"), lookups),
        "update.flowmods": spans.count("update.add", "update.remove"),
        "lifecycle.ns_per_advance": _ratio(
            spans.inclusive_ns("lifecycle.advance"), delta["advances"]
        ),
        "lifecycle.entries_scanned_per_advance": _ratio(
            delta["entries_scanned"], delta["advances"]
        ),
        "lifecycle.expired": delta["expired"],
        "stream.admit_ns_per_pkt": _ratio(
            spans.inclusive_ns("stream.offer"), spans.count("stream.offer")
        ),
        "stream.form_ns_per_batch": _ratio(
            spans.inclusive_ns("stream.take"), spans.count("stream.take")
        ),
        "unattributed_ns_per_pkt": _ratio(wall_ns - spans.root_ns(), packets),
        "trace.wall_ns_per_pkt": _ratio(wall_ns, packets),
        "trace.overhead": _ratio(_rate(plain), _rate(traced)),
    })
    values["update.us_per_flowmod"] = _ratio(
        spans.inclusive_ns("update.add", "update.remove") / 1e3, values["update.flowmods"]
    )
    megaflow = getattr(state.runner, "megaflow", None)
    values["megaflow.masks"] = megaflow.mask_count if megaflow is not None else 0
    values["megaflow.entries"] = len(megaflow) if megaflow is not None else 0
    report = traced[-1].extra.get("report")
    for name, figure in (
        ("peak_occupancy", "peak_occupancy"), ("batches", "batches"), ("stalls", "stalls"),
        ("max_level", "max_level"), ("p50_ticks", "p50"), ("p99_ticks", "p99"),
        ("p999_ticks", "p999"), ("shed_rate", "shed_rate"),
    ):
        values[f"stream.{name}"] = getattr(report, figure) if report is not None else 0
    values.update(shard_metrics(state, spans, setup_spans, packets))
    model = architecture_memory_report(state.arch)
    values["memory.model_bits"] = model.total_bits
    values["memory.model_bits_per_rule"] = _ratio(model.total_bits, len(state.table))
    missing = PER_LAYER.keys() - values.keys()
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return values


def shard_metrics(
    state: Any, spans: SpanSummary, setup_spans: SpanSummary, packets: int
) -> dict[str, float]:
    """The shard and rulestate figures (0 on a single-process runner).
    ``shard.self_ns_per_pkt`` is not among them: it is part of the
    traced segments' wall-time sum (see :func:`per_layer`)."""
    supervision = getattr(state, "supervision", {})
    values = {
        "shard.submit_ns_per_pkt": _ratio(spans.inclusive_ns("shard.submit_batch"), packets),
        "shard.collect_ns_per_pkt": _ratio(
            spans.inclusive_ns("shard.collect_batch", "shard.collect_any"), packets
        ),
        "shard.worker_peak_rss_mib": getattr(state, "worker_peak_rss_mib", 0.0),
        # Per set-up: a run may set up more than once (see ``setup_s``).
        "rulestate.seal_s": _ratio(
            setup_spans.inclusive_ns("rulestate.seal") / 1e9, setup_spans.count("rulestate.seal")
        ),
        "rulestate.spinup_s": getattr(state, "spinup_s", 0.0),
        "rulestate.sealed_bytes": getattr(state, "sealed_bytes", 0),
    }
    for name in ("restarts", "replayed_batches", "inline_packets"):
        values[f"shard.{name}"] = supervision.get(name, 0)
    return values


def replay_sharded(
    twin: Workload, inputs: Inputs, local: Drive, checks: Checks, spans_path: Path | None
) -> dict[str, float]:
    """One traced pass of the workload's schedule through its sharded
    twin (fresh set-up, seal traced): the shard and rulestate figures.
    The twin's counters and results are checked like the main runner's,
    and its stream report must replay the single-process pass."""
    recorder = SpanRecorder()
    state, _ = _setup(twin, inputs, recorder)
    try:
        setup_spans = recorder.summary()
        recorder.clear()
        with recorder.installed(twin.entry_points):
            drive = twin.drive(state, inputs, 0.0, 0, recorder)
        check(twin, state, inputs, [drive], checks)
    finally:
        twin.close(state)
    checks.expect(
        "sharded pass replays the single-process pass",
        replay_view(drive.extra["report"]) == replay_view(local.extra["report"]),
        True,
    )
    if spans_path is not None:
        recorder.save(spans_path)
    return shard_metrics(state, recorder.summary(), setup_spans, drive.packets)


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    spans_dir: Path | None = None,
) -> dict[str, Any]:
    """One run; returns the full record (see :mod:`perfbench.run`).
    Traced runs write their spans into ``spans_dir`` when given."""
    name = workload.name
    inputs = workload.build_inputs(seed)
    recorder = SpanRecorder() if trace else None
    state, setup_s = _setup(workload, inputs, recorder)
    try:
        if recorder is None:
            drive = workload.drive(state, inputs, seconds, workload.min_batches, None)
            drives = [drive]
            metrics = end_to_end(drive, setup_s)
        else:
            setup_spans = recorder.summary()
            recorder.clear()
            plain, traced, delta = _traced_drives(workload, state, inputs, seconds, recorder)
            drives = plain + traced
        checks = check(workload, state, inputs, drives)
        if recorder is None:
            figures = workload_figures(state, drive)
        else:
            spans = recorder.summary()
            values = per_layer(state, spans, setup_spans, plain, traced, delta)
            twin = workload.sharded_twin()
            if twin is not None:
                values.update(replay_sharded(
                    twin, inputs, traced[-1], checks,
                    spans_dir / f"spans-{twin.name}-seed{seed}.npz" if spans_dir else None,
                ))
            metrics = {
                key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()
            }
            figures = {}
            if spans_dir is not None:
                recorder.save(spans_dir / f"spans-{name}-seed{seed}.npz")
    finally:
        workload.close(state)
    return {
        "stamp": stamp(name, seed, inputs),
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
        "figures": figures,
        "checks": {
            "attempted": checks.attempted,
            "failed": checks.failed,
            "error_rate": checks.error_rate,
            "messages": checks.messages,
        },
    }


def print_record(record: dict[str, Any], out: Any = sys.stdout) -> None:
    """Human-readable lines: every metric by name, value and unit."""
    s = record["stamp"]
    print(f"workload {s['workload']}  seed {s['seed']}  trace {int(record['trace'])}", file=out)
    print(f"  inputs: {s['inputs']}  digest {s['input_digest'][:16]}", file=out)
    print(f"  host: nproc {s['nproc']}  python {s['python']}  numpy {s['numpy']}", file=out)
    for title, metrics in (("metrics", record["metrics"]), ("workload figures", record["figures"])):
        if metrics:
            print(f"  {title}:", file=out)
        for metric, entry in metrics.items():
            counts = "".join(
                f"  {key}={entry[key]}" for key in ("samples", "beyond") if key in entry
            )
            print(f"    {metric:40s} {entry['value']:>16.6g} {entry['unit']:<12s}{counts}", file=out)
    c = record["checks"]
    print(f"  error_rate {c['error_rate']:.6g} ({c['failed']} of {c['attempted']} checks failed)",
          file=out)
    for message in c["messages"]:
        print(f"    FAILED {message}", file=out)
