"""Throughput experiment: cache/batch counters next to the memory claims.

The paper's tables cost the architecture's *memory*; this experiment
reports what the runtime layer gets out of it — packets/sec, microflow
and megaflow hit rates, megaflow occupancy, waves per batch and
per-entry flow-stats totals for every scenario in the catalog — then a
sharded (shared-memory transport) replay whose parent-side flow stats
must agree with the single-process counters, and finally the post-churn
memory breakdown (action-table free-list high-water mark and flow
counters included) so the throughput, monitoring and memory sides of
the story land in one report.
"""

from __future__ import annotations

import time

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table
from repro.experiments.registry import ExperimentResult, experiment
from repro.filters.paper_data import RoutingFilterStats
from repro.filters.synthetic import generate_routing_set
from repro.memory.report import architecture_memory_report
from repro.runtime import (
    BatchPipeline,
    SCENARIOS,
    ShardedBatchPipeline,
    StreamConfig,
    bursty_arrivals,
    run_stream,
    run_workload,
    widen_rule_set,
)
from repro.util.tables import TextTable

#: A bbra-scale synthetic routing row: big enough for real hit-rate
#: structure, small enough that the full catalog replays in seconds.
_STATS = RoutingFilterStats("tput", 400, 12, 40, 90)
_PACKETS = 4000
_FLOWS = 64


@experiment("throughput")
def run() -> ExperimentResult:
    result = ExperimentResult(experiment_id="throughput")
    rule_set = widen_rule_set(
        generate_routing_set(_STATS, seed=29), noise_field="tcp_src"
    )

    table = TextTable(
        headers=[
            "scenario",
            "packets",
            "pkts/sec",
            "Mbit/s",
            "microflow hit%",
            "megaflow hit%",
            "megaflow entries",
            "masks",
            "waves/batch",
            "flow pkts",
            "flow MB",
            "expired",
            "sweep lanes",
        ],
        title="Two-tier cached batch runtime, per scenario (IMIX frames)",
    )
    last_arch = None
    for name in sorted(SCENARIOS):
        workload = SCENARIOS[name](
            rule_set, packet_count=_PACKETS, flow_count=_FLOWS, frame_len="imix"
        )
        arch = MultiTableLookupArchitecture([build_lookup_table(rule_set)])
        runner = BatchPipeline(arch, cache_capacity=4096, megaflow_capacity=4096)
        started = time.perf_counter()
        stats = run_workload(runner, workload, batch_size=256)
        elapsed = time.perf_counter() - started
        pps = stats.packets / elapsed if elapsed > 0 else 0.0
        mbps = 8 * workload.byte_count / elapsed / 1e6 if elapsed > 0 else 0.0
        megaflow = runner.megaflow
        table.add_row(
            [
                name,
                stats.packets,
                f"{pps:,.0f}",
                f"{mbps:,.1f}",
                f"{100 * stats.cache_hit_rate:.1f}",
                f"{100 * stats.megaflow_hit_rate:.1f}",
                len(megaflow),
                megaflow.mask_count,
                f"{stats.waves_per_batch:.2f}",
                stats.flow_packets,
                f"{stats.flow_bytes / 1e6:.2f}",
                stats.expired,
                runner.lifecycle.stats.entries_scanned,
            ]
        )
        result.headline[f"{name.replace('-', '_')}_pkts_per_sec"] = round(pps)
        result.headline[f"{name.replace('-', '_')}_mbit_per_sec"] = round(
            mbps, 1
        )
        if name == "timeout-churn":
            # Lifecycle cost next to the throughput it taxes: entries
            # removed by the sweeps, entry lanes the sweeps examined,
            # and the marginal wall cost of one steady-state sweep over
            # the live table (a dt=0 advance sweeps without moving
            # time, so nothing expires and no version bumps).
            result.headline["timeout_churn_expired_entries"] = stats.expired
            result.headline["timeout_churn_sweep_entry_lanes"] = (
                runner.lifecycle.stats.entries_scanned
            )
            reps = 50
            started = time.perf_counter()
            for _ in range(reps):
                runner.advance_clock(0)
            sweep_us = (time.perf_counter() - started) / reps * 1e6
            result.headline["timeout_churn_sweep_us"] = round(sweep_us, 1)
            result.notes.append(
                f"timeout-churn: {stats.expired} entries expired over "
                f"{stats.advances} sweeps "
                f"({runner.lifecycle.stats.entries_scanned} entry lanes "
                f"scanned); a steady-state sweep of the live table costs "
                f"~{sweep_us:.1f} us"
            )
        if name == "uniform-wide":
            result.headline["uniform_wide_megaflow_hit_rate"] = round(
                stats.megaflow_hit_rate, 3
            )
            result.headline["uniform_wide_microflow_hit_rate"] = round(
                stats.cache_hit_rate, 3
            )
        last_arch = arch if name == "churn" else last_arch
    result.tables.append(table)

    # Sharded stats-return check: replay zipf through the *pipelined*
    # shared-memory transport (depth 4) and compare parent-side flow
    # stats — packets and bytes — with a single-process run; the
    # counters the PR-2 runner silently dropped, the byte side zero
    # until PR 4 gave packets frame lengths.
    workload = SCENARIOS["zipf"](
        rule_set, packet_count=_PACKETS, flow_count=_FLOWS, frame_len="imix"
    )
    single = BatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(rule_set)]),
        cache_capacity=4096,
        megaflow_capacity=4096,
    )
    single_stats = run_workload(single, workload, batch_size=256)
    with ShardedBatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(rule_set)]),
        workers=2,
        cache_capacity=4096,
        megaflow_capacity=4096,
        depth=4,
    ) as sharded:
        sharded_stats = run_workload(sharded, workload, batch_size=256)
        supervision = sharded.supervision_snapshot()
    result.headline["sharded_shm_flow_packets"] = sharded_stats.flow_packets
    result.headline["single_flow_packets"] = single_stats.flow_packets
    result.headline["sharded_shm_flow_bytes"] = sharded_stats.flow_bytes
    result.headline["single_flow_bytes"] = single_stats.flow_bytes
    # Supervision counters for the same run: a healthy pipeline must
    # report zero restarts / replayed batches / fallback-inline packets,
    # so any nonzero value here flags recovery machinery leaking into
    # the fault-free path.
    result.headline["sharded_shm_worker_restarts"] = supervision["restarts"]
    result.headline["sharded_shm_replayed_batches"] = supervision[
        "replayed_batches"
    ]
    result.headline["sharded_shm_inline_packets"] = supervision[
        "inline_packets"
    ]
    agree = (
        sharded_stats.flow_packets == single_stats.flow_packets
        and sharded_stats.flow_bytes == single_stats.flow_bytes
    )
    result.notes.append(
        "sharded(shm, pipelined depth=4) parent-side flow stats "
        f"{'match' if agree else 'DIVERGE FROM'} the single-process run "
        f"({sharded_stats.flow_packets} vs {single_stats.flow_packets} pkts, "
        f"{sharded_stats.flow_bytes} vs {single_stats.flow_bytes} bytes)"
    )

    # Open-loop streaming: the same bursty arrivals replayed twice,
    # once against a declared service rate the bursts overwhelm and
    # once with headroom.  Overload must shed (deterministically — the
    # recorded counters are replayable by seed); with capacity above
    # the offered load, shedding anything would be a bug, so shed==0 is
    # asserted, not just reported.
    schedule = bursty_arrivals(
        rule_set,
        packet_count=_PACKETS // 2,
        mean_burst=24.0,
        burst_gap=16.0,
        seed=11,
    )
    overloaded = run_stream(
        BatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(rule_set)]),
            cache_capacity=4096,
            megaflow_capacity=4096,
        ),
        schedule,
        StreamConfig(capacity=64, batch_size=16, window=2, service_rate=0.5),
    )
    relaxed = run_stream(
        BatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(rule_set)]),
            cache_capacity=4096,
            megaflow_capacity=4096,
        ),
        schedule,
        StreamConfig(capacity=4096, batch_size=256, window=4),
    )
    assert relaxed.shed_packets == 0, (
        "unlimited service rate with capacity above the offered load "
        f"must not shed, yet {relaxed.shed_packets} packets were dropped"
    )
    result.headline["stream_offered_load_pkts_per_tick"] = round(
        schedule.offered_load, 4
    )
    result.headline["stream_overload_shed_packets"] = overloaded.shed_packets
    result.headline["stream_overload_shed_rate"] = round(
        overloaded.shed_rate, 4
    )
    result.headline["stream_overload_p50_ticks"] = overloaded.p50
    result.headline["stream_overload_p99_ticks"] = overloaded.p99
    result.headline["stream_overload_p999_ticks"] = overloaded.p999
    result.headline["stream_overload_max_degrade_level"] = overloaded.max_level
    result.headline["stream_relaxed_shed_packets"] = relaxed.shed_packets
    result.headline["stream_relaxed_p99_ticks"] = relaxed.p99
    shed_reasons = ", ".join(
        f"{reason}={count}"
        for reason, count in sorted(overloaded.shed_by_reason.items())
    )
    result.notes.append(
        "open-loop streaming (bursty, "
        f"{schedule.offered_load:.2f} pkts/tick offered): at service rate "
        f"0.5/tick the runtime shed {overloaded.shed_packets} packets "
        f"({shed_reasons}) with p99 {overloaded.p99} ticks; with headroom "
        f"it shed 0 (asserted) at p99 {relaxed.p99} ticks"
    )

    # Memory context: the post-churn breakdown, free-list HWM included.
    assert last_arch is not None
    memory = architecture_memory_report(last_arch)
    result.tables.append(memory.to_table())
    result.headline["total_mbits"] = round(memory.total_mbits, 3)
    result.headline["churn_action_free_hwm"] = last_arch.lookup_tables[
        0
    ].actions.free_high_water
    result.notes.append(
        "throughput measured on the batched two-tier (microflow+megaflow) "
        "path; 'actions (free hwm)' is the churn compaction headroom "
        "(excluded from TOTAL)"
    )
    return result
