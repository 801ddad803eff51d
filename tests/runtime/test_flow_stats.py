"""Flow-stats conservation across every runner path.

The conservation laws: every processed packet either misses table 0 or
bumps exactly one table-0 entry's packet counter, and every matched
packet credits its full frame length to that entry, so

    sum(per-entry packet counters) == matched == packets - misses
    sum(per-entry byte counters) == trace bytes - miss bytes

must hold under churn (entries removed and reinstalled mid-trace keep
their counters — the workload reinstalls the *same* objects) and on
every runner: single-process batch runners record on their own entries,
and the sharded runners — lockstep and pipelined — must merge worker
deltas back into the parent's entries (the PR-2 gap: worker hits never
reached the parent, so parent-side stats read zero; the PR-3 gap: byte
counts were wired end-to-end but always zero, because packets carried
no frame lengths).
"""

import pytest

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.lookup_table import OpenFlowLookupTable
from repro.packet.headers import frame_length
from repro.runtime import (
    BatchPipeline,
    ShardedBatchPipeline,
    churn_workload,
    run_workload,
)

PACKETS = 300
FRAME_DIST = "imix"  # per-packet lengths: the harder byte-accounting case


def build_runner(rule_set, entries, kind):
    table = OpenFlowLookupTable(tuple(rule_set.field_names), table_id=0)
    for entry in entries:
        table.add(entry)
    arch = MultiTableLookupArchitecture([table])
    if kind == "batch":
        return BatchPipeline(arch, cache_capacity=None)
    if kind == "cached":
        return BatchPipeline(arch, cache_capacity=256)
    if kind == "megaflow":
        return BatchPipeline(arch, cache_capacity=256, megaflow_capacity=512)
    return ShardedBatchPipeline(
        arch,
        workers=3,
        cache_capacity=256,
        megaflow_capacity=512,
        depth=4 if kind.endswith("-pipelined") else 1,
    )


def replay(rule_set, kind):
    """Fresh entries + a churn workload that mutates those same objects."""
    entries = list(rule_set.to_flow_entries())
    workload = churn_workload(
        rule_set,
        packet_count=PACKETS,
        flow_count=24,
        churn_rules=6,
        rounds=4,
        entries=entries,
        frame_len=FRAME_DIST,
    )
    runner = build_runner(rule_set, entries, kind)
    try:
        stats = run_workload(runner, workload, batch_size=64, keep_results=True)
    finally:
        if isinstance(runner, ShardedBatchPipeline):
            runner.close()
    return entries, stats, workload


ALL_KINDS = (
    "batch",
    "cached",
    "megaflow",
    "sharded-shm",
    "sharded-shm-pipelined",
)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_packet_conservation_under_churn(small_routing_set, kind):
    entries, stats, _ = replay(small_routing_set, kind)
    assert stats.packets == PACKETS
    assert stats.installs == stats.uninstalls > 0
    total = sum(entry.stats.packet_count for entry in entries)
    misses = stats.packets - stats.matched
    assert total == stats.matched, (
        f"{kind}: {total} per-entry packets vs {stats.matched} matched"
    )
    assert total + misses == stats.packets
    # The aggregate counter mirrors the per-entry sum (single table:
    # one matched entry per matched packet).
    assert stats.flow_packets == total


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_byte_conservation_under_churn(small_routing_set, kind):
    """Byte conservation: trace bytes = per-entry byte sum + miss bytes,
    on every runner path, with per-packet (IMIX) frame lengths."""
    entries, stats, workload = replay(small_routing_set, kind)
    per_entry_bytes = sum(entry.stats.byte_count for entry in entries)
    miss_bytes = sum(
        frame_length(result.final_fields)
        for result in stats.results
        if not result.matched_entries
    )
    trace_bytes = workload.byte_count
    assert trace_bytes > 0, "the IMIX trace must carry frame lengths"
    assert per_entry_bytes > 0, f"{kind}: byte counters stayed zero"
    assert per_entry_bytes + miss_bytes == trace_bytes, (
        f"{kind}: {per_entry_bytes} entry bytes + {miss_bytes} miss bytes "
        f"!= {trace_bytes} trace bytes"
    )
    # The aggregate counter mirrors the per-entry sum (single table:
    # one matched entry per matched packet).
    assert stats.flow_bytes == per_entry_bytes


@pytest.mark.parametrize("kind", ("sharded-shm", "sharded-shm-pipelined"))
def test_sharded_flow_stats_match_single_process_exactly(
    small_routing_set, kind
):
    """Acceptance: parent-side per-entry counters after a sharded churn
    replay equal the single-process runner's, entry for entry — packet
    *and* byte counts, lockstep and pipelined."""
    single_entries, single_stats, _ = replay(small_routing_set, "megaflow")
    sharded_entries, sharded_stats, _ = replay(small_routing_set, kind)
    single = {
        (e.match, e.priority): (e.stats.packet_count, e.stats.byte_count)
        for e in single_entries
    }
    sharded = {
        (e.match, e.priority): (e.stats.packet_count, e.stats.byte_count)
        for e in sharded_entries
    }
    assert sharded == single
    assert sharded_stats.flow_packets == single_stats.flow_packets > 0
    assert sharded_stats.flow_bytes == single_stats.flow_bytes > 0


def test_scalar_paths_conserve(small_routing_set):
    """The law holds on the scalar scan/decomposition references too."""
    entries = list(small_routing_set.to_flow_entries())
    table = OpenFlowLookupTable(
        tuple(small_routing_set.field_names), table_id=0
    )
    for entry in entries:
        table.add(entry)
    arch = MultiTableLookupArchitecture([table])
    workload = churn_workload(
        small_routing_set, packet_count=100, flow_count=12, entries=entries
    )
    matched = 0
    packets = 0
    for event in workload.events:
        if event[0] == "packets":
            for fields in event[1]:
                packets += 1
                matched += bool(arch.process(fields).matched_entries)
        elif event[0] == "install":
            arch.table(event[1]).add(event[2])
        else:
            arch.table(event[1]).remove(event[2], event[3])
    assert packets == 100
    total = sum(entry.stats.packet_count for entry in entries)
    assert total == matched
    # Fixed-length frames (the scenario default): every match credits
    # exactly one MTU frame, so bytes are packets * frame length.
    from repro.packet.generator import DEFAULT_FRAME_LEN

    total_bytes = sum(entry.stats.byte_count for entry in entries)
    assert total_bytes == matched * DEFAULT_FRAME_LEN > 0
