"""Throughput bench — packets/sec across the runtime's lookup paths.

The workload axis the paper leaves open: the same rule set and the same
traffic, classified six ways —

- **scan**: the behavioural ``FlowTable`` linear scan, per packet;
- **decomposition**: ``OpenFlowLookupTable.lookup``, per packet;
- **batch**: ``OpenFlowLookupTable.lookup_batch`` (vectorized extraction
  + per-batch memoization), no cache;
- **cached batch**: a ``MicroflowCache`` in front of the batch path;
- **columnar cached batch**: the same cache probed through the columnar
  fast path (``PacketBatch`` views, vectorized key hashing) — the
  ``columnar_*`` record keys; the committed record must show it at
  least 2x the dict-path ``cached_batch`` on the zipf trace;
- **megaflow**: the two-tier (microflow + megaflow) ``BatchPipeline`` on
  the ``uniform-wide`` scenario, where exact-match caching collapses;
- **columnar megaflow**: the same two-tier runner replaying a columnar
  workload (vectorized masked-key probes, replay materialisation
  skipped when nobody keeps results);
- **sharded**: ``ShardedBatchPipeline`` fanning large batches across
  worker processes;
- **sharded-shm**: the lockstep shared-memory round-trip against the
  single-process runner on *small* batches, where per-batch IPC
  overhead dominates the workers' useful work;
- **sharded-shm-pipelined**: the double-buffered dispatch/collect loop
  (``process_batches``, ring depth >= 2) against the lockstep shm
  round-trip on the same small batches;
- **timeout-churn**: the two-tier pipeline replaying the mice/elephant
  timeout scenario — idle/hard expiries driven by virtual-clock
  ``advance`` events and vectorized sweeps — against byte-identical
  traffic with the clock frozen (no sweeps, no expiries), so the
  ratio prices the whole lifecycle tax on end-to-end throughput;
- **shared-state**: the sharded runner on a 10^5-rule table with
  ``shared_rules=True`` (workers attach to one sealed shm snapshot,
  :mod:`repro.runtime.rulestate`) against the eager runner whose
  workers each rebuild a private replica — recording worker spin-up
  wall clock and per-worker RSS next to pkts/sec, the paper's memory
  argument measured instead of modelled (see docs/memory-model.md).

Traces carry IMIX frame lengths, so every mode also reports bits/sec
next to pkts/sec (the ``bits_per_sec`` record section).  Scenarios come
from :mod:`repro.runtime.scenarios`.  Three speedup claims are asserted
(outside smoke mode): cached batch >= 5x per-packet decomposition on
zipf, the megaflow path >= 3x the plain batched path on uniform-wide,
and — on multi-core hosts — the pipelined loop strictly beating the
lockstep one on small-batch sharded wall clock (single-core hosts only
no-regression-guard the pipelined loop: overlap needs a second core to
buy wall clock).  Every measured pkts/sec lands in
``BENCH_throughput.json`` at the repo root so the perf trajectory is
tracked across PRs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table
from repro.filters.synthetic import large_rule_set
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime import (
    BatchPipeline,
    MicroflowCache,
    ShardedBatchPipeline,
    StreamConfig,
    bursty_arrivals,
    churn_workload,
    columnar_workload,
    poisson_arrivals,
    run_stream,
    run_workload,
    timeout_churn_workload,
    uniform_wide_workload,
    widen_rule_set,
    zipf_weights,
)

BATCH_SIZE = 256
FLOW_COUNT = 200
REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_throughput.json"


@pytest.fixture(scope="module")
def trace_len(bench_scale) -> int:
    return max(1000, int(40_000 * bench_scale))


@pytest.fixture(scope="module")
def bench_record(smoke, trace_len):
    """Machine-readable results, written to ``BENCH_throughput.json`` at
    module teardown so the perf trajectory survives across PRs.  Smoke
    runs write a sibling ``.smoke.json`` instead: their timings are
    entry-point checks, not the committed perf record."""
    record = {
        "benchmark": "throughput",
        "smoke": smoke,
        "trace_len": trace_len,
        "batch_size": BATCH_SIZE,
        "flow_count": FLOW_COUNT,
        "cpu_count": os.cpu_count(),
        "pkts_per_sec": {},
        "bits_per_sec": {},
        "speedups": {},
        #: Per-key cpu stamp for the speedups: a merged record can carry
        #: ratios measured on different hosts, and check_regression
        #: drops the baseline-relative band for cpu-sensitive keys
        #: whose stamps disagree with the gating host (absolute floors
        #: still apply).
        "speedup_cpus": {},
        "counters": {},
        #: Open-loop streaming SLO section: tail-latency percentiles in
        #: *virtual ticks* plus the shed ledger of a fixed-size overload
        #: schedule (identical in smoke and full runs, so the gate can
        #: band p99 across records), with a same-seed rerun's shed count
        #: for the absolute determinism check.
        "streaming": {},
    }
    yield record
    path = (
        RESULTS_PATH.with_suffix(".smoke.json") if smoke else RESULTS_PATH
    )
    # Merge into any existing record so a partial run (-k selection)
    # refreshes only the modes it measured instead of clobbering the
    # committed perf trajectory.
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = None
    if isinstance(previous, dict):
        for section in (
            "pkts_per_sec",
            "bits_per_sec",
            "speedups",
            "speedup_cpus",
            "counters",
            "streaming",
        ):
            merged = dict(previous.get(section) or {})
            merged.update(record[section])
            record[section] = merged
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def zipf_trace(routing_bbra, trace_generator, trace_len):
    matches = [r.to_match() for r in routing_bbra.rules[:FLOW_COUNT]]
    flows = trace_generator.flow_pool(
        matches, fill_fields=routing_bbra.field_names
    )
    # Per-flow IMIX frame lengths: byte counters and bits/sec get real
    # numbers while the pool aliasing (codec dedup, memoization) that
    # the perf trajectory was recorded against is preserved.
    for flow, frame_len in zip(
        flows, trace_generator.frame_lengths(len(flows), "imix")
    ):
        flow[FRAME_LEN_FIELD] = frame_len
    return trace_generator.sample_trace(
        flows, trace_len, zipf_weights(len(flows))
    )


@pytest.fixture(scope="module")
def zipf_trace_bytes(zipf_trace) -> int:
    return sum(fields[FRAME_LEN_FIELD] for fields in zipf_trace)


def _batches(trace, size=BATCH_SIZE):
    return [trace[i : i + size] for i in range(0, len(trace), size)]


def _record_rates(record, mode, packets, elapsed, trace_bytes=0) -> None:
    """One mode's measured pkts/sec (and bits/sec when the trace carries
    frame lengths) into the machine-readable record."""
    if elapsed <= 0:
        return
    record["pkts_per_sec"][mode] = round(packets / elapsed)
    if trace_bytes:
        record["bits_per_sec"][mode] = round(8 * trace_bytes / elapsed)


def _record_speedup(record, key, value) -> None:
    """One speedup ratio, stamped with the cpu count it was measured on
    (check_regression refuses to diff cpu-sensitive ratios across
    differently-sized hosts)."""
    record["speedups"][key] = round(value, 2)
    record["speedup_cpus"][key] = os.cpu_count()


def _report_pps(
    benchmark, packets: int, record=None, mode=None, trace_bytes=0
) -> None:
    if benchmark.stats is None:  # --benchmark-disable
        return
    mean = benchmark.stats.stats.mean
    if mean > 0:
        pps = round(packets / mean)
        benchmark.extra_info["pkts_per_sec"] = pps
        if record is not None and mode is not None:
            _record_rates(record, mode, packets, mean, trace_bytes)


def _mean_worker_rss_kib(pids) -> int:
    """Mean resident set size (KiB) of the given worker pids, read from
    ``/proc/<pid>/status``.  Returns 0 where /proc is unavailable (the
    caller skips the RSS assertions, keeping everything else portable)."""
    sizes = []
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            return 0
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                sizes.append(int(line.split()[1]))
                break
    if not sizes:
        return 0
    return round(sum(sizes) / len(sizes))


def _assert_equivalent(got, expected) -> None:
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.output_ports == b.output_ports
        assert a.sent_to_controller == b.sent_to_controller
        assert a.dropped == b.dropped
        assert a.metadata == b.metadata
        assert a.tables_visited == b.tables_visited
        assert a.final_fields == b.final_fields


def test_throughput_scan(
    benchmark, routing_bbra, zipf_trace, zipf_trace_bytes, bench_record
):
    table = FlowTable()
    for entry in routing_bbra.to_flow_entries():
        table.add(entry)
    # The scan path is orders of magnitude slower; keep rounds minimal.
    hits = benchmark.pedantic(
        lambda: sum(1 for f in zipf_trace if table.lookup(f) is not None),
        rounds=1,
        iterations=1,
    )
    assert hits > len(zipf_trace) // 2
    _report_pps(
        benchmark, len(zipf_trace), bench_record, "scan", zipf_trace_bytes
    )


def test_throughput_decomposition(
    benchmark, routing_bbra, zipf_trace, zipf_trace_bytes, bench_record,
    profile_mode,
):
    table = build_lookup_table(routing_bbra)

    def classify():
        return sum(1 for f in zipf_trace if table.lookup(f) is not None)

    hits = benchmark.pedantic(classify, rounds=3, iterations=1)
    assert hits > len(zipf_trace) // 2
    _report_pps(
        benchmark,
        len(zipf_trace),
        bench_record,
        "decomposition",
        zipf_trace_bytes,
    )
    with profile_mode("decomposition"):
        classify()


def test_throughput_batch(
    benchmark, routing_bbra, zipf_trace, zipf_trace_bytes, bench_record,
    profile_mode,
):
    table = build_lookup_table(routing_bbra)
    batches = _batches(zipf_trace)

    def classify():
        return sum(
            1
            for batch in batches
            for hit in table.lookup_batch(batch)
            if hit is not None
        )

    hits = benchmark.pedantic(classify, rounds=3, iterations=1)
    assert hits > len(zipf_trace) // 2
    _report_pps(
        benchmark, len(zipf_trace), bench_record, "batch", zipf_trace_bytes
    )
    with profile_mode("batch"):
        classify()


def test_throughput_cached_batch(
    benchmark, routing_bbra, zipf_trace, zipf_trace_bytes, bench_record,
    profile_mode,
):
    table = build_lookup_table(routing_bbra)
    cache = MicroflowCache(table)
    batches = _batches(zipf_trace)

    def classify():
        return sum(
            1
            for batch in batches
            for hit in cache.lookup_batch(batch)
            if hit is not None
        )

    hits = benchmark(classify)
    assert hits > len(zipf_trace) // 2
    benchmark.extra_info["cache_hit_rate"] = round(cache.hit_rate, 3)
    _report_pps(
        benchmark,
        len(zipf_trace),
        bench_record,
        "cached_batch",
        zipf_trace_bytes,
    )
    with profile_mode("cached_batch"):
        classify()


def test_throughput_columnar_cached_batch(
    benchmark, routing_bbra, zipf_trace, zipf_trace_bytes, bench_record,
    profile_mode,
):
    """The columnar fast path over the same cache shape: one
    ``PacketBatch`` per trace, sliced into batch-size views (what
    ``columnar_workload`` emits), probed via vectorized key hashing."""
    table = build_lookup_table(routing_bbra)
    cache = MicroflowCache(table)
    columnar = PacketBatch.from_dicts(zipf_trace)
    batches = [
        columnar[i : i + BATCH_SIZE]
        for i in range(0, len(columnar), BATCH_SIZE)
    ]

    def classify():
        return sum(
            1
            for batch in batches
            for hit in cache.lookup_batch_columnar(batch)
            if hit is not None
        )

    hits = benchmark(classify)
    assert hits > len(zipf_trace) // 2
    benchmark.extra_info["cache_hit_rate"] = round(cache.hit_rate, 3)
    _report_pps(
        benchmark,
        len(zipf_trace),
        bench_record,
        "columnar_cached_batch",
        zipf_trace_bytes,
    )
    with profile_mode("columnar_cached_batch"):
        classify()


def test_columnar_cached_batch_speedup(
    routing_bbra, zipf_trace, smoke, bench_record
):
    """Acceptance claim: the columnar cached path is >= 2x the dict
    cached path on the zipf trace, outcomes and per-entry flow stats
    bitwise-identical.

    Timing asserts only outside smoke mode (see
    :func:`test_cached_batch_speedup`); equivalence always.
    """
    dict_table = build_lookup_table(routing_bbra)
    dict_cache = MicroflowCache(dict_table)
    start = time.perf_counter()
    dict_hits: list = []
    for batch in _batches(zipf_trace):
        dict_hits.extend(dict_cache.lookup_batch(batch))
    dict_elapsed = time.perf_counter() - start

    columnar_table = build_lookup_table(routing_bbra)
    columnar_cache = MicroflowCache(columnar_table)
    columnar = PacketBatch.from_dicts(zipf_trace)
    start = time.perf_counter()
    columnar_hits: list = []
    for i in range(0, len(columnar), BATCH_SIZE):
        columnar_hits.extend(
            columnar_cache.lookup_batch_columnar(columnar[i : i + BATCH_SIZE])
        )
    columnar_elapsed = time.perf_counter() - start

    for a, b in zip(dict_hits, columnar_hits):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.match == b.match and a.priority == b.priority
    assert sorted(
        (e.stats.packet_count, e.stats.byte_count) for e in dict_table
    ) == sorted(
        (e.stats.packet_count, e.stats.byte_count) for e in columnar_table
    ), "columnar path skewed per-entry flow stats"

    speedup = dict_elapsed / max(columnar_elapsed, 1e-9)
    _record_speedup(bench_record, "columnar_vs_dict_cached_batch", speedup)
    print(
        f"\ndict cache {len(zipf_trace) / dict_elapsed:,.0f} pkts/s, "
        f"columnar {len(zipf_trace) / columnar_elapsed:,.0f} pkts/s "
        f"({speedup:.2f}x, hit rate {columnar_cache.hit_rate:.2f})"
    )
    if not smoke:
        assert speedup >= 2.0, (
            f"columnar cached path only {speedup:.2f}x the dict path"
        )


def test_throughput_pipeline_churn(
    benchmark, routing_bbra, trace_len, bench_record
):
    """The full batched pipeline under the churn scenario (mutations
    interleaved, caches revalidating on every flow-mod)."""
    workload = churn_workload(
        routing_bbra, packet_count=trace_len, flow_count=FLOW_COUNT
    )

    def replay():
        arch = MultiTableLookupArchitecture([build_lookup_table(routing_bbra)])
        return run_workload(
            BatchPipeline(arch), workload, batch_size=BATCH_SIZE
        )

    stats = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert stats.packets == trace_len
    assert stats.uninstalls == stats.installs > 0
    benchmark.extra_info["cache_hit_rate"] = round(stats.cache_hit_rate, 3)
    bench_record["counters"]["churn_cache_hit_rate"] = round(
        stats.cache_hit_rate, 3
    )


def test_cached_batch_speedup(routing_bbra, zipf_trace, smoke, bench_record):
    """Acceptance claim: cached batch >= 5x per-packet decomposition on a
    zipf-skewed trace.

    In smoke mode (tiny trace, run inside the tier-1 suite) the timing
    window is a couple of milliseconds, so only result equivalence is
    asserted — a scheduler stall must not flake the deterministic
    suite; the full benchmark run enforces the real 5x claim.
    """
    table = build_lookup_table(routing_bbra)

    start = time.perf_counter()
    per_packet = [table.lookup(f) for f in zipf_trace]
    per_packet_elapsed = time.perf_counter() - start

    cache = MicroflowCache(table)
    cached: list = []
    start = time.perf_counter()
    for batch in _batches(zipf_trace):
        cached.extend(cache.lookup_batch(batch))
    cached_elapsed = time.perf_counter() - start

    for a, b in zip(per_packet, cached):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.match == b.match and a.priority == b.priority
    speedup = per_packet_elapsed / max(cached_elapsed, 1e-9)
    _record_speedup(
        bench_record, "cached_batch_vs_decomposition", speedup
    )
    print(
        f"\nper-packet {len(zipf_trace) / per_packet_elapsed:,.0f} pkts/s, "
        f"cached batch {len(zipf_trace) / cached_elapsed:,.0f} pkts/s "
        f"({speedup:.1f}x, hit rate {cache.hit_rate:.2f})"
    )
    if not smoke:
        assert speedup >= 5.0, f"cached batch only {speedup:.1f}x faster"


def test_megaflow_uniform_wide_speedup(
    routing_bbra, trace_len, smoke, bench_record, profile_mode
):
    """Acceptance claim: on ``uniform-wide`` — where every packet is a
    fresh microflow, so exact-match caching is useless — the two-tier
    megaflow path is >= 3x the plain batched decomposition path."""
    wide = widen_rule_set(routing_bbra)
    workload = uniform_wide_workload(
        wide, packet_count=trace_len, flow_count=FLOW_COUNT
    )

    def replay(cache_capacity, megaflow_capacity):
        arch = MultiTableLookupArchitecture([build_lookup_table(wide)])
        runner = BatchPipeline(
            arch,
            cache_capacity=cache_capacity,
            megaflow_capacity=megaflow_capacity,
        )
        start = time.perf_counter()
        stats = run_workload(
            runner, workload, batch_size=BATCH_SIZE, keep_results=True
        )
        return stats, time.perf_counter() - start, runner

    plain_stats, plain_elapsed, _ = replay(None, None)
    mega_stats, mega_elapsed, runner = replay(4096, 8192)

    _assert_equivalent(mega_stats.results, plain_stats.results)
    assert mega_stats.megaflow_hit_rate > 0.5, "megaflow must absorb the trace"

    plain_pps = trace_len / plain_elapsed
    mega_pps = trace_len / mega_elapsed
    speedup = plain_elapsed / max(mega_elapsed, 1e-9)
    workload_bytes = workload.byte_count
    _record_rates(
        bench_record,
        "batch_uniform_wide",
        trace_len,
        plain_elapsed,
        workload_bytes,
    )
    _record_rates(
        bench_record,
        "megaflow_uniform_wide",
        trace_len,
        mega_elapsed,
        workload_bytes,
    )
    _record_speedup(bench_record, "megaflow_vs_batch_uniform_wide", speedup)
    bench_record["counters"]["uniform_wide_megaflow_hit_rate"] = round(
        mega_stats.megaflow_hit_rate, 3
    )
    bench_record["counters"]["uniform_wide_megaflow_entries"] = len(
        runner.megaflow
    )
    print(
        f"\nplain batch {plain_pps:,.0f} pkts/s, "
        f"megaflow {mega_pps:,.0f} pkts/s ({speedup:.1f}x, "
        f"hit rate {mega_stats.megaflow_hit_rate:.2f}, "
        f"{len(runner.megaflow)} aggregates)"
    )
    with profile_mode("megaflow_uniform_wide"):
        replay(4096, 8192)
    if not smoke:
        assert speedup >= 3.0, f"megaflow path only {speedup:.1f}x faster"


def test_columnar_megaflow_uniform_wide(
    routing_bbra, trace_len, smoke, bench_record, profile_mode
):
    """The ``columnar_megaflow_uniform_wide`` mode: the two-tier runner
    replaying a columnar workload (vectorized ``lanes & mask`` probes;
    no per-packet result materialisation when nobody keeps results)
    against the dict-path megaflow replay of byte-identical traffic.
    Must never lose to the dict path outside smoke mode; results and
    counters are checked identical."""
    wide = widen_rule_set(routing_bbra)
    workload = uniform_wide_workload(
        wide, packet_count=trace_len, flow_count=FLOW_COUNT
    )
    columnar = columnar_workload(workload)

    def runner():
        return BatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(wide)]),
            cache_capacity=4096,
            megaflow_capacity=8192,
        )

    def replay(target, keep_results=False):
        instance = runner()
        start = time.perf_counter()
        stats = run_workload(
            instance, target, batch_size=BATCH_SIZE, keep_results=keep_results
        )
        return stats, time.perf_counter() - start

    dict_stats, dict_elapsed = replay(workload)
    columnar_stats, columnar_elapsed = replay(columnar)

    for field in (
        "packets",
        "matched",
        "dropped",
        "sent_to_controller",
        "megaflow_hits",
        "megaflow_misses",
        "flow_packets",
        "flow_bytes",
    ):
        assert getattr(dict_stats, field) == getattr(columnar_stats, field), field
    # Materialised results stay bitwise-identical too (untimed pass).
    kept_dict, _ = replay(workload, keep_results=True)
    kept_columnar, _ = replay(columnar, keep_results=True)
    _assert_equivalent(kept_columnar.results, kept_dict.results)

    workload_bytes = workload.byte_count
    assert columnar.byte_count == workload_bytes
    _record_rates(
        bench_record,
        "columnar_megaflow_uniform_wide",
        trace_len,
        columnar_elapsed,
        workload_bytes,
    )
    speedup = dict_elapsed / max(columnar_elapsed, 1e-9)
    _record_speedup(
        bench_record, "columnar_vs_dict_megaflow_uniform_wide", speedup
    )
    print(
        f"\ndict megaflow {trace_len / dict_elapsed:,.0f} pkts/s, "
        f"columnar {trace_len / columnar_elapsed:,.0f} pkts/s "
        f"({speedup:.2f}x)"
    )
    with profile_mode("columnar_megaflow_uniform_wide"):
        replay(columnar)
    if not smoke:
        assert speedup >= 1.0, (
            f"columnar megaflow replay regressed to {speedup:.2f}x of the "
            "dict path"
        )


def test_sharded_large_batches(
    routing_bbra, zipf_trace, zipf_trace_bytes, smoke, bench_record
):
    """``ShardedBatchPipeline`` vs the single-process runner on large
    batches: always bitwise-identical; faster wall-clock whenever the
    host actually has cores to shard across (assertion skipped on
    single-core machines, where process fan-out cannot win)."""
    large_batches = _batches(zipf_trace, size=2048)

    single = BatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
        cache_capacity=None,
    )
    start = time.perf_counter()
    expected = [
        r for batch in large_batches for r in single.process_batch(batch)
    ]
    single_elapsed = time.perf_counter() - start

    with ShardedBatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
        workers=4,
        cache_capacity=None,
    ) as sharded:
        sharded.process_batch(large_batches[0])  # warm the workers up
        start = time.perf_counter()
        got = [
            r for batch in large_batches for r in sharded.process_batch(batch)
        ]
        sharded_elapsed = time.perf_counter() - start

    _assert_equivalent(got, expected[: len(got)])
    single_pps = len(zipf_trace) / single_elapsed
    sharded_pps = len(zipf_trace) / sharded_elapsed
    _record_rates(
        bench_record,
        "single_large_batch",
        len(zipf_trace),
        single_elapsed,
        zipf_trace_bytes,
    )
    _record_rates(
        bench_record,
        "sharded_large_batch",
        len(zipf_trace),
        sharded_elapsed,
        zipf_trace_bytes,
    )
    _record_speedup(
        bench_record,
        "sharded_vs_single",
        single_elapsed / max(sharded_elapsed, 1e-9),
    )
    print(
        f"\nsingle {single_pps:,.0f} pkts/s, sharded(4) "
        f"{sharded_pps:,.0f} pkts/s on {os.cpu_count()} cpu(s)"
    )
    if not smoke and (os.cpu_count() or 1) >= 4:
        assert sharded_pps > single_pps, (
            f"sharded {sharded_pps:,.0f} pkts/s did not beat "
            f"single-process {single_pps:,.0f} pkts/s"
        )


def test_sharded_shm_small_batches(
    routing_bbra, zipf_trace, zipf_trace_bytes, bench_record
):
    """The ``sharded-shm`` mode: the lockstep shared-memory round-trip
    (``process_batch``, depth 1) against the single-process runner on
    small batches, where per-batch IPC overhead dominates the workers'
    useful work.  Results must be bitwise-identical to the
    single-process runner, with every worker flow hit merged into the
    parent's entries.  The ratio is cpu-stamped: worker fan-out on one
    core measures scheduler contention, not transport cost."""
    small_batches = _batches(zipf_trace, size=64)
    single = BatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
        cache_capacity=None,
    )
    start = time.perf_counter()
    expected = [r for batch in small_batches for r in single.process_batch(batch)]
    single_elapsed = time.perf_counter() - start

    with ShardedBatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
        workers=4,
        cache_capacity=None,
        depth=1,
    ) as sharded:
        sharded.process_batch(small_batches[0])  # warm the workers up
        warmed_flow_packets = sharded.flow_packets
        start = time.perf_counter()
        got = [
            r
            for batch in small_batches
            for r in sharded.process_batch(batch)
        ]
        shm_elapsed = time.perf_counter() - start
        _assert_equivalent(got, expected[: len(got)])
        # Worker flow hits must land on the parent's entries.
        assert sharded.flow_packets - warmed_flow_packets == sum(
            len(r.matched_entries) for r in got
        )

    single_pps = len(zipf_trace) / single_elapsed
    shm_pps = len(zipf_trace) / shm_elapsed
    speedup = single_elapsed / max(shm_elapsed, 1e-9)
    _record_rates(
        bench_record,
        "single_small_batch",
        len(zipf_trace),
        single_elapsed,
        zipf_trace_bytes,
    )
    _record_rates(
        bench_record,
        "sharded_shm_small_batch",
        len(zipf_trace),
        shm_elapsed,
        zipf_trace_bytes,
    )
    _record_speedup(bench_record, "shm_lockstep_vs_single_small_batch", speedup)
    print(
        f"\nsingle {single_pps:,.0f} pkts/s, lockstep shm {shm_pps:,.0f} "
        f"pkts/s ({speedup:.2f}x) at batch=64 on {os.cpu_count()} cpu(s)"
    )


def test_sharded_shm_pipelined_small_batches(
    routing_bbra, zipf_trace, zipf_trace_bytes, smoke, bench_record
):
    """The ``sharded-shm-pipelined`` mode: the double-buffered
    dispatch/collect loop (``process_batches``, depth 4) against the
    lockstep shm round-trip at batch=64.  Results must be
    bitwise-identical to the single-process runner, with byte-exact
    parent-side flow stats.  Wall clock is the best of five
    *interleaved* rounds per mode (serial, pipelined, serial, ... — the
    per-round work is small enough for scheduler noise to matter, and
    interleaving cancels background-load drift): on multi-core hosts
    the pipelined loop must strictly win — the parent encodes batch N+1
    while workers classify batch N; on a single core no overlap is
    physically available, so the >= 1.0x assertion is a no-regression
    guard on the ring bookkeeping."""
    small_batches = _batches(zipf_trace, size=64)
    single = BatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
        cache_capacity=None,
    )
    expected = [r for batch in small_batches for r in single.process_batch(batch)]
    rounds = 1 if smoke else 5

    def replay(sharded) -> float:
        start = time.perf_counter()
        if sharded.depth == 1:
            got = [
                r
                for batch in small_batches
                for r in sharded.process_batch(batch)
            ]
        else:
            got = [
                r
                for chunk in sharded.process_batches(small_batches)
                for r in chunk
            ]
        took = time.perf_counter() - start
        _assert_equivalent(got, expected[: len(got)])
        return took

    def runner(depth):
        sharded = ShardedBatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
            workers=4,
            cache_capacity=None,
            depth=depth,
        )
        sharded.process_batch(small_batches[0])  # warm the workers up
        return sharded

    elapsed = {}
    flow_totals = {}
    # The two modes' rounds are interleaved (serial, pipelined, serial,
    # ...), so slow background-load drift hits both equally and the
    # min-of-rounds ratio measures the transports, not the scheduler.
    with runner(1) as serial, runner(4) as pipelined:
        warmed = {
            "serial": (serial.flow_packets, serial.flow_bytes),
            "pipelined": (pipelined.flow_packets, pipelined.flow_bytes),
        }
        best = {"serial": float("inf"), "pipelined": float("inf")}
        for _ in range(rounds):
            best["serial"] = min(best["serial"], replay(serial))
            best["pipelined"] = min(best["pipelined"], replay(pipelined))
        elapsed = best
        for mode, sharded in (("serial", serial), ("pipelined", pipelined)):
            flow_totals[mode] = (
                (sharded.flow_packets - warmed[mode][0]) / rounds,
                (sharded.flow_bytes - warmed[mode][1]) / rounds,
            )
        supervision = pipelined.supervision_snapshot()

    # Byte-exact stats merge on both modes, every round.
    per_round_packets = sum(len(r.matched_entries) for r in expected)
    per_round_bytes = sum(
        len(r.matched_entries) * r.final_fields.get(FRAME_LEN_FIELD, 0)
        for r in expected
    )
    for mode, (packets, byte_count) in flow_totals.items():
        assert packets == per_round_packets, mode
        assert byte_count == per_round_bytes, mode

    serial_pps = len(zipf_trace) / elapsed["serial"]
    pipelined_pps = len(zipf_trace) / elapsed["pipelined"]
    speedup = elapsed["serial"] / max(elapsed["pipelined"], 1e-9)
    _record_rates(
        bench_record,
        "sharded_shm_pipelined_small_batch",
        len(zipf_trace),
        elapsed["pipelined"],
        zipf_trace_bytes,
    )
    _record_rates(
        bench_record,
        "sharded_shm_serial_small_batch",
        len(zipf_trace),
        elapsed["serial"],
        zipf_trace_bytes,
    )
    _record_speedup(
        bench_record, "pipelined_vs_serial_shm_small_batch", speedup
    )
    # Healthy-path supervision must be pure bookkeeping: any nonzero
    # recovery counter here means the fault-tolerance layer interfered
    # with a run where nothing failed.  Recorded under "counters" (not
    # "speedups"), so the perf-regression bands are untouched.
    assert all(count == 0 for count in supervision.values()), supervision
    for key in ("restarts", "replayed_batches", "inline_packets"):
        bench_record["counters"][f"sharded_pipelined_{key}"] = supervision[key]
    print(
        f"\nserial shm {serial_pps:,.0f} pkts/s, pipelined shm "
        f"{pipelined_pps:,.0f} pkts/s ({speedup:.2f}x) at batch=64, "
        f"depth=4 on {os.cpu_count()} cpu(s)"
    )
    if not smoke:
        if (os.cpu_count() or 1) >= 2:
            assert pipelined_pps > serial_pps, (
                f"pipelined shm {pipelined_pps:,.0f} pkts/s did not beat "
                f"lockstep {serial_pps:,.0f} pkts/s on a multi-core host"
            )
        else:
            # The acceptance floor: pipelining must never cost wall
            # clock, even where no overlap is physically available
            # (interleaved min-of-5 rounds keeps scheduler noise out of
            # the ratio).
            assert speedup >= 1.0, (
                f"pipelined shm regressed to {speedup:.2f}x of lockstep "
                "on a single core (ring bookkeeping overhead)"
            )


def test_throughput_timeout_churn_lifecycle(
    routing_bbra, trace_len, smoke, bench_record
):
    """The ``timeout-churn`` mode: the two-tier pipeline replaying the
    mice/elephant timeout scenario — expiry sweeps interleaved with the
    traffic — against the same traffic with the clock frozen
    (``advance=None``: no sweeps, nothing expires).  The workload is
    rebuilt per replay because install events carry the mutable twin
    entries; replaying one workload object twice would leak the first
    run's flow counters into the second.  Beyond the end-to-end ratio,
    the vectorized sweep itself is priced in entry lanes per second via
    dt=0 advances (sweeps that move no time, so nothing expires and no
    table versions bump)."""

    def build(advance):
        return timeout_churn_workload(
            routing_bbra,
            packet_count=trace_len,
            flow_count=FLOW_COUNT,
            advance=advance,
        )

    def replay(workload):
        runner = BatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
            cache_capacity=4096,
            megaflow_capacity=8192,
        )
        start = time.perf_counter()
        stats = run_workload(runner, workload, batch_size=BATCH_SIZE)
        return stats, time.perf_counter() - start, runner

    frozen = build(None)
    frozen_stats, frozen_elapsed, _ = replay(frozen)
    swept = build(2)
    swept_stats, swept_elapsed, runner = replay(swept)

    assert frozen_stats.advances == frozen_stats.expired == 0
    assert swept_stats.packets == frozen_stats.packets > 0
    assert swept_stats.expired > 0, "timeout churn must expire entries"
    reasons = {removed.reason for removed in swept_stats.flow_removed}
    assert reasons == {"idle", "hard"}, reasons
    assert swept.byte_count == frozen.byte_count

    packets = swept_stats.packets
    _record_rates(
        bench_record,
        "pipeline_timeout_churn",
        packets,
        swept_elapsed,
        swept.byte_count,
    )
    speedup = frozen_elapsed / max(swept_elapsed, 1e-9)
    _record_speedup(bench_record, "timeout_churn_swept_vs_frozen", speedup)
    bench_record["counters"]["timeout_churn_expired"] = swept_stats.expired

    # Sweep cost in isolation: dt=0 advances over the live table.
    lanes_before = runner.lifecycle.stats.entries_scanned
    reps = 10 if smoke else 200
    start = time.perf_counter()
    for _ in range(reps):
        runner.advance_clock(0)
    sweep_elapsed = time.perf_counter() - start
    lanes = runner.lifecycle.stats.entries_scanned - lanes_before
    lanes_per_sec = round(lanes / max(sweep_elapsed, 1e-9))
    bench_record["counters"]["timeout_churn_sweep_lanes_per_sec"] = (
        lanes_per_sec
    )
    print(
        f"\nfrozen clock {packets / frozen_elapsed:,.0f} pkts/s, swept "
        f"{packets / swept_elapsed:,.0f} pkts/s ({speedup:.2f}x, "
        f"{swept_stats.expired} expired over {swept_stats.advances} "
        f"sweeps); steady-state sweep {lanes_per_sec:,.0f} lanes/s"
    )
    if not smoke:
        assert speedup >= 0.5, (
            f"lifecycle sweeps cut timeout-churn throughput to "
            f"{speedup:.2f}x of the frozen-clock replay"
        )


def test_shared_state_large_rules(
    trace_generator, smoke, bench_scale, bench_record
):
    """The ``shared-state`` mode: two sharded workers over a 10^5-rule
    routing table, shared sealed snapshot vs eager per-worker replicas.

    Three numbers land in the record (``counters`` section, so the
    perf-regression bands are untouched):

    - worker spin-up wall clock for each mode — the first batch, which
      triggers the lazy fleet spawn.  Eager workers rebuild the whole
      table from the spec (O(rules)); shared workers attach numpy views
      onto the sealed block (O(1) in rules), which is what makes the
      PR-7 supervisor's respawn path viable at this scale;
    - mean per-worker RSS *delta* against the parent, sampled at the
      same instant after classifying the trace — the paper's
      per-datapath memory cost, measured.  Under ``fork`` a worker's
      resident set starts as a copy of the parent's page tables, so the
      delta isolates what the worker itself allocated: a full private
      replica (eager, O(rules)) vs freshly-touched pages of the shared
      mapping (shared, O(working set));
    - shared-mode pkts/sec (``shared_state_sharded``), so throughput on
      a table 250x the calibrated sets is tracked across PRs.

    Results and parent-side flow stats must be bitwise-identical across
    the two modes — always, including smoke."""
    rules = 5_000 if smoke else 100_000
    rule_set = large_rule_set(rules)
    matches = [r.to_match() for r in rule_set.rules if r.fields][:FLOW_COUNT]
    flows = trace_generator.flow_pool(
        matches, fill_fields=rule_set.field_names
    )
    for flow, frame_len in zip(
        flows, trace_generator.frame_lengths(len(flows), "imix")
    ):
        flow[FRAME_LEN_FIELD] = frame_len
    packets = max(512, int(8192 * bench_scale))
    trace = trace_generator.sample_trace(
        flows, packets, zipf_weights(len(flows))
    )
    trace_bytes = sum(fields[FRAME_LEN_FIELD] for fields in trace)
    batches = _batches(trace, size=2048)

    spinup: dict[str, float] = {}
    rss: dict[str, int] = {}
    results: dict[str, list] = {}
    flow_totals: dict[str, tuple[int, int]] = {}
    for mode, shared in (("eager", False), ("shared", True)):
        arch = MultiTableLookupArchitecture([build_lookup_table(rule_set)])
        with ShardedBatchPipeline(
            arch, workers=2, cache_capacity=None, shared_rules=shared
        ) as sharded:
            # First batch triggers the lazy fleet spawn: eager workers
            # rebuild the table from the spec, shared workers attach.
            start = time.perf_counter()
            collected = list(sharded.process_batch(batches[0]))
            spinup[mode] = time.perf_counter() - start
            start = time.perf_counter()
            for batch in batches[1:]:
                collected.extend(sharded.process_batch(batch))
            classify_elapsed = time.perf_counter() - start
            worker_rss = _mean_worker_rss_kib(
                proc.pid for proc in sharded._procs
            )
            parent_rss = _mean_worker_rss_kib([os.getpid()])
            rss[mode] = worker_rss - parent_rss if worker_rss else 0
            results[mode] = collected
            flow_totals[mode] = (sharded.flow_packets, sharded.flow_bytes)
        if shared:
            _record_rates(
                bench_record,
                "shared_state_sharded",
                len(trace) - len(batches[0]),
                classify_elapsed,
                trace_bytes - sum(
                    fields[FRAME_LEN_FIELD] for fields in batches[0]
                ),
            )

    _assert_equivalent(results["shared"], results["eager"])
    assert flow_totals["shared"] == flow_totals["eager"]

    bench_record["counters"]["shared_state_rules"] = rules
    for mode in ("eager", "shared"):
        bench_record["counters"][f"shared_state_spinup_{mode}_s"] = round(
            spinup[mode], 4
        )
        if rss[mode]:
            bench_record["counters"][
                f"shared_state_worker_rss_delta_{mode}_kib"
            ] = rss[mode]
    print(
        f"\nspin-up eager {spinup['eager']:.3f}s vs shared "
        f"{spinup['shared']:.3f}s at {rules:,} rules; mean worker RSS "
        f"delta eager {rss['eager']:,} KiB vs shared {rss['shared']:,} KiB"
    )
    if not smoke:
        assert spinup["shared"] < spinup["eager"], (
            f"shared spin-up {spinup['shared']:.3f}s did not beat eager "
            f"{spinup['eager']:.3f}s at {rules:,} rules"
        )
        if rss["eager"] and rss["shared"]:
            assert rss["shared"] < rss["eager"], (
                f"shared worker RSS delta {rss['shared']:,} KiB did not "
                f"beat eager {rss['eager']:,} KiB at {rules:,} rules"
            )


#: The streaming SLO schedule is FIXED-SIZE — deliberately *not* scaled
#: by ``bench_scale``.  Its latencies are measured in virtual ticks, so
#: the run costs little wall clock even in full mode, and keeping the
#: schedule identical across smoke and full runs is what lets
#: ``check_regression`` band the p99 across records (it refuses to diff
#: records whose ``arrival_count`` differs).  Shed counts and
#: percentiles depend only on arrival timing, never on rule content, so
#: the smoke-sized rule set does not perturb them.
SLO_ARRIVALS = 2000
SLO_SEED = 11
SLO_CONFIG = StreamConfig(
    capacity=64,
    batch_size=16,
    form_deadline=8,
    window=2,
    service_rate=0.5,
    degrade_after=2,
)


def test_streaming_overload_slo(routing_bbra, trace_len, smoke, bench_record):
    """The ``streaming`` mode: an open-loop bursty overload stream
    through bounded admission, recording tail-latency percentiles (in
    virtual ticks) and the shed ledger.  The same seed is run twice and
    both shed counts land in the record — the regression gate's
    absolute determinism check (same seed => identical shed count)
    rides on that pair.  A second, ``bench_scale``-sized underloaded
    stream prices the streaming layer itself in wall-clock pkts/sec."""
    schedule = bursty_arrivals(
        routing_bbra,
        packet_count=SLO_ARRIVALS,
        mean_burst=24.0,
        burst_gap=16.0,
        seed=SLO_SEED,
    )

    def one_run():
        runner = BatchPipeline(
            MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
            cache_capacity=4096,
            megaflow_capacity=8192,
        )
        return run_stream(runner, schedule, SLO_CONFIG)

    report = one_run()
    rerun = one_run()
    report.assert_conserved()
    assert report.shed_packets > 0, "the SLO schedule must overload"
    assert report.peak_occupancy <= SLO_CONFIG.capacity
    assert rerun.shed == report.shed, "same-seed rerun shed a different set"
    assert rerun.latencies == report.latencies

    bench_record["streaming"] = {
        "schedule": schedule.name,
        "arrival_count": report.admitted_packets,
        "offered_load": round(schedule.offered_load, 4),
        "service_rate": SLO_CONFIG.service_rate,
        "capacity": SLO_CONFIG.capacity,
        "shed_packets": report.shed_packets,
        "shed_packets_rerun": rerun.shed_packets,
        "shed_rate": round(report.shed_rate, 4),
        "shed_by_reason": report.shed_by_reason,
        "p50_ticks": report.p50,
        "p99_ticks": report.p99,
        "p999_ticks": report.p999,
        "max_level": report.max_level,
        "peak_occupancy": report.peak_occupancy,
        "stalls": report.stalls,
    }

    # Wall-clock cost of the streaming layer: an underloaded open-loop
    # poisson stream (nothing shed, no degradation) sized by
    # bench_scale like every other wall-clock mode.
    open_loop = poisson_arrivals(
        routing_bbra, packet_count=trace_len, mean_gap=1.0, seed=7
    )
    runner = BatchPipeline(
        MultiTableLookupArchitecture([build_lookup_table(routing_bbra)]),
        cache_capacity=4096,
        megaflow_capacity=8192,
    )
    start = time.perf_counter()
    open_report = run_stream(
        runner,
        open_loop,
        StreamConfig(capacity=4096, batch_size=BATCH_SIZE, window=4),
    )
    elapsed = time.perf_counter() - start
    open_report.assert_conserved()
    assert open_report.shed_packets == 0, (
        "capacity exceeds offered load, nothing may be shed"
    )
    _record_rates(
        bench_record,
        "streaming_open_loop",
        trace_len,
        elapsed,
        open_loop.byte_count,
    )
    print(
        f"\nstreaming SLO: p50/p99/p999 = {report.p50}/{report.p99}/"
        f"{report.p999} ticks, shed {report.shed_packets}/"
        f"{report.admitted_packets} ({report.shed_rate:.1%}), ladder "
        f"level {report.max_level}; open-loop underload "
        f"{trace_len / elapsed:,.0f} pkts/s"
    )
