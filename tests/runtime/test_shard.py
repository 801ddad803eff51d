"""ShardedBatchPipeline: replica snapshots, bitwise-identical results
across the scenario catalog, and the mutation-log catch-up protocol."""

import pickle
from pathlib import Path

import pytest

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table, build_per_field_pipeline
from repro.openflow.actions import OutputAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import WriteActions
from repro.openflow.match import Match
from repro.runtime import (
    SCENARIOS,
    BatchPipeline,
    PipelineSpec,
    ShardedBatchPipeline,
    run_workload,
)

from tests.runtime.test_megaflow import assert_same_result


def make_arch(rule_set):
    return MultiTableLookupArchitecture([build_lookup_table(rule_set)])


#: Ring depths the differential tests run at: lockstep (one batch in
#: flight) and the default double-buffered ring.
DEPTHS = [pytest.param(1, id="shm-lockstep"), pytest.param(2, id="shm")]


class TestPipelineSpec:
    def test_snapshot_pickles_and_rebuilds(self, small_routing_set):
        arch = make_arch(small_routing_set)
        spec = pickle.loads(pickle.dumps(PipelineSpec.snapshot(arch)))
        replica = spec.build()
        assert isinstance(replica, MultiTableLookupArchitecture)
        assert [len(t) for t in replica.tables] == [
            len(t) for t in arch.tables
        ]
        probe = {"in_port": 1, "ipv4_dst": 0x0A000001}
        assert_same_result(replica.process(probe), arch.process(probe))

    def test_split_pipeline_snapshot(self, small_routing_set):
        arch = MultiTableLookupArchitecture(
            build_per_field_pipeline(small_routing_set)
        )
        replica = PipelineSpec.snapshot(arch).build()
        probe = {"in_port": 2, "ipv4_dst": 0x0B000001}
        assert_same_result(replica.process(probe), arch.process(probe))


class TestDifferential:
    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_sharded_matches_single_process(
        self, small_routing_set, name, depth
    ):
        """Acceptance: 4 workers, bitwise-identical results on every
        scenario in the catalog (churn included: the mutation log must
        keep replicas sequentially consistent), lockstep and
        pipelined."""
        workload = SCENARIOS[name](
            small_routing_set, packet_count=200, flow_count=12
        )
        single = BatchPipeline(
            make_arch(small_routing_set),
            cache_capacity=128,
            megaflow_capacity=256,
        )
        expected = run_workload(
            single, workload, batch_size=50, keep_results=True
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=4,
            cache_capacity=128,
            megaflow_capacity=256,
            depth=depth,
        ) as sharded:
            got = run_workload(
                sharded, workload, batch_size=50, keep_results=True
            )
            stats = sharded.stats_snapshot()
        assert got.packets == expected.packets == 200
        for a, b in zip(got.results, expected.results):
            assert_same_result(a, b)
        assert stats.packets == 200
        assert stats.cache_hits + stats.cache_misses > 0
        # run_workload must surface the workers' cache counters, not the
        # parent's (empty) cache dict.
        assert got.cache_hits + got.cache_misses > 0
        assert got.megaflow_hits + got.megaflow_misses > 0
        # The stats-return protocol: worker flow hits are merged into
        # the parent's counters, matching the single-process totals.
        assert got.flow_packets == expected.flow_packets > 0

    def test_megaflow_key_sharding_learns_fields(self, small_routing_set):
        """Workers report their megaflow mask fields; the parent's shard
        key converges onto the consulted union."""
        workload = SCENARIOS["uniform"](
            small_routing_set, packet_count=120, flow_count=8
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            megaflow_capacity=256,
        ) as sharded:
            run_workload(sharded, workload, batch_size=40)
            assert sharded._learned_fields <= set(
                small_routing_set.field_names
            )
            assert sharded._learned_fields, "mask fields must be learned"


class TestMutationCatchUp:
    def entry(self, port: int, priority: int) -> FlowEntry:
        return FlowEntry.build(
            match=Match.exact(in_port=port),
            priority=priority,
            instructions=[WriteActions([OutputAction(100 + port)])],
        )

    def test_install_reaches_all_workers(self, small_routing_set):
        arch = make_arch(small_routing_set)
        with ShardedBatchPipeline(arch, workers=3) as sharded:
            probe = [{"in_port": 5, "ipv4_dst": i} for i in range(12)]
            before = sharded.process_batch(probe)
            # High-priority shadow rule installed through the facade.
            sharded.pipeline.table(0).add(self.entry(5, priority=999))
            after = sharded.process_batch(probe)
        assert any(r.output_ports != [105] for r in before)
        assert all(r.output_ports == [105] for r in after)

    def test_remove_where_through_facade(self, small_routing_set):
        arch = make_arch(small_routing_set)
        with ShardedBatchPipeline(arch, workers=2) as sharded:
            sharded.pipeline.table(0).add(self.entry(6, priority=999))
            removed = sharded.pipeline.table(0).remove_where(
                lambda e: e.priority == 999
            )
            assert removed == 1
            results = sharded.process_batch(
                [{"in_port": 6, "ipv4_dst": 1}]
            )
        assert results[0].output_ports != [106]

    def test_empty_batch_and_close_idempotent(self, small_routing_set):
        sharded = ShardedBatchPipeline(make_arch(small_routing_set), workers=2)
        assert sharded.process_batch([]) == []
        sharded.close()
        sharded.close()

    def test_reuse_after_close_replays_full_log(self, small_routing_set):
        """Respawned replicas rebuild from the construction-time
        snapshot, so the cursors must rewind and the whole mutation log
        must replay — otherwise pre-close flow-mods vanish."""
        sharded = ShardedBatchPipeline(make_arch(small_routing_set), workers=2)
        try:
            probe = [{"in_port": 5, "ipv4_dst": 3}]
            sharded.process_batch(probe)
            sharded.pipeline.table(0).add(self.entry(5, priority=999))
            assert sharded.process_batch(probe)[0].output_ports == [105]
            sharded.close()
            assert sharded.process_batch(probe)[0].output_ports == [105]
        finally:
            sharded.close()

    def test_worker_count_validated(self, small_routing_set):
        with pytest.raises(ValueError):
            ShardedBatchPipeline(make_arch(small_routing_set), workers=0)

    def test_mutation_log_pruned_after_catch_up(self, small_routing_set):
        """Long churn must not grow the log without bound: once every
        worker has replayed it, the snapshot absorbs it."""
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2
        ) as sharded:
            probe = [
                {"in_port": p, "ipv4_dst": d}
                for p in range(4)
                for d in (1, 2, 3)
            ]
            entry = self.entry(7, priority=999)
            for _ in range(550):
                sharded.pipeline.table(0).add(entry)
                sharded.pipeline.table(0).remove(entry.match, entry.priority)
            assert len(sharded._log) == 1100
            sharded.process_batch(probe)  # both workers catch up
            sharded.process_batch(probe)  # prune runs after catch-up
            assert len(sharded._log) == 0
            # Respawn-from-snapshot still classifies correctly.
            sharded.close()
            results = sharded.process_batch(probe)
            assert len(results) == len(probe)


class _MutatingConn:
    """Pipe proxy firing a callback before its first send — the
    deterministic stand-in for a controller thread whose flow-mod lands
    while the parent is dispatching sub-batches."""

    def __init__(self, conn, fire):
        self._conn = conn
        self._fire = fire

    def send(self, message):
        self._fire()
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestMidBatchMutation:
    """A mutation landing mid-batch must never serve a stale (or mixed)
    PipelineResult: the batch in flight classifies entirely at the
    pre-mutation state, the next batch entirely at the post-mutation
    state — with every worker cache revalidated.

    Guards two mechanisms in ``process_batch``: the single
    mutation-log-length snapshot (without it, workers dispatched after
    the flow-mod would replay it for the *same* batch and the batch
    would mix two table states) and the pinned entry order (without it,
    worker entry refs would resolve against the re-sorted post-mutation
    tables, corrupting matched-entry identity and stats attribution).
    """

    def shadow(self, port: int) -> FlowEntry:
        return FlowEntry.build(
            match=Match.exact(in_port=port),
            priority=999,
            instructions=[WriteActions([OutputAction(100 + port)])],
        )

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_mid_batch_mutation_defers_uniformly(
        self, small_routing_set, depth
    ):
        probe = [
            {"in_port": 5, "ipv4_dst": destination}
            for destination in range(24)
        ]
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            cache_capacity=64,
            megaflow_capacity=128,
            depth=depth,
        ) as sharded:
            # The probe must actually straddle both workers for the
            # mixed-state hazard to exist.
            assert len({sharded.shard_of(fields) for fields in probe}) == 2
            before = sharded.process_batch(probe)
            sharded.process_batch(probe)  # warm worker caches

            shadow = self.shadow(5)
            fired = []

            def fire():
                if not fired:
                    fired.append(True)
                    sharded.pipeline.table(0).add(shadow)

            sharded._conns = [
                _MutatingConn(conn, fire) for conn in sharded._conns
            ]
            in_flight = sharded.process_batch(probe)
            assert fired, "mutation must land during dispatch"
            # Entirely pre-mutation: no packet of the in-flight batch
            # may observe the shadow rule, on either worker.
            for got, expected in zip(in_flight, before):
                assert_same_result(got, expected)
            assert shadow.stats.packet_count == 0

            after = sharded.process_batch(probe)
            # Entirely post-mutation: megaflow aggregates and microflow
            # records for every probe key were captured pre-mutation on
            # the workers, so any stale replay shows up here.
            assert all(result.output_ports == [105] for result in after)
            assert all(
                (entry.match, entry.priority)
                == (shadow.match, shadow.priority)
                for result in after
                for entry in result.matched_entries[:1]
            )
            # Stats attribution survived the in-flight mutation: the
            # parent's shadow entry counts exactly the post-mutation
            # batch, via refs pinned to the pre-mutation order.
            assert shadow.stats.packet_count == len(probe)

    def test_concurrent_mutator_thread_stress(self, small_routing_set):
        """A real controller thread churning through the facade while
        batches flow: every mutation must be atomic against the batch
        prologue's (log length, entry order) snapshot — misalignment
        shows up as ref resolution errors or mis-attributed flow stats
        (total per-entry counts must still equal total matches)."""
        import threading

        probe = [
            {"in_port": port, "ipv4_dst": destination}
            for port in range(4)
            for destination in (1, 2, 3)
        ]
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            shadow = self.shadow(7)
            stop = threading.Event()

            def churn():
                while not stop.is_set():
                    sharded.pipeline.table(0).add(shadow)
                    sharded.pipeline.table(0).remove(
                        shadow.match, shadow.priority
                    )

            mutator = threading.Thread(target=churn, daemon=True)
            mutator.start()
            try:
                total_matched = 0
                for _ in range(20):
                    results = sharded.process_batch(probe)
                    total_matched += sum(
                        len(r.matched_entries) for r in results
                    )
            finally:
                stop.set()
                mutator.join(timeout=10)
            assert not mutator.is_alive()
            # Conservation: every match was credited to some parent
            # entry, exactly once.
            counted = shadow.stats.packet_count + sum(
                entry.stats.packet_count
                for table in sharded._authoritative.tables
                for entry in table
            )
            assert counted == total_matched == sharded.flow_packets


class TestPipelined:
    """The double-buffered dispatch/collect loop: up to ``depth`` batches
    in flight, each classified at its own submission-time log snapshot —
    results must stay bitwise-identical to lockstep, in FIFO order, with
    mutations between submissions landing between batches."""

    def batches(self, rule_set, count=12, size=16):
        workload = SCENARIOS["zipf"](
            rule_set, packet_count=count * size, flow_count=10
        )
        (event,) = workload.events
        trace = event[1]
        return [trace[i : i + size] for i in range(0, len(trace), size)]

    @pytest.mark.parametrize("depth", [2, 4], ids=["2-shm", "4-shm"])
    def test_stream_matches_lockstep(self, small_routing_set, depth):
        batches = self.batches(small_routing_set)
        single = BatchPipeline(
            make_arch(small_routing_set), cache_capacity=64
        )
        expected = [single.process_batch(batch) for batch in batches]
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=2,
            cache_capacity=64,
            depth=depth,
        ) as sharded:
            assert sharded.depth == depth
            got = list(sharded.process_batches(batches))
            assert sharded.in_flight == 0
            flow_packets = sharded.flow_packets
            flow_bytes = sharded.flow_bytes
        assert len(got) == len(expected)
        for got_chunk, expected_chunk in zip(got, expected):
            assert len(got_chunk) == len(expected_chunk)
            for a, b in zip(got_chunk, expected_chunk):
                assert_same_result(a, b)
        # Byte-exact stats merge across the pipelined stream.
        assert flow_packets == single.flow_packets > 0
        assert flow_bytes == single.flow_bytes > 0

    def test_submit_collect_fifo(self, small_routing_set):
        batches = self.batches(small_routing_set, count=4)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in batches]
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2, cache_capacity=64
        ) as sharded:
            sharded.submit_batch(batches[0])
            sharded.submit_batch(batches[1])
            assert sharded.in_flight == 2
            with pytest.raises(RuntimeError):
                sharded.submit_batch(batches[2])
            for expected_chunk in expected[:2]:
                for a, b in zip(sharded.collect_batch(), expected_chunk):
                    assert_same_result(a, b)
            with pytest.raises(RuntimeError):
                sharded.collect_batch()
            # process_batch drains nothing outstanding and stays usable.
            for a, b in zip(sharded.process_batch(batches[2]), expected[2]):
                assert_same_result(a, b)

    def test_empty_submit_rejected(self, small_routing_set):
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded, pytest.raises(ValueError, match="empty batch"):
            sharded.submit_batch([])

    def test_process_batch_refuses_to_drop_in_flight_results(
        self, small_routing_set
    ):
        """Mixing the APIs must never silently lose classified packets:
        process_batch with submit_batch results outstanding raises
        instead of draining them into the void."""
        batches = self.batches(small_routing_set, count=2)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            sharded.submit_batch(batches[0])
            with pytest.raises(RuntimeError, match="in flight"):
                sharded.process_batch(batches[1])
            with pytest.raises(RuntimeError, match="in flight"):
                sharded.process_batches([batches[1]])
            sharded.collect_batch()
            assert len(sharded.process_batch(batches[1])) == len(batches[1])

    def test_concurrent_streams_rejected(self, small_routing_set):
        """Two live process_batches() generators would interleave on the
        shared FIFO and swap results between streams; the second must
        raise, and a finished stream frees the slot."""
        batches = self.batches(small_routing_set, count=4)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            stream = sharded.process_batches(batches[:2])
            with pytest.raises(RuntimeError, match="stream is live"):
                sharded.process_batches(batches[2:])
            with pytest.raises(RuntimeError, match="stream is live"):
                sharded.process_batch(batches[2])
            with pytest.raises(RuntimeError, match="stream is live"):
                sharded.submit_batch(batches[2])
            assert len(list(stream)) == 2  # exhausting frees the slot
            assert len(list(sharded.process_batches(batches[2:]))) == 2

    def test_large_mutation_backlog_is_not_pipelined(self, small_routing_set):
        """An unbounded mutation suffix inside the 'small' control
        message could fill the pipe while a worker's reply blocks the
        other direction; past the backlog bound the stream must drain
        before submitting and submit_batch must refuse."""
        limit = ShardedBatchPipeline.MAX_PIPELINED_MUTATION_BACKLOG
        batches = self.batches(small_routing_set, count=3)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            sharded.submit_batch(batches[0])
            entry = FlowEntry.build(
                match=Match.exact(in_port=6),
                priority=999,
                instructions=[WriteActions([OutputAction(106)])],
            )
            for _ in range(limit + 1):
                sharded.pipeline.table(0).add(entry)
                sharded.pipeline.table(0).remove(entry.match, entry.priority)
            with pytest.raises(RuntimeError, match="backlog"):
                sharded.submit_batch(batches[1])
            sharded.collect_batch()
            sharded.submit_batch(batches[1])  # empty in-flight: fine
            sharded.collect_batch()
            # The stream path handles the same burst by draining, and
            # stays bitwise-identical.
            for _ in range(limit + 1):
                sharded.pipeline.table(0).add(entry)
                sharded.pipeline.table(0).remove(entry.match, entry.priority)
            got = list(sharded.process_batches(batches))
        expected = [single.process_batch(batch) for batch in batches]
        for got_chunk, expected_chunk in zip(got, expected):
            for a, b in zip(got_chunk, expected_chunk):
                assert_same_result(a, b)

    def test_mutation_between_submissions_lands_between_batches(
        self, small_routing_set
    ):
        """A flow-mod applied after submit(N) but before submit(N+1) must
        be invisible to batch N and authoritative for batch N+1 — the
        per-in-flight log-length snapshot, not a per-drain one."""
        probe = [{"in_port": 5, "ipv4_dst": d} for d in range(16)]
        shadow = FlowEntry.build(
            match=Match.exact(in_port=5),
            priority=999,
            instructions=[WriteActions([OutputAction(105)])],
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            before = sharded.process_batch(probe)
            sharded.submit_batch(probe)
            sharded.pipeline.table(0).add(shadow)
            sharded.submit_batch(probe)
            old_state = sharded.collect_batch()
            new_state = sharded.collect_batch()
        for a, b in zip(old_state, before):
            assert_same_result(a, b)
        assert shadow.stats.packet_count == len(probe)
        assert all(r.output_ports == [105] for r in new_state)

    def test_empty_batches_in_stream(self, small_routing_set):
        batches = self.batches(small_routing_set, count=3)
        stream = [batches[0], [], batches[1], [], [], batches[2]]
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in stream]
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=3
        ) as sharded:
            got = list(sharded.process_batches(stream))
        assert [len(chunk) for chunk in got] == [
            len(chunk) for chunk in expected
        ]
        for got_chunk, expected_chunk in zip(got, expected):
            for a, b in zip(got_chunk, expected_chunk):
                assert_same_result(a, b)

    def test_depth_validated(self, small_routing_set):
        with pytest.raises(ValueError):
            ShardedBatchPipeline(
                make_arch(small_routing_set), workers=1, depth=0
            )

    def test_close_drains_in_flight(self, small_routing_set):
        batches = self.batches(small_routing_set, count=2)
        sharded = ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        )
        sharded.submit_batch(batches[0])
        sharded.submit_batch(batches[1])
        sharded.close()  # must not deadlock or leave replies queued
        assert sharded.in_flight == 0


def _shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in shm.iterdir()}


@pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"
)
class TestSharedMemoryLifecycle:
    """Sharded runs must not strand segments in /dev/shm — neither on a
    clean close nor when the runner is abandoned mid-flight (the
    ``SharedBlock`` finalizer guard)."""

    def run_batches(self, runner, rule_set):
        workload = SCENARIOS["zipf"](rule_set, packet_count=96, flow_count=8)
        run_workload(runner, workload, batch_size=16)

    def test_close_leaves_no_segments(self, small_routing_set):
        before = _shm_segments()
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=3
        ) as sharded:
            self.run_batches(sharded, small_routing_set)
        leaked = _shm_segments() - before
        assert not leaked, f"segments left in /dev/shm: {sorted(leaked)}"

    def test_abandoned_runner_leaves_no_segments(self, small_routing_set):
        """Interrupted-run stand-in: drop the runner without close();
        the finalizers must unlink every parent-owned segment and the
        worker teardown (EOF on the pipe) the worker-owned ones."""
        import gc
        import time

        before = _shm_segments()
        sharded = ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=2
        )
        self.run_batches(sharded, small_routing_set)
        procs = list(sharded._procs)
        del sharded
        gc.collect()
        for proc in procs:
            proc.join(timeout=10)
        # Workers unlink their response rings on EOF; give the kernel a
        # beat to reap before asserting.
        deadline = time.monotonic() + 5
        while _shm_segments() - before and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = _shm_segments() - before
        assert not leaked, f"segments left in /dev/shm: {sorted(leaked)}"


class _RoutedSharded(ShardedBatchPipeline):
    """Deterministic routing for the out-of-order tests: packets go to
    the worker named by their ``in_port`` (mod workers)."""

    def shard_of(self, packet_fields):
        return packet_fields.get("in_port", 0) % self.workers


class TestOutOfOrderCollect:
    """collect_batch(seq=...) / collect_any(): a slow shard must only
    stall the batches actually assigned to it."""

    def routed_batches(self, rule_set, sizes=(6, 4)):
        """One batch per worker: batch i's packets all carry in_port=i,
        so _RoutedSharded pins batch 0 to worker 0 and batch 1 to
        worker 1."""
        workload = SCENARIOS["zipf"](
            rule_set, packet_count=max(sizes) * 4, flow_count=8
        )
        trace = workload.events[0][1]
        batches = []
        cursor = 0
        for worker, size in enumerate(sizes):
            chunk = [
                dict(fields, in_port=worker)
                for fields in trace[cursor : cursor + size]
            ]
            batches.append(chunk)
            cursor += size
        return batches

    def test_collect_by_seq_out_of_order(self, small_routing_set):
        batches = self.routed_batches(small_routing_set)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in batches]
        with _RoutedSharded(
            make_arch(small_routing_set), workers=2, depth=2, cache_capacity=64
        ) as sharded:
            seq0 = sharded.submit_batch(batches[0])
            seq1 = sharded.submit_batch(batches[1])
            assert (seq0, seq1) == (0, 1)
            # Batch 1 lives entirely on worker 1: collecting it touches
            # only worker 1's pipe, so batch 0's worker being busy (or
            # stalled forever) cannot block it.
            got1 = sharded.collect_batch(seq=seq1)
            assert sharded.in_flight == 1
            for a, b in zip(got1, expected[1]):
                assert_same_result(a, b)
            got0 = sharded.collect_batch(seq=seq0)
            assert sharded.in_flight == 0
            for a, b in zip(got0, expected[0]):
                assert_same_result(a, b)

    def test_collect_unknown_seq_rejected(self, small_routing_set):
        batches = self.routed_batches(small_routing_set)
        with _RoutedSharded(
            make_arch(small_routing_set), workers=2, depth=2
        ) as sharded:
            with pytest.raises(RuntimeError, match="no batch in flight"):
                sharded.collect_batch()
            sharded.submit_batch(batches[0])
            with pytest.raises(RuntimeError, match="not in flight"):
                sharded.collect_batch(seq=7)
            sharded.collect_batch()

    def test_collect_any_completes_fast_shard_first(self, small_routing_set):
        """The acceptance scenario: batch N+1 (tiny, fast worker)
        completes while batch N's worker is still grinding a batch three
        orders of magnitude larger."""
        workload = SCENARIOS["zipf"](
            rule_set=small_routing_set, packet_count=30_000, flow_count=8
        )
        heavy = [
            dict(fields, in_port=0) for fields in workload.events[0][1]
        ]
        light = [dict(fields, in_port=1) for fields in workload.events[0][1][:4]]
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=None)
        expected_light = single.process_batch(light)
        expected_heavy = single.process_batch(heavy)
        with _RoutedSharded(
            make_arch(small_routing_set),
            workers=2,
            depth=2,
            cache_capacity=None,
        ) as sharded:
            # Warm both workers up so fork/attach cost is out of the race.
            sharded.process_batch(
                [dict(heavy[0], in_port=0), dict(heavy[0], in_port=1)]
            )
            heavy_seq = sharded.submit_batch(heavy)
            light_seq = sharded.submit_batch(light)
            seq, results = sharded.collect_any()
            assert seq == light_seq, (
                "collect_any returned the heavy batch first — the fast "
                "shard was blocked behind the slow one"
            )
            for a, b in zip(results, expected_light):
                assert_same_result(a, b)
            seq, results = sharded.collect_any()
            assert seq == heavy_seq
            for a, b in zip(results, expected_heavy):
                assert_same_result(a, b)
            with pytest.raises(RuntimeError, match="no batch in flight"):
                sharded.collect_any()

    def test_ring_slot_guard_after_out_of_order_collect(
        self, small_routing_set
    ):
        """Slot seq % depth is reused only after its previous occupant
        was collected: an out-of-order collect can leave the oldest
        batch holding the next submission's slot."""
        batches = self.routed_batches(small_routing_set, sizes=(4, 4, 4))
        with _RoutedSharded(
            make_arch(small_routing_set), workers=3, depth=2
        ) as sharded:
            seq0 = sharded.submit_batch(batches[0])
            seq1 = sharded.submit_batch(batches[1])
            sharded.collect_batch(seq=seq1)
            # seq 2 would reuse slot 0, still held by uncollected seq 0.
            with pytest.raises(RuntimeError, match="ring slot"):
                sharded.submit_batch(batches[2])
            sharded.collect_batch(seq=seq0)
            seq2 = sharded.submit_batch(batches[2])
            assert seq2 == 2
            sharded.collect_batch()

    def test_fifo_default_unchanged(self, small_routing_set):
        """collect_batch() with no seq keeps the strict FIFO contract."""
        batches = self.routed_batches(small_routing_set)
        single = BatchPipeline(make_arch(small_routing_set), cache_capacity=64)
        expected = [single.process_batch(batch) for batch in batches]
        with _RoutedSharded(
            make_arch(small_routing_set), workers=2, depth=2, cache_capacity=64
        ) as sharded:
            sharded.submit_batch(batches[0])
            sharded.submit_batch(batches[1])
            for expected_chunk in expected:
                for a, b in zip(sharded.collect_batch(), expected_chunk):
                    assert_same_result(a, b)


class TestColumnarSharded:
    """Decode-free workers: columnar submissions classify off the block
    columns and stay bitwise-identical to dict submissions."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_columnar_matches_single_process(self, small_routing_set, name):
        from repro.runtime.scenarios import columnar_workload

        workload = SCENARIOS[name](
            small_routing_set, packet_count=300, flow_count=12
        )
        single = BatchPipeline(
            make_arch(small_routing_set),
            cache_capacity=64,
            megaflow_capacity=128,
        )
        expected = run_workload(
            single, workload, batch_size=48, keep_results=True
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set),
            workers=4,
            depth=2,
            cache_capacity=64,
            megaflow_capacity=128,
        ) as sharded:
            got = run_workload(
                sharded,
                columnar_workload(workload),
                batch_size=48,
                keep_results=True,
            )
        assert len(got.results) == len(expected.results)
        for a, b in zip(got.results, expected.results):
            assert_same_result(a, b)
        assert got.flow_packets == expected.flow_packets
        assert got.flow_bytes == expected.flow_bytes

    def test_columnar_worker_message_flag(self, small_routing_set):
        """Columnar submissions are marked for the worker; dict ones are
        not (the worker chooses the decode path per message)."""
        from repro.packet.batch import PacketBatch

        sent = []
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=1, depth=1
        ) as sharded:
            trace = SCENARIOS["zipf"](
                small_routing_set, packet_count=8, flow_count=4
            ).events[0][1]
            sharded.process_batch(trace)  # spawn + dict round
            original = sharded._conns[0].send

            def spy(message):
                sent.append(message)
                original(message)

            sharded._conns[0].send = spy
            sharded.process_batch(trace)
            sharded.process_batch(PacketBatch.from_dicts(trace))
        shm_messages = [m for m in sent if m[0] == "shm"]
        assert [m.columnar for m in shm_messages] == [False, True]
