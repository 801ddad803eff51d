"""Flow-entry lifecycle suite: virtual clock, expiry semantics, ledger
conservation.

Complements the differential property harness (which asserts the
*paths agree*) with pinned, human-readable claims about what the
lifecycle actually does: POX ``flow_table.py`` expiry parity (strict
``>`` deadlines, hard from install, idle from last touch, zero =
permanent, hard-before-idle reason precedence), ``touch_packet``
refreshing the idle timer, the conservation law tying every credited
packet to either a live entry or a flow-removed event, and the
revalidation pin — after an entry expires, traffic that used to hit it
must reach the controller, never a stale microflow/megaflow cache
line.

CI parses the junit output and fails if this file was skipped, so the
lifecycle coverage cannot silently rot out of the pipeline.
"""

from __future__ import annotations

import pytest

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import OutputAction
from repro.openflow.flow import UNSTAMPED, FlowEntry
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime import (
    BatchPipeline,
    LifecycleSweeper,
    ShardedBatchPipeline,
    VirtualClock,
    Workload,
    columnar_workload,
    run_workload,
)

SCHEMA = ("in_port",)
FRAME = 100


def _entry(port: int, priority: int = 1, idle: int = 0, hard: int = 0):
    return FlowEntry.build(
        match=Match.exact(in_port=port),
        priority=priority,
        instructions=[ApplyActions([OutputAction(1)])],
        idle_timeout=idle,
        hard_timeout=hard,
    )


def _pkt(port: int) -> dict[str, int]:
    return {"in_port": port, FRAME_LEN_FIELD: FRAME}


def _pipeline() -> MultiTableLookupArchitecture:
    return MultiTableLookupArchitecture(
        [OpenFlowLookupTable(SCHEMA, table_id=0)]
    )


class TestVirtualClock:
    def test_advance_returns_prev_and_now(self):
        clock = VirtualClock()
        assert clock.advance(3) == (0, 3)
        assert clock.advance(2) == (3, 5)
        assert clock.now == 5

    def test_zero_advance_allowed(self):
        clock = VirtualClock(now=7)
        assert clock.advance(0) == (7, 7)

    def test_rewind_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestPoxExpirySemantics:
    """Scalar parity with POX ``TableEntry.is_expired``."""

    def test_deadlines_are_strict(self):
        entry = _entry(0, idle=2, hard=5)
        entry.stats.installed_at = 0
        entry.stats.last_touched = 0
        assert not entry.is_expired(2)  # idle deadline itself: alive
        assert entry.is_expired(3)

    def test_hard_measured_from_install_despite_touches(self):
        entry = _entry(0, hard=3)
        entry.stats.installed_at = 0
        entry.touch_packet(byte_count=FRAME, now=3)  # touch can't help
        assert not entry.is_expired(3)
        assert entry.is_expired(4)

    def test_touch_packet_resets_idle_timer(self):
        entry = _entry(0, idle=2)
        entry.stats.installed_at = 0
        entry.stats.last_touched = 0
        assert entry.is_expired(3)
        entry.touch_packet(byte_count=FRAME, now=3)
        assert entry.stats.packet_count == 1
        assert entry.stats.byte_count == FRAME
        assert entry.last_touched == 3
        assert not entry.is_expired(5)  # deadline moved to 3 + 2
        assert entry.is_expired(6)

    def test_zero_timeout_is_permanent(self):
        entry = _entry(0)
        entry.stats.installed_at = 0
        entry.stats.last_touched = 0
        assert not entry.is_expired(10**9)

    def test_new_entries_start_unstamped(self):
        entry = _entry(0, idle=1)
        assert entry.installed_at == UNSTAMPED
        assert entry.last_touched == UNSTAMPED


class TestSweeper:
    def test_hard_wins_when_both_deadlines_passed(self):
        pipeline = _pipeline()
        entry = _entry(0, idle=1, hard=1)
        pipeline.table(0).add(entry)
        sweeper = LifecycleSweeper()
        assert sweeper.advance(pipeline, 1) == []  # stamps at prev=0
        removed = sweeper.advance(pipeline, 1)  # now=2 > both deadlines
        assert [event.reason for event in removed] == ["hard"]
        assert sweeper.stats.expired_hard == 1
        assert sweeper.stats.expired_idle == 0
        assert len(pipeline.table(0)) == 0

    def test_lazy_install_stamp_is_previous_tick(self):
        pipeline = _pipeline()
        sweeper = LifecycleSweeper()
        sweeper.advance(pipeline, 4)  # clock at 4
        entry = _entry(0, hard=2)
        pipeline.table(0).add(entry)
        assert sweeper.advance(pipeline, 1) == []  # stamped at prev=4
        assert entry.installed_at == 4
        removed = sweeper.advance(pipeline, 2)  # now=7 > 4 + 2
        assert [event.installed_at for event in removed] == [4]
        assert removed[0].removed_at == 7
        assert removed[0].duration == 3

    def test_fresh_twin_restarts_the_lifecycle(self):
        """A reinstalled (match, priority) twin is a *new* entry: zero
        counters, its own install stamp, its own deadlines."""
        pipeline = _pipeline()
        sweeper = LifecycleSweeper()
        original = _entry(3, idle=1)
        pipeline.table(0).add(original)
        sweeper.advance(pipeline, 2)  # original expires (installed 0)
        assert [e.packet_count for e in sweeper.ledger] == [0]
        twin = _entry(3, idle=1)
        pipeline.table(0).add(twin)
        assert sweeper.advance(pipeline, 1) == []  # stamped at prev=2
        assert twin.installed_at == 2
        removed = sweeper.advance(pipeline, 1)  # now=4 > 2 + 1
        assert [event.installed_at for event in removed] == [2]
        assert original.stats.packet_count == 0
        assert len(sweeper.ledger) == 2

    def test_ledger_counters_are_final(self):
        """Count-delta touch detection: traffic between sweeps refreshes
        the idle timer to the previous sweep's tick, and the removal
        event snapshots the entry's final counters."""
        pipeline = _pipeline()
        entry = _entry(0, idle=1)
        pipeline.table(0).add(entry)
        sweeper = LifecycleSweeper()
        sweeper.advance(pipeline, 1)  # stamp at 0, clock at 1
        entry.stats.record(FRAME)  # hot-path credit, no touch call
        entry.stats.record(FRAME)
        assert sweeper.advance(pipeline, 1) == []  # touched at 1, alive
        sweeper.sync()  # lanes buffer last_touched between sweeps
        assert entry.last_touched == 1
        removed = sweeper.advance(pipeline, 1)  # now=3 > 1 + 1
        assert [(e.reason, e.packet_count, e.byte_count) for e in removed] == [
            ("idle", 2, 2 * FRAME)
        ]


# ----------------------------------------------------------------------
# conservation across every runner path
# ----------------------------------------------------------------------

def _lifecycle_workload() -> Workload:
    """Every removal happens via expiry (no uninstall events), so the
    conservation law is exact: each credited packet is accounted for by
    a live entry or a flow-removed event, and each trace packet either
    credited an entry or went to the controller."""
    events = (
        ("install", 0, _entry(0)),  # permanent
        ("install", 0, _entry(1, idle=1)),
        ("install", 0, _entry(2, hard=2)),
        ("packets", [_pkt(0), _pkt(1), _pkt(2)] * 3),
        ("advance", 1),  # t=1: deadlines not strictly exceeded, all live
        ("packets", [_pkt(0), _pkt(1), _pkt(2)] * 2),
        ("advance", 2),  # t=3: idle (touched at 1) and hard (installed 0)
        ("packets", [_pkt(0), _pkt(1), _pkt(2)] * 2),  # flows 1, 2 miss
        ("advance", 1),
    )
    return Workload(
        name="lifecycle-conservation",
        description="mixed-timeout pool where only the sweeps remove",
        events=events,
    )


def _runners():
    return {
        "batched": lambda: BatchPipeline(_pipeline(), cache_capacity=None),
        "cached": lambda: BatchPipeline(_pipeline(), cache_capacity=16),
        "megaflow": lambda: BatchPipeline(
            _pipeline(), cache_capacity=16, megaflow_capacity=32
        ),
        "sharded-shm": lambda: ShardedBatchPipeline(
            _pipeline(),
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
        ),
        "sharded-depth1": lambda: ShardedBatchPipeline(
            _pipeline(),
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=1,
        ),
    }


class TestConservation:
    @pytest.mark.parametrize("columnar", [False, True], ids=["dict", "columnar"])
    @pytest.mark.parametrize("name", sorted(_runners()))
    def test_packets_conserved_on_every_path(self, name, columnar):
        # The workload is rebuilt per replay: install events carry the
        # mutable entry objects, so replaying one workload object twice
        # would leak the first run's counters into the second.
        workload = _lifecycle_workload()
        if columnar:
            workload = columnar_workload(workload)
        runner = _runners()[name]()
        try:
            stats = run_workload(runner, workload, batch_size=4)
            live = (
                runner._authoritative
                if isinstance(runner, ShardedBatchPipeline)
                else runner.pipeline
            )
            assert stats.packets == 21
            assert stats.expired == 2
            assert [e.reason for e in stats.flow_removed] == ["idle", "hard"]
            # Final counters on the removal events: 3 + 2 packets each.
            assert [e.packet_count for e in stats.flow_removed] == [5, 5]
            assert [e.byte_count for e in stats.flow_removed] == [
                5 * FRAME,
                5 * FRAME,
            ]
            # Conservation: every credited packet is in a live entry or
            # a removal event, and every trace packet either credited
            # exactly one entry (single table) or reached the
            # controller after its flow expired.
            ledger_packets = sum(e.packet_count for e in stats.flow_removed)
            ledger_bytes = sum(e.byte_count for e in stats.flow_removed)
            assert stats.flow_packets == 17
            assert stats.matched == stats.flow_packets
            assert stats.sent_to_controller == 4
            assert stats.packets == stats.matched + stats.sent_to_controller
            assert stats.flow_bytes == stats.flow_packets * FRAME
            live_entries = live.table(0).entries_snapshot()
            assert len(live_entries) == 1  # only the permanent flow
            live_packets = sum(e.stats.packet_count for e in live_entries)
            live_bytes = sum(e.stats.byte_count for e in live_entries)
            assert live_packets + ledger_packets == stats.flow_packets
            assert live_bytes + ledger_bytes == stats.flow_bytes
        finally:
            if isinstance(runner, ShardedBatchPipeline):
                runner.close()

    def test_ledgers_identical_across_paths(self):
        ledgers = {}
        for name, factory in _runners().items():
            runner = factory()
            try:
                stats = run_workload(
                    runner, _lifecycle_workload(), batch_size=4
                )
            finally:
                if isinstance(runner, ShardedBatchPipeline):
                    runner.close()
            ledgers[name] = stats.flow_removed
        reference = ledgers["batched"]
        assert len(reference) == 2
        for name, ledger in ledgers.items():
            assert ledger == reference, name


class TestRevalidationPin:
    def test_expired_flow_must_miss_the_caches(self):
        """The pin the two-tier runner earns its keep on: packets that
        warmed the microflow and megaflow tiers before their entry
        expired must go to the controller afterwards — an expiry is a
        table-version bump like any uninstall, and stale cache lines
        must not keep a dead flow alive."""
        runner = BatchPipeline(
            _pipeline(), cache_capacity=16, megaflow_capacity=32
        )
        runner.pipeline.table(0).add(_entry(5, idle=1))
        warm = runner.process_batch([_pkt(5), _pkt(5), _pkt(5)])
        assert all(not r.sent_to_controller for r in warm)
        removed = runner.advance_clock(2)  # idle deadline 0 + 1 < 2
        assert [e.reason for e in removed] == ["idle"]
        cold = runner.process_batch([_pkt(5), _pkt(5)])
        assert all(r.sent_to_controller for r in cold)
        assert removed[0].packet_count == 3  # final counters, frozen
