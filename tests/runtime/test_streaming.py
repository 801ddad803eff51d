"""Open-loop streaming front-end: bounded admission, backpressure,
deterministic shedding and the conservation law.

Unit coverage for the arrival builders, :class:`AdmissionQueue`,
:class:`StreamConfig` validation and the degradation ladder, then
end-to-end :func:`run_stream` runs asserting the conservation law
(``admitted == completed + shed``, packets and bytes), determinism
(identical shed ledgers / latency stamps across reruns) and path
equivalence: the single-process and sharded-shm-pipelined runners
must produce bitwise-identical stream reports.
"""

from pathlib import Path

import pytest

from repro.runtime import (
    ARRIVALS,
    AdmissionQueue,
    BatchPipeline,
    ShardedBatchPipeline,
    StreamConfig,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    run_stream,
)
from repro.runtime.streaming import _Ladder

from tests.runtime.test_shard import make_arch

needs_dev_shm = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"
)

#: A config under which the bursty schedule below genuinely overloads:
#: the declared service rate is far below the offered load, so the
#: admission queue fills, tail-drops and climbs the ladder.
OVERLOAD = StreamConfig(
    capacity=64,
    batch_size=16,
    form_deadline=8,
    window=2,
    service_rate=0.5,
    degrade_after=2,
)


def overload_schedule(rule_set, packet_count=900):
    return bursty_arrivals(
        rule_set, packet_count=packet_count, mean_burst=24.0,
        burst_gap=16.0, seed=11,
    )


class TestArrivalSchedules:
    @pytest.mark.parametrize("name", sorted(ARRIVALS))
    def test_seeded_and_replayable(self, small_routing_set, name):
        build = ARRIVALS[name]
        a = build(small_routing_set, packet_count=64, seed=9)
        b = build(small_routing_set, packet_count=64, seed=9)
        assert a.events == b.events
        assert a.packet_count == 64
        assert a.byte_count > 0
        assert {event[0] for event in a.events} <= {"advance", "packet"}
        assert all(
            event[1] > 0 for event in a.events if event[0] == "advance"
        )
        other = build(small_routing_set, packet_count=64, seed=10)
        assert other.events != a.events

    def test_bursty_packs_same_tick_bursts(self, small_routing_set):
        schedule = bursty_arrivals(
            small_routing_set, packet_count=128, mean_burst=8.0, seed=3
        )
        kinds = [event[0] for event in schedule.events]
        # At least one burst: two packets with no advance between them.
        assert any(
            a == b == "packet" for a, b in zip(kinds, kinds[1:])
        )

    def test_offered_load_reflects_gap(self, small_routing_set):
        dense = poisson_arrivals(
            small_routing_set, packet_count=128, mean_gap=2.0, seed=4
        )
        sparse = poisson_arrivals(
            small_routing_set, packet_count=128, mean_gap=16.0, seed=4
        )
        assert dense.offered_load > sparse.offered_load
        assert dense.duration < sparse.duration

    def test_builder_validation(self, small_routing_set):
        with pytest.raises(ValueError):
            poisson_arrivals(small_routing_set, mean_gap=0)
        with pytest.raises(ValueError):
            bursty_arrivals(small_routing_set, mean_burst=0.5)
        with pytest.raises(ValueError):
            bursty_arrivals(small_routing_set, burst_gap=0)
        with pytest.raises(ValueError):
            diurnal_arrivals(small_routing_set, amplitude=1.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(small_routing_set, base_gap=0)
        with pytest.raises(ValueError):
            diurnal_arrivals(small_routing_set, period=1)


class TestAdmissionQueue:
    def test_capacity_is_hard(self):
        queue = AdmissionQueue(capacity=3)
        records = [
            queue.offer(i, {"f": i, "frame_len": 100}, tick=0)
            for i in range(5)
        ]
        assert records[:3] == [None, None, None]
        assert [r.reason for r in records[3:]] == ["tail", "tail"]
        assert [r.index for r in records[3:]] == [3, 4]
        assert len(queue) == 3
        assert queue.peak_occupancy == 3

    def test_fifo_take(self):
        queue = AdmissionQueue(capacity=8)
        for i in range(5):
            queue.offer(i, {"f": i}, tick=i)
        taken = queue.take(3)
        assert [entry.index for entry in taken] == [0, 1, 2]
        assert queue.head_enqueue_tick == 3
        assert [entry.index for entry in queue.take(10)] == [3, 4]
        assert queue.head_enqueue_tick is None

    def test_deadline_expiry_sheds_aged_head(self):
        queue = AdmissionQueue(capacity=8, policy="deadline", deadline=4)
        queue.offer(0, {"f": 0}, tick=0)   # deadline tick 4
        queue.offer(1, {"f": 1}, tick=3)   # deadline tick 7
        assert queue.expire(4) == []       # at the deadline: still live
        shed = queue.expire(5)
        assert [record.index for record in shed] == [0]
        assert [record.reason for record in shed] == ["deadline"]
        assert len(queue) == 1
        assert queue.expire(20)[0].index == 1

    def test_tail_policy_never_expires(self):
        queue = AdmissionQueue(capacity=4)
        queue.offer(0, {"f": 0}, tick=0)
        assert queue.expire(10_000) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=4, policy="random-early")
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=4, policy="deadline")


class TestStreamConfig:
    def test_defaults_valid(self):
        StreamConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"form_deadline": 0},
            {"window": 0},
            {"service_rate": 0},
            {"service_rate": -1.0},
            {"degrade_after": 0},
            {"low_watermark": 0.8, "high_watermark": 0.5},
            {"low_watermark": 0.0},
            {"high_watermark": 1.5},
            {"shed_target": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)

    def test_service_burst_is_one_window(self):
        cfg = StreamConfig(batch_size=16, window=3)
        assert cfg.service_burst == 48.0


class TestLadder:
    def test_climbs_after_sustained_overload(self):
        cfg = StreamConfig(capacity=100, degrade_after=2)
        ladder = _Ladder(cfg)
        for tick in range(1, 7):
            ladder.step(occupancy=80, tick=tick)  # >= high watermark 75
        assert ladder.level == 3
        assert ladder.max_level == 3
        assert [level for _, level in ladder.transitions] == [1, 2, 3]
        assert ladder.bypass_megaflow and ladder.shedding

    def test_hysteresis_holds_between_watermarks(self):
        cfg = StreamConfig(capacity=100, degrade_after=1)
        ladder = _Ladder(cfg)
        ladder.step(occupancy=80, tick=1)
        assert ladder.level == 1
        ladder.step(occupancy=50, tick=2)  # between the watermarks
        assert ladder.streak == 1 and ladder.level == 1
        ladder.step(occupancy=10, tick=3)  # below low watermark: reset
        assert ladder.streak == 0 and ladder.level == 0

    def test_rung_one_halves_form_deadline(self):
        cfg = StreamConfig(capacity=100, form_deadline=8, degrade_after=1)
        ladder = _Ladder(cfg)
        assert ladder.form_deadline == 8
        ladder.step(occupancy=90, tick=1)
        assert ladder.form_deadline == 4


class TestRunStream:
    def test_underload_sheds_nothing(self, small_routing_set):
        schedule = poisson_arrivals(
            small_routing_set, packet_count=300, mean_gap=4.0, seed=7
        )
        report = run_stream(
            BatchPipeline(make_arch(small_routing_set)),
            schedule,
            StreamConfig(capacity=256, batch_size=32, window=4),
        )
        report.assert_conserved()
        assert report.shed_packets == 0
        assert report.max_level == 0
        assert report.completed_packets == schedule.packet_count
        assert report.completed_bytes == schedule.byte_count
        assert len(report.results) == len(report.latencies)
        assert report.p50 <= report.p99 <= report.p999

    def test_overload_sheds_deterministically(self, small_routing_set):
        schedule = overload_schedule(small_routing_set)
        first = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, OVERLOAD
        )
        first.assert_conserved()
        assert first.shed_packets > 0
        assert first.shed_by_reason["tail"] > 0
        assert first.peak_occupancy <= OVERLOAD.capacity
        assert first.max_level >= 1
        again = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, OVERLOAD
        )
        assert again.shed == first.shed
        assert again.latencies == first.latencies
        assert again.transitions == first.transitions
        assert again.batches == first.batches

    def test_ladder_reaches_admission_shedding(self, small_routing_set):
        schedule = overload_schedule(small_routing_set)
        report = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, OVERLOAD
        )
        assert report.max_level == 3
        assert report.shed_by_reason["degrade"] > 0

    def test_deadline_policy_sheds_by_deadline(self, small_routing_set):
        schedule = overload_schedule(small_routing_set)
        cfg = StreamConfig(
            capacity=64,
            batch_size=16,
            form_deadline=8,
            window=2,
            policy="deadline",
            deadline=24,
            service_rate=0.5,
        )
        report = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, cfg
        )
        report.assert_conserved()
        assert report.shed_by_reason["deadline"] > 0

    def test_megaflow_bypass_rung_skips_capture(self, small_routing_set):
        """Under sustained rung-2+ overload the megaflow tier sees no
        install traffic for bypassed batches — but classification
        results are identical to a fault-free, non-degraded run."""
        schedule = overload_schedule(small_routing_set)
        degraded_runner = BatchPipeline(make_arch(small_routing_set))
        degraded = run_stream(degraded_runner, schedule, OVERLOAD)
        assert degraded.max_level >= 2
        # Reference: unlimited service, nothing shed, no degradation.
        reference = run_stream(
            BatchPipeline(make_arch(small_routing_set)),
            schedule,
            StreamConfig(capacity=2048, batch_size=16, window=2),
        )
        assert reference.max_level == 0
        completed = dict(zip([i for i, _ in degraded.latencies],
                             degraded.results))
        full = dict(zip([i for i, _ in reference.latencies],
                        reference.results))
        for index, result in completed.items():
            assert result_key(result) == result_key(full[index])

    def test_bypass_flag_always_restored(self, small_routing_set):
        runner = BatchPipeline(make_arch(small_routing_set))
        run_stream(runner, overload_schedule(small_routing_set), OVERLOAD)
        assert runner.megaflow_bypass is False

    def test_unknown_event_kind_rejected(self, small_routing_set):
        from repro.runtime.streaming import ArrivalSchedule

        bogus = ArrivalSchedule("bogus", "", (("tick", 1),))
        with pytest.raises(ValueError):
            run_stream(
                BatchPipeline(make_arch(small_routing_set)), bogus
            )


def result_key(result):
    """A comparable identity for one PipelineResult (the same fields
    :func:`tests.runtime.test_differential_properties.assert_same_result`
    checks, flattened into a tuple)."""
    return (
        tuple(result.output_ports),
        result.sent_to_controller,
        result.dropped,
        result.metadata,
        tuple(result.tables_visited),
        tuple(sorted(result.final_fields.items())),
        tuple((str(e.match), e.priority) for e in result.matched_entries),
        tuple(map(str, result.applied_actions)),
    )


def report_fingerprint(report):
    """Every deterministic field of a stream report, for bitwise
    cross-path comparison (results compared via their public attrs)."""
    return (
        report.admitted_packets,
        report.admitted_bytes,
        report.completed_packets,
        report.completed_bytes,
        report.shed,
        report.latencies,
        report.batches,
        report.peak_occupancy,
        report.duration,
        report.max_level,
        report.transitions,
        tuple(result_key(result) for result in report.results),
    )


@needs_dev_shm
class TestPathEquivalence:
    """The streaming layer is transport-independent: inline and sharded
    shm-pipelined runs of the same (seed, schedule, config) produce
    identical reports — stalls excepted, since only the pipelined
    transport exerts window backpressure."""

    def test_reports_identical_across_paths(self, small_routing_set):
        schedule = overload_schedule(small_routing_set, packet_count=600)
        inline = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, OVERLOAD
        )
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=4
        ) as sharded_runner:
            sharded = run_stream(sharded_runner, schedule, OVERLOAD)
        for report in (inline, sharded):
            report.assert_conserved()
        assert report_fingerprint(inline) == report_fingerprint(sharded), (
            "inline vs sharded diverge"
        )

    def test_window_backpressure_stalls(self, small_routing_set):
        """Bursts wider than the in-flight window force FIFO collects
        (stalls) on the sharded path — without perturbing the latency
        stamps, which stay identical to the inline run."""
        schedule = bursty_arrivals(
            small_routing_set, packet_count=400, mean_burst=80.0,
            burst_gap=32.0, seed=5,
        )
        cfg = StreamConfig(capacity=256, batch_size=16, window=2)
        with ShardedBatchPipeline(
            make_arch(small_routing_set), workers=2, depth=4
        ) as runner:
            sharded = run_stream(runner, schedule, cfg)
        inline = run_stream(
            BatchPipeline(make_arch(small_routing_set)), schedule, cfg
        )
        assert sharded.stalls > 0
        assert inline.stalls == 0
        assert sharded.latencies == inline.latencies
        assert sharded.shed == inline.shed
