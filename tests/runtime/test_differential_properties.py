"""Differential property harness over every runner path.

Random rule sets, mutation sequences and traffic traces (hypothesis
strategies, deterministic per example) are replayed through all ten
classification paths —

1. behavioural scan (``FlowTable`` pipeline, scalar),
2. decomposition (``OpenFlowLookupTable`` pipeline, scalar),
3. batched (``BatchPipeline``, caches off),
4. microflow-cached batch,
5. two-tier megaflow batch,
6. sharded shared-memory, pipelined (``ShardedBatchPipeline``,
   depth=3 — bursts stream through the double-buffered
   dispatch/collect loop),
7. sharded with shared sealed rule state (``shared_rules=True`` —
   workers attach read-only :mod:`repro.runtime.rulestate` snapshots
   instead of rebuilding replicas, mutations replay from the log),
8. columnar microflow-cached batch (``PacketBatch`` input, vectorized
   key hashing),
9. columnar two-tier megaflow batch (vectorized masked-key probes),
10. columnar sharded shared-memory pipelined (decode-free workers
    classifying straight off the request block's columns) —

and every path must produce identical :class:`PipelineResult`\\ s per
packet **and** identical post-run per-entry flow-stats counters —
packets and bytes: every trace packet carries a deterministic frame
length, so byte accounting is exercised on every example.  Rules also
draw idle/hard timeouts and event scripts interleave ``("advance",
dt)`` virtual-clock ticks, so entries expire mid-replay on every path:
the scalar paths sweep through their own
:class:`~repro.runtime.lifecycle.LifecycleSweeper`, the runners
through ``advance_clock``, and the resulting flow-removed ledgers
(reason, final counters, install/removal ticks) must agree as
multisets — the scan table iterates in priority order while the
decomposed tables iterate in insertion order, so expiries landing on
the same tick may be *emitted* in a different order, but never differ
in content.  The scan path anchors correctness (it is the spec);
everything else is an optimisation that must be observationally
invisible.

CI runs this file explicitly and fails if it was skipped (e.g. a
missing ``hypothesis``), so the property coverage cannot silently rot
out of the pipeline.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table
from repro.core.lookup_table import OpenFlowLookupTable
from repro.filters.paper_data import RoutingFilterStats
from repro.filters.synthetic import generate_routing_set
from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import (
    ApplyActions,
    GotoTable,
    WriteActions,
)
from repro.openflow.match import ExactMatch, Match, PrefixMatch, RangeMatch
from repro.openflow.pipeline import OpenFlowPipeline
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.packet.generator import PacketGenerator, TraceConfig
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime import (
    ARRIVALS,
    BatchPipeline,
    FaultPlan,
    LifecycleSweeper,
    ShardedBatchPipeline,
    StreamConfig,
    run_stream,
)
from repro.runtime.streaming import SHED_REASONS

#: Match schema: one exact, two prefix, one range, one exact field — all
#: three engine kinds of the decomposition participate in every example.
SCHEMA = ("in_port", "ipv4_dst", "ipv4_src", "tcp_dst", "eth_type")

BATCH_SIZE = 7  # deliberately odd: chunk boundaries land mid-burst


# ----------------------------------------------------------------------
# strategies (specs are plain tuples: hashable, picklable, shrinkable)
# ----------------------------------------------------------------------

_ports = st.integers(min_value=0, max_value=7)
_prefix_len = st.sampled_from((0, 8, 16, 24, 32))
_port_edges = st.sampled_from((0, 80, 443, 1023, 1024, 65535))


def _prefix_spec():
    return st.tuples(
        st.just("prefix"), st.integers(0, 3), _prefix_len
    )


_field_spec = {
    "in_port": st.tuples(st.just("exact"), _ports),
    "ipv4_dst": _prefix_spec(),
    "ipv4_src": _prefix_spec(),
    "tcp_dst": st.tuples(st.just("range"), _port_edges, _port_edges),
    "eth_type": st.tuples(
        st.just("exact"), st.sampled_from((0x0800, 0x0806, 0x86DD))
    ),
}

_rule_spec = st.tuples(
    st.integers(0, 1),  # table id
    st.lists(
        st.sampled_from(SCHEMA), unique=True, min_size=0, max_size=3
    ).flatmap(
        lambda names: st.tuples(
            *[st.tuples(st.just(name), _field_spec[name]) for name in names]
        )
    ),
    st.integers(0, 3),  # priority (small: forces tiebreak coverage)
    st.integers(1, 200),  # output port
    st.booleans(),  # goto table 1 (only meaningful from table 0)
    st.booleans(),  # rewrite eth_type before the goto
    st.integers(0, 3),  # idle timeout (0 = permanent)
    st.integers(0, 3),  # hard timeout (0 = permanent)
)

_example = st.fixed_dictionaries(
    {
        "rules": st.lists(_rule_spec, min_size=1, max_size=8),
        "initial": st.lists(st.integers(0, 7), min_size=1, max_size=8),
        "events": st.lists(
            st.one_of(
                st.tuples(st.just("burst"), st.integers(1, 3)),
                st.tuples(st.just("add"), st.integers(0, 7)),
                st.tuples(st.just("remove"), st.integers(0, 7)),
                st.tuples(st.just("advance"), st.integers(1, 3)),
            ),
            min_size=1,
            max_size=6,
        ),
        "packets": st.lists(
            st.tuples(
                st.sampled_from(("rule", "random")),
                st.integers(0, 7),  # rule index (mod len) or drop-field pick
                st.booleans(),  # drop one field from the packet
            ),
            min_size=1,
            max_size=12,
        ),
        "dup_picks": st.lists(st.integers(0, 11), min_size=4, max_size=30),
        "seed": st.integers(0, 2**16),
    }
)


def _build_predicate(spec):
    kind = spec[0]
    if kind == "exact":
        return ExactMatch(value=spec[1], bits=32 if spec[1] <= 7 else 16)
    if kind == "prefix":
        base, length = spec[1], spec[2]
        value = (base << (32 - length)) if length else 0
        return PrefixMatch(value=value, length=length, bits=32)
    low, high = sorted(spec[1:])
    return RangeMatch(low=low, high=high, bits=16)


def _build_match(field_specs) -> Match:
    return Match(
        {name: _build_predicate(spec) for name, spec in field_specs}
    )


def _build_entry(rule_spec) -> tuple[int, FlowEntry]:
    table_id, field_specs, priority, port, goto, rewrite, idle, hard = (
        rule_spec
    )
    instructions = []
    if rewrite and goto and table_id == 0:
        instructions.append(ApplyActions([SetFieldAction("eth_type", 0x0800)]))
    instructions.append(WriteActions([OutputAction(port)]))
    if goto and table_id == 0:
        instructions.append(GotoTable(1))
    return table_id, FlowEntry.build(
        match=_build_match(field_specs),
        priority=priority,
        instructions=instructions,
        idle_timeout=idle,
        hard_timeout=hard,
    )


def _build_trace(example) -> list[dict[str, int]]:
    """One shared packet pool; duplicate picks alias the same dicts
    (exactly how the scenario generators build traces).  Every pool
    entry carries a deterministic per-flow frame length, so byte
    counters accrue distinct (conservation-checkable) values on every
    example."""
    generator = PacketGenerator(TraceConfig(seed=example["seed"]))
    pool: list[dict[str, int]] = []
    rules = example["rules"]
    for index, (kind, pick, drop) in enumerate(example["packets"]):
        if kind == "rule":
            match = _build_match(rules[pick % len(rules)][1])
            fields = generator.fields_matching(match, fill_fields=SCHEMA)
        else:
            fields = generator.random_fields(SCHEMA)
        if drop:
            fields.pop(SCHEMA[pick % len(SCHEMA)], None)
        fields[FRAME_LEN_FIELD] = 64 + 97 * index  # distinct per flow
        pool.append(fields)
    return [pool[pick % len(pool)] for pick in example["dup_picks"]]


class Replayer:
    """Drives one runner through the example's event script.

    Each replayer owns *fresh* entry objects built from the shared rule
    specs, so per-entry flow-stats counters are per-runner and directly
    comparable afterwards.
    """

    def __init__(self, example, make_tables, runner_factory=None, columnar=False):
        self.columnar = columnar
        self.entries = [_build_entry(spec) for spec in example["rules"]]
        tables = make_tables()
        self.tables = {t.table_id: t for t in tables}
        for pick in example["initial"]:
            table_id, entry = self.entries[pick % len(self.entries)]
            self.tables[table_id].add(entry)
        self.pipeline = (
            MultiTableLookupArchitecture(tables)
            if isinstance(tables[0], OpenFlowLookupTable)
            else OpenFlowPipeline(tables)
        )
        self.runner = runner_factory(self.pipeline) if runner_factory else None
        # Scalar paths (no runner) sweep through their own sweeper; the
        # runners carry one already and expose it via advance_clock.
        self.sweeper = LifecycleSweeper() if self.runner is None else None
        self.flow_removed = []
        self.results = []

    def advance(self, dt):
        """One virtual-clock tick: sweep, collect the expiry events."""
        if self.runner is not None:
            self.flow_removed.extend(self.runner.advance_clock(dt))
        else:
            self.flow_removed.extend(self.sweeper.advance(self.pipeline, dt))

    def mutate(self, kind, pick):
        table_id, entry = self.entries[pick % len(self.entries)]
        surface = (
            self.runner.pipeline if self.runner is not None else self.pipeline
        )
        if kind == "add":
            surface.table(table_id).add(entry)
        else:
            surface.table(table_id).remove(entry.match, entry.priority)

    def classify(self, burst):
        if self.runner is None:
            self.results.extend(self.pipeline.process(p) for p in burst)
            return
        if self.columnar:
            # One columnar batch per burst, sliced into views — the
            # shape scenario builders emit through columnar_workload.
            batch = PacketBatch.from_dicts(burst)
            chunks = [
                batch[start : start + BATCH_SIZE]
                for start in range(0, len(burst), BATCH_SIZE)
            ]
        else:
            chunks = [
                burst[start : start + BATCH_SIZE]
                for start in range(0, len(burst), BATCH_SIZE)
            ]
        process_batches = getattr(self.runner, "process_batches", None)
        if process_batches is not None:
            # The pipelined dispatch/collect loop: multi-chunk bursts
            # genuinely overlap in flight.
            for chunk_results in process_batches(chunks):
                self.results.extend(chunk_results)
        else:
            for chunk in chunks:
                self.results.extend(self.runner.process_batch(chunk))

    def replay(self, example, trace):
        cursor = 0
        for event in example["events"]:
            if event[0] == "burst":
                take = min(event[1] * BATCH_SIZE, len(trace) - cursor)
                self.classify(trace[cursor : cursor + take])
                cursor += take
            elif event[0] == "advance":
                self.advance(event[1])
            else:
                self.mutate(event[0], event[1])
        if cursor < len(trace):
            self.classify(trace[cursor:])

    def flow_counts(self) -> list[tuple[int, int]]:
        """(packets, bytes) per rule spec, dead or alive — churned-out
        entries keep their history, so conservation survives removal."""
        return [
            (entry.stats.packet_count, entry.stats.byte_count)
            for _, entry in self.entries
        ]

    def removed_events(self):
        """The flow-removed ledger as a sorted multiset: expiries
        landing on the same tick are emitted in snapshot order, which
        differs between the priority-sorted scan tables and the
        insertion-ordered decomposed tables; the *events* themselves
        (identity, reason, final counters, ticks) must still agree
        exactly.  FlowRemoved is frozen with a value repr, so repr is a
        total order over equal-content ledgers."""
        return sorted(self.flow_removed, key=repr)

    def close(self):
        if isinstance(self.runner, ShardedBatchPipeline):
            self.runner.close()


def _flow_tables():
    return [FlowTable(table_id=0), FlowTable(table_id=1)]


def _lookup_tables():
    return [
        OpenFlowLookupTable(SCHEMA, table_id=0),
        OpenFlowLookupTable(SCHEMA, table_id=1),
    ]


def assert_same_result(a, b, context):
    assert a.output_ports == b.output_ports, context
    assert a.sent_to_controller == b.sent_to_controller, context
    assert a.dropped == b.dropped, context
    assert a.metadata == b.metadata, context
    assert a.tables_visited == b.tables_visited, context
    assert a.final_fields == b.final_fields, context
    assert [(e.match, e.priority) for e in a.matched_entries] == [
        (e.match, e.priority) for e in b.matched_entries
    ], context
    assert a.applied_actions == b.applied_actions, context


RUNNERS = {
    "scan": (_flow_tables, None),
    "decomposed": (_lookup_tables, None),
    "batched": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(pipeline, cache_capacity=None),
    ),
    "cached": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(pipeline, cache_capacity=16),
    ),
    "megaflow": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(
            pipeline, cache_capacity=16, megaflow_capacity=32
        ),
    ),
    "sharded-shm-pipelined": (
        _lookup_tables,
        lambda pipeline: ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
        ),
    ),
    "sharded-shared-rules": (
        _lookup_tables,
        lambda pipeline: ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
            shared_rules=True,
        ),
    ),
    "columnar-cached": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(pipeline, cache_capacity=16),
        True,
    ),
    "columnar-megaflow": (
        _lookup_tables,
        lambda pipeline: BatchPipeline(
            pipeline, cache_capacity=16, megaflow_capacity=32
        ),
        True,
    ),
    "columnar-sharded": (
        _lookup_tables,
        lambda pipeline: ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
        ),
        True,
    ),
}


def _batch_count(example, trace_len):
    """How many batches the replayer will submit — sizes the seeded
    fault schedule so chaos faults land on seqs that actually run."""
    cursor = 0
    count = 0
    for event in example["events"]:
        if event[0] == "burst":
            take = min(event[1] * BATCH_SIZE, trace_len - cursor)
            count += (take + BATCH_SIZE - 1) // BATCH_SIZE
            cursor += take
    if cursor < trace_len:
        count += (trace_len - cursor + BATCH_SIZE - 1) // BATCH_SIZE
    return count


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_example)
def test_sharded_equivalent_under_chaos(example):
    """Chaos mode: the pipelined sharded path with a seeded fault plan
    SIGKILLing workers at random serve steps must stay observationally
    identical to the scan path — results and per-entry flow counters —
    across random rule sets, churn scripts and traces."""
    trace = _build_trace(example)
    reference = Replayer(example, _flow_tables)
    reference.replay(example, trace)
    seqs = range(max(1, _batch_count(example, len(trace))))
    plan = FaultPlan.seeded(example["seed"], workers=2, seqs=seqs, faults=2)
    chaotic = Replayer(
        example,
        _lookup_tables,
        lambda pipeline: ShardedBatchPipeline(
            pipeline,
            workers=2,
            cache_capacity=16,
            megaflow_capacity=32,
            depth=3,
            fault_plan=plan,
        ),
    )
    try:
        chaotic.replay(example, trace)
        snapshot = chaotic.runner.supervision_snapshot()
        assert len(chaotic.results) == len(reference.results)
        for i, (got, expected) in enumerate(
            zip(chaotic.results, reference.results)
        ):
            assert_same_result(got, expected, f"chaos packet {i}")
        assert chaotic.flow_counts() == reference.flow_counts(), (
            "chaos: per-entry flow stats diverge from the scan path"
        )
        assert chaotic.removed_events() == reference.removed_events(), (
            "chaos: flow-removed ledger diverges from the scan path"
        )
        # Crashes (if the schedule hit a live (worker, seq) pair) must
        # all have been absorbed by respawn + replay, never a wedge.
        assert snapshot["restarts"] == snapshot["crashes"]
        assert snapshot["wedges"] == 0
    finally:
        chaotic.close()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_example)
def test_all_paths_equivalent(example):
    trace = _build_trace(example)
    replayers: dict[str, Replayer] = {}
    try:
        for name, (make_tables, factory, *flags) in RUNNERS.items():
            replayer = Replayer(
                example, make_tables, factory, columnar=bool(flags and flags[0])
            )
            replayers[name] = replayer
            replayer.replay(example, trace)
        reference = replayers["scan"]
        assert len(reference.results) == len(trace)
        for name, replayer in replayers.items():
            if name == "scan":
                continue
            assert len(replayer.results) == len(reference.results)
            for i, (got, expected) in enumerate(
                zip(replayer.results, reference.results)
            ):
                assert_same_result(got, expected, f"{name} packet {i}")
            assert replayer.flow_counts() == reference.flow_counts(), (
                f"{name}: per-entry flow stats diverge from the scan path"
            )
            assert replayer.removed_events() == reference.removed_events(), (
                f"{name}: flow-removed ledger diverges from the scan path"
            )
    finally:
        for replayer in replayers.values():
            replayer.close()


# ----------------------------------------------------------------------
# Open-loop streaming: conservation and determinism as properties
# ----------------------------------------------------------------------

#: One modest rule set shared by every streaming example (the law under
#: test quantifies over arrival processes and configs, not rules — the
#: rule-set dimension is covered by the path-equivalence suite above).
_STREAM_RULES = generate_routing_set(
    RoutingFilterStats("streamprop", 200, 10, 30, 70), seed=5
)

_stream_example = st.fixed_dictionaries(
    {
        "process": st.sampled_from(sorted(ARRIVALS)),
        "seed": st.integers(min_value=0, max_value=2**16),
        "packet_count": st.integers(min_value=20, max_value=120),
        "capacity": st.integers(min_value=4, max_value=96),
        "batch_size": st.integers(min_value=1, max_value=24),
        "window": st.integers(min_value=1, max_value=4),
        "form_deadline": st.integers(min_value=1, max_value=12),
        "service_rate": st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=4.0)
        ),
        "deadline": st.one_of(
            st.none(), st.integers(min_value=1, max_value=48)
        ),
        "degrade_after": st.integers(min_value=1, max_value=4),
    }
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(example=_stream_example)
def test_stream_conservation_and_determinism(example):
    """For every arrival process, queue capacity and service rate the
    strategies draw: admitted == completed + shed (packets AND bytes),
    occupancy never exceeds the hard capacity, every shed record names
    a known reason, and an identically-configured rerun reproduces the
    shed ledger, latency stamps and ladder transitions exactly."""
    schedule = ARRIVALS[example["process"]](
        _STREAM_RULES,
        packet_count=example["packet_count"],
        seed=example["seed"],
    )
    config = StreamConfig(
        capacity=example["capacity"],
        batch_size=example["batch_size"],
        form_deadline=example["form_deadline"],
        window=example["window"],
        policy="tail" if example["deadline"] is None else "deadline",
        deadline=example["deadline"],
        service_rate=example["service_rate"],
        degrade_after=example["degrade_after"],
    )

    def one_run():
        runner = BatchPipeline(
            _make_stream_arch(), cache_capacity=16, megaflow_capacity=32
        )
        return run_stream(runner, schedule, config)

    report = one_run()
    report.assert_conserved()
    assert report.admitted_packets == schedule.packet_count
    assert report.admitted_bytes == schedule.byte_count
    assert report.peak_occupancy <= config.capacity
    assert all(record.reason in SHED_REASONS for record in report.shed)
    # Completed + shed indices partition the arrival index space.
    completed = {i for i, _ in report.latencies}
    dropped = {record.index for record in report.shed}
    assert not completed & dropped
    assert completed | dropped == set(range(schedule.packet_count))
    again = one_run()
    assert again.shed == report.shed
    assert again.latencies == report.latencies
    assert again.transitions == report.transitions
    assert again.batches == report.batches
    assert again.stalls == report.stalls


def _make_stream_arch():
    return MultiTableLookupArchitecture(
        [build_lookup_table(_STREAM_RULES)]
    )
