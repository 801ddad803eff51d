"""The four benchmark workloads.

Each workload fixes a traffic shape, builds its inputs from the seed
with the program's own scenario and arrival builders (before any timing
starts), sets a runner up, drives it through a timed region and hands
the reference check what the runner processed.

- ``zipf-fastpath``: closed loop over the bbra routing set, default
  ``BatchPipeline`` (microflow cache only), caches warm.
- ``bgp-churn``: closed loop over the 10^5-rule BGP-shaped table with
  uninstall/reinstall flow-mods between slices, two-tier caches.
- ``stream-overload``: open loop; Poisson arrivals at ~1.05 pkt/tick
  through ``run_stream`` with a declared service rate of 0.9.  Its
  sharded twin (``ShardedStream``) replays one pass through
  ``ShardedBatchPipeline`` in the traced run.
- ``sharded-bgp``: ``ShardedBatchPipeline`` over the 10^5-rule table
  with shared sealed rule state, ``nproc - 1`` workers, pipelined
  submit/collect.
"""

from __future__ import annotations

import hashlib
import os
import resource
import time
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any

import numpy as np

from perfbench.reference import FlowIndex, Observed, entry_key, scan_reference
from perfbench.tracing import EntryPoint, SpanRecorder
from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.builder import build_lookup_table
from repro.core.field_engine import LutPartitionEngine, TriePartitionEngine
from repro.core.index import IndexCalculator
from repro.core.lookup_table import OpenFlowLookupTable
from repro.filters.rule import RuleSet
from repro.filters.synthetic import large_rule_set, routing_set
from repro.memory.report import shared_state_report
from repro.openflow.pipeline import OpenFlowPipeline
from repro.packet.batch import PacketBatch
from repro.runtime import (
    BatchPipeline,
    ShardedBatchPipeline,
    StreamConfig,
    churn_workload,
    poisson_arrivals,
    run_stream,
    zipf_workload,
)
from repro.runtime.cache import MicroflowCache
from repro.runtime.lifecycle import LifecycleSweeper
from repro.runtime.megaflow import MegaflowCache
from repro.runtime.rulestate import SharedRuleState
from repro.runtime.streaming import AdmissionQueue

BATCH_SIZE = 256
#: A run's timed region lasts at least this many batch calls, so the
#: batch p99 has ten samples beyond it.
MIN_BATCH_SAMPLES = 1000
#: Untimed batches before the closed-loop timed region (caches warm).
WARMUP_BATCHES = 64
MICROFLOW_CAPACITY = 4096
MEGAFLOW_CAPACITY = 8192
LARGE_RULES = 100_000

#: Runner counters the reference check compares.
TOTALS = ("packets", "matched", "dropped", "sent_to_controller", "flow_packets", "flow_bytes")

#: Entry points of the layers that run in the benchmark's own process.
BATCH_POINTS = (
    EntryPoint("batch.classify_columnar", BatchPipeline, "classify_columnar"),
    EntryPoint("batch.process_batch", BatchPipeline, "process_batch"),
)
OPENFLOW_POINTS = (
    EntryPoint("openflow.instructions", OpenFlowPipeline, "_execute_instructions"),
    EntryPoint("openflow.action_set", OpenFlowPipeline, "_execute_action_set"),
)
MICROFLOW_POINTS = (
    EntryPoint("microflow.lookup_batch_columnar", MicroflowCache, "lookup_batch_columnar"),
    EntryPoint("microflow.lookup_batch", MicroflowCache, "lookup_batch"),
)
MEGAFLOW_PROBES = ("megaflow.probe_credit", "megaflow.lookup_batch")
MEGAFLOW_POINTS = (
    EntryPoint("megaflow.probe_credit", MegaflowCache, "probe_credit"),
    EntryPoint("megaflow.lookup_batch", MegaflowCache, "lookup_batch"),
    EntryPoint("megaflow.install", MegaflowCache, "install"),
)
DECOMP_LOOKUPS = (
    "decomp.search", "decomp.lookup", "decomp.search_batch", "decomp.lookup_batch",
)
DECOMP_POINTS = (
    EntryPoint("decomp.search", OpenFlowLookupTable, "search"),
    EntryPoint("decomp.lookup", OpenFlowLookupTable, "lookup"),
    EntryPoint("decomp.search_batch", OpenFlowLookupTable, "search_batch"),
    EntryPoint("decomp.lookup_batch", OpenFlowLookupTable, "lookup_batch"),
    EntryPoint("decomp.trie", TriePartitionEngine, "search"),
    EntryPoint("decomp.lut", LutPartitionEngine, "search"),
    EntryPoint("decomp.index", IndexCalculator, "lookup"),
)
UPDATE_POINTS = (
    EntryPoint("update.add", OpenFlowLookupTable, "add"),
    EntryPoint("update.remove", OpenFlowLookupTable, "remove"),
)
LIFECYCLE_POINTS = (EntryPoint("lifecycle.advance", LifecycleSweeper, "advance"),)
STREAM_POINTS = (
    EntryPoint("stream.offer", AdmissionQueue, "offer"),
    EntryPoint("stream.take", AdmissionQueue, "take"),
    EntryPoint("stream.expire", AdmissionQueue, "expire"),
)
SHARD_POINTS = (
    EntryPoint("shard.submit_batch", ShardedBatchPipeline, "submit_batch"),
    EntryPoint("shard.collect_batch", ShardedBatchPipeline, "collect_batch"),
    EntryPoint("shard.collect_any", ShardedBatchPipeline, "collect_any"),
)
SEAL_POINTS = (EntryPoint("rulestate.seal", SharedRuleState, "seal"),)
LOCAL_POINTS = (
    BATCH_POINTS + OPENFLOW_POINTS + MICROFLOW_POINTS + MEGAFLOW_POINTS
    + DECOMP_POINTS + UPDATE_POINTS + LIFECYCLE_POINTS
)


def shard_workers() -> int:
    """``nproc - 1`` workers (at least one), so the parent that submits
    and collects keeps a core to itself."""
    return max(1, (os.cpu_count() or 1) - 1)


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Inputs:
    """Everything a run feeds the program, built before timing."""

    rule_set: RuleSet
    #: Runner events; packet events carry columnar batches.
    events: list[tuple]
    index: FlowIndex
    #: Per packets-event index: per-packet flow ids and frame lengths.
    flow_ids: dict[int, np.ndarray]
    frames: dict[int, np.ndarray]
    digest: str
    description: str
    schedule: Any = None


@dataclass
class Drive:
    """What one timed region did."""

    packets: int = 0
    elapsed_s: float = 0.0
    batch_us: list[float] = field(default_factory=list)
    flowmods: int = 0
    flowmod_s: float = 0.0
    #: (event index, start, stop) -> times that slice of the event's
    #: packets was processed, untimed warm-up included.
    processed: Counter = field(default_factory=Counter)
    extra: dict[str, Any] = field(default_factory=dict)


def _digest(index: FlowIndex, dict_events: Sequence[tuple], ids: dict, frames: dict) -> str:
    digest = hashlib.sha256()
    for fields in index.flows:
        digest.update(repr(sorted(fields.items())).encode())
    for position, event in enumerate(dict_events):
        if event[0] == "packets":
            digest.update(ids[position].tobytes())
            digest.update(frames[position].tobytes())
        elif event[0] == "install":
            digest.update(repr((event[1], event[2].match, event[2].priority)).encode())
        else:
            digest.update(repr(event).encode())
    return digest.hexdigest()


def _index_events(dict_events: Sequence[tuple], description: str, rule_set: RuleSet) -> Inputs:
    """Flow-index a dict-form workload and convert it to columnar."""
    index = FlowIndex()
    ids: dict[int, np.ndarray] = {}
    frames: dict[int, np.ndarray] = {}
    events: list[tuple] = []
    for position, event in enumerate(dict_events):
        if event[0] == "packets":
            ids[position], frames[position] = index.index(event[1])
            events.append(("packets", PacketBatch.from_dicts(event[1])))
        else:
            events.append(event)
    return Inputs(
        rule_set=rule_set,
        events=events,
        index=index,
        flow_ids=ids,
        frames=frames,
        digest=_digest(index, dict_events, ids, frames),
        description=description,
    )


def bind_entries(events: Sequence[tuple], table: Any) -> list[tuple]:
    """Point install events at the runner's own entry objects, so
    reinstalls keep the entries' counters."""
    own = {entry_key(entry): entry for entry in table}
    return [
        (kind, event[1], own[entry_key(event[2])]) if (kind := event[0]) == "install" else event
        for event in events
    ]


class Workload:
    """Base: one traffic shape, its runner and its timed region."""

    name = ""
    why = ""
    #: Fresh set-ups per run; ``setup_s`` is their median.  A 10^5-rule
    #: set-up takes 8-15 s, so those workloads set up twice.
    setup_repeats = 9
    #: Wrapped during the traced run's timed region ...
    entry_points: tuple[EntryPoint, ...] = LOCAL_POINTS
    #: ... and during its set-up.
    setup_points: tuple[EntryPoint, ...] = ()
    #: Untraced/traced segment pairs of a traced run.
    trace_pairs = 2
    #: Batch calls an untraced timed region lasts at least.
    min_batches = MIN_BATCH_SAMPLES

    def build_inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def setup(self, inputs: Inputs) -> Any:
        raise NotImplementedError

    def close(self, state: Any) -> None:
        """Release what :meth:`setup` started."""

    def sharded_twin(self) -> Workload | None:
        """A variant run through ``ShardedBatchPipeline``, replayed once
        in the traced run to measure the shard and rulestate layers."""
        return None

    def drive(
        self,
        state: Any,
        inputs: Inputs,
        seconds: float,
        min_batches: int,
        recorder: SpanRecorder | None,
        warmup: bool = True,
    ) -> Drive:
        """One timed region of at least ``seconds`` and ``min_batches``
        batch calls, after ``WARMUP_BATCHES`` untimed ones if
        ``warmup``; ``recorder``, when given, is stamped with batch ids."""
        raise NotImplementedError

    def observe(self, state: Any) -> Observed:
        """The runner's counters, as the check compares them."""
        totals = {name: getattr(state.runner, name) for name in TOTALS}
        return Observed.capture(totals, state.table)

    def reference(self, state: Any, inputs: Inputs) -> OpenFlowPipeline:
        """The uncached pipeline the check classifies flows with."""
        raise NotImplementedError

    def flow_counts(self, drives: Sequence[Drive], inputs: Inputs) -> tuple[np.ndarray, np.ndarray]:
        """Packets and bytes of each flow the runner processed."""
        n = len(inputs.index)
        packets = np.zeros(n, dtype=np.int64)
        nbytes = np.zeros(n, dtype=np.int64)
        for drive in drives:
            for (event, start, stop), times in drive.processed.items():
                flows = inputs.flow_ids[event][start:stop]
                packets += times * np.bincount(flows, minlength=n)
                nbytes += times * np.bincount(
                    flows, weights=inputs.frames[event][start:stop], minlength=n
                ).astype(np.int64)
        return packets, nbytes


@dataclass
class LocalState:
    runner: BatchPipeline
    table: OpenFlowLookupTable
    arch: MultiTableLookupArchitecture
    #: Batch calls and flow-mods, replayed round-robin (see ``_steps``).
    steps: list[tuple]
    #: Where the next drive resumes the round-robin, and batch ids so far.
    position: int = 0
    batches: int = 0


class LocalWorkload(Workload):
    """A single-process ``BatchPipeline`` over one bbra or 10^5-rule
    table, checked against a linear scan of the rules."""

    cache_capacity: int | None = MICROFLOW_CAPACITY
    megaflow_capacity: int | None = None

    def setup(self, inputs: Inputs) -> LocalState:
        table = build_lookup_table(inputs.rule_set)
        arch = MultiTableLookupArchitecture([table])
        runner = BatchPipeline(
            arch,
            cache_capacity=self.cache_capacity,
            megaflow_capacity=self.megaflow_capacity,
        )
        return LocalState(runner, table, arch, _steps(bind_entries(inputs.events, table)))

    def reference(self, state: LocalState, inputs: Inputs) -> OpenFlowPipeline:
        return scan_reference(inputs.rule_set.to_flow_entries(), state.arch.miss_policy)


class ClosedLoop(LocalWorkload):
    """One caller: each batch call returns before the next is made."""

    def drive(self, state, inputs, seconds, min_batches, recorder, warmup=True) -> Drive:
        """Replay the events round-robin through ``classify_columnar``
        (what ``run_workload`` calls for columnar workloads), applying
        flow-mods through the runner's pipeline between batches.  The
        timed region ends after a batch, once ``seconds`` have passed
        and ``min_batches`` batch calls were timed."""
        steps = state.steps
        runner = state.runner
        classify = runner.classify_columnar
        table = runner.pipeline.table

        def mutate(step: tuple) -> None:
            if step[0] == "install":
                table(step[1]).add(step[2])
            else:
                table(step[1]).remove(step[2], step[3])

        drive = Drive()
        processed = drive.processed
        batch_us = drive.batch_us
        perf = time.perf_counter
        position = state.position
        warm = 0 if warmup else WARMUP_BATCHES
        while warm < WARMUP_BATCHES:
            step = steps[position % len(steps)]
            position += 1
            if step[0] == "batch":
                classify(step[2])
                processed[step[1]] += 1
                warm += 1
            else:
                mutate(step)
        packets = 0
        flowmods = 0
        flowmod_s = 0.0
        batch = state.batches
        start = perf()
        while True:
            step = steps[position % len(steps)]
            position += 1
            if step[0] == "batch":
                if recorder is not None:
                    recorder.batch_id = batch
                batch += 1
                b0 = perf()
                classify(step[2])
                b1 = perf()
                batch_us.append((b1 - b0) * 1e6)
                processed[step[1]] += 1
                packets += len(step[2])
                if b1 - start >= seconds and len(batch_us) >= min_batches:
                    break
            else:
                m0 = perf()
                mutate(step)
                flowmod_s += perf() - m0
                flowmods += 1
        drive.elapsed_s = perf() - start
        state.position = position
        state.batches = batch
        drive.packets = packets
        drive.flowmods = flowmods
        drive.flowmod_s = flowmod_s
        return drive


def _steps(events: Sequence[tuple]) -> list[tuple]:
    """Flatten events into batch calls and flow-mods, slicing each
    packet event into ``BATCH_SIZE`` views up front."""
    steps: list[tuple] = []
    for position, event in enumerate(events):
        if event[0] == "packets":
            batch = event[1]
            for start in range(0, len(batch), BATCH_SIZE):
                stop = min(start + BATCH_SIZE, len(batch))
                steps.append(("batch", (position, start, stop), batch[start:stop]))
        elif event[0] == "install":
            steps.append(("install", event[1], event[2]))
        elif event[0] == "uninstall":
            steps.append(("uninstall", event[1], event[2], event[3]))
        else:
            raise ValueError(f"unexpected event kind {event[0]!r}")
    return steps


class ZipfFastpath(ClosedLoop):
    name = "zipf-fastpath"
    why = (
        "hit path: bbra rules, zipf over 200 flows, warm microflow cache; "
        "no megaflow, decomposition, lifecycle or update work"
    )
    packets = 32_768

    def build_inputs(self, seed: int) -> Inputs:
        rule_set = routing_set("bbra")
        workload = zipf_workload(
            rule_set, packet_count=self.packets, flow_count=200, s=1.2,
            seed=seed, frame_len="imix",
        )
        return _index_events(workload.events, workload.description, rule_set)


class BgpChurn(ClosedLoop):
    name = "bgp-churn"
    why = (
        "miss path plus writes: 10^5 BGP-shaped rules, zipf over 20k flows, "
        "one flow-mod per ~24 packets, two-tier caches"
    )
    setup_repeats = 2
    megaflow_capacity = MEGAFLOW_CAPACITY
    rules = LARGE_RULES
    packets = 100_000

    def build_inputs(self, seed: int) -> Inputs:
        rule_set = large_rule_set(self.rules)
        workload = churn_workload(
            rule_set, packet_count=self.packets, flow_count=20_000,
            churn_rules=64, rounds=32, seed=seed, frame_len="imix",
        )
        return _index_events(workload.events, workload.description, rule_set)

    def reference(self, state: LocalState, inputs: Inputs) -> OpenFlowPipeline:
        # A scan over 10^5 rules is too slow; the per-packet
        # decomposition lookup is pinned to the scan by the
        # differential tests.
        return state.arch


@dataclass
class ShardedState:
    runner: ShardedBatchPipeline
    table: OpenFlowLookupTable
    arch: MultiTableLookupArchitecture
    steps: list[tuple]
    spinup_s: float = 0.0
    sealed_bytes: int = 0
    #: The spin-up batch's key in ``Drive.processed``, until a drive
    #: books it.
    first_batch: tuple = ()
    position: int = 1
    batches: int = 1
    supervision: dict[str, int] = field(default_factory=dict)
    worker_peak_rss_mib: float = 0.0
    closed: bool = False


class ShardedWorkload(Workload):
    """A ``ShardedBatchPipeline`` with two-tier caches per worker over
    sealed shared rule state, ``nproc - 1`` workers."""

    setup_points = SEAL_POINTS
    depth = 2

    def start(self, inputs: Inputs, steps: list[tuple], first: tuple) -> ShardedState:
        """Table build, seal and worker spin-up: the batch step ``first``
        on the fresh fleet forks the workers and attaches them."""
        table = build_lookup_table(inputs.rule_set)
        arch = MultiTableLookupArchitecture([table])
        runner = ShardedBatchPipeline(
            arch,
            workers=shard_workers(),
            cache_capacity=MICROFLOW_CAPACITY,
            megaflow_capacity=MEGAFLOW_CAPACITY,
            shared_rules=True,
            depth=self.depth,
        )
        state = ShardedState(runner, table, arch, steps)
        state.sealed_bytes = shared_state_report(runner._rule_state.layout).total_nbytes
        spin0 = time.perf_counter()
        runner.submit_batch(first[2])
        runner.collect_batch()
        state.spinup_s = time.perf_counter() - spin0
        state.first_batch = first[1]
        return state

    def book_spinup(self, state: ShardedState, drive: Drive) -> None:
        """Count the spin-up batch once, in the first drive."""
        if state.first_batch:
            drive.processed[state.first_batch] += 1
            state.first_batch = ()

    def close(self, state: ShardedState) -> None:
        if not state.closed:
            state.supervision = state.runner.supervision_snapshot()
            state.runner.close()
            state.closed = True
            state.worker_peak_rss_mib = peak_rss_mib(resource.RUSAGE_CHILDREN)
            # The runner started the shared-memory resource tracker; stop
            # it and wait for it, so the run leaves no process behind.
            resource_tracker._resource_tracker._stop()

    def observe(self, state: ShardedState) -> Observed:
        self.close(state)
        return super().observe(state)


class StreamOverload(LocalWorkload):
    name = "stream-overload"
    why = (
        "open loop at ~15% overload: admission, degradation ladder, shedding, "
        "per-tick lifecycle sweep; the traced run replays a pass through the "
        "sharded runner"
    )
    megaflow_capacity = MEGAFLOW_CAPACITY
    arrivals = 40_000
    #: Every pass replays the same virtual-time run, so one untraced and
    #: one traced pass compare like with like.
    trace_pairs = 1
    config = StreamConfig(capacity=4096, batch_size=256, window=4, service_rate=0.9)
    entry_points = (
        EntryPoint("batch.process_batch", BatchPipeline, "process_batch", opens_batch=True),
        *OPENFLOW_POINTS, *MICROFLOW_POINTS, *MEGAFLOW_POINTS, *DECOMP_POINTS,
        *UPDATE_POINTS, *LIFECYCLE_POINTS, *STREAM_POINTS,
    )

    def sharded_twin(self) -> Workload | None:
        return ShardedStream()

    def build_inputs(self, seed: int) -> Inputs:
        """The arrival schedule; the one packet event is the sharded
        twin's spin-up batch (its first ``BATCH_SIZE`` arrivals)."""
        rule_set = routing_set("bbra")
        schedule = poisson_arrivals(
            rule_set, packet_count=self.arrivals, mean_gap=1.0, flow_count=200,
            seed=seed, frame_len="imix",
        )
        trace = [event[1] for event in schedule.events if event[0] == "packet"]
        gaps = tuple(event[1] for event in schedule.events if event[0] == "advance")
        index = FlowIndex()
        ids, frames = index.index(trace)
        return Inputs(
            rule_set=rule_set,
            events=[("packets", PacketBatch.from_dicts(trace[:BATCH_SIZE]))],
            index=index,
            flow_ids={0: ids},
            frames={0: frames},
            digest=_digest(index, [("packets",), ("advances", gaps)], {0: ids}, {0: frames}),
            description=f"{schedule.description}, offered load {schedule.offered_load:.3f}",
            schedule=schedule,
        )

    def drive(self, state, inputs, seconds, min_batches, recorder, warmup=True) -> Drive:
        """Run the schedule through ``run_stream`` again and again on one
        runner (see :meth:`replay`); a batch's time is the runner's
        ``process_batch`` call as ``run_stream`` makes it.  There is no
        warm-up: an open loop's arrivals do not wait for caches to
        fill."""
        runner = state.runner
        drive = Drive()
        batch_us = drive.batch_us
        perf = time.perf_counter
        untimed = runner.process_batch

        def timed(batch: Any) -> Any:
            b0 = perf()
            results = untimed(batch)
            batch_us.append((perf() - b0) * 1e6)
            return results

        runner.process_batch = timed  # type: ignore[method-assign]
        try:
            self.replay(runner, inputs, seconds, min_batches, recorder, drive)
        finally:
            del runner.process_batch
        return drive

    def replay(self, runner, inputs, seconds, min_batches, recorder, drive: Drive) -> None:
        """Pass after pass until ``seconds`` of stream time and
        ``min_batches`` batch calls are reached (and two passes, when
        ``min_batches``).  Each pass must shed the same arrivals and
        report the same latencies (virtual time); the first pass's
        report is kept for the checks."""
        perf = time.perf_counter
        # A measured region replays the schedule at least twice, so the
        # replay check always has a rerun, and the process holds the
        # same two reports at its peak however many passes fit.
        min_passes = 2 if min_batches else 1
        first = None
        reruns_identical = []
        passes = 0
        while passes < min_passes or drive.elapsed_s < seconds or len(drive.batch_us) < min_batches:
            start = perf()
            if recorder is None:
                report = run_stream(runner, inputs.schedule, self.config)
            else:
                with recorder.span("stream.run"):
                    report = run_stream(runner, inputs.schedule, self.config)
            drive.elapsed_s += perf() - start
            drive.packets += report.completed_packets
            passes += 1
            if first is None:
                first = report
            else:
                reruns_identical.append(replay_view(report) == replay_view(first))
            del report
        completed = np.ones(len(inputs.flow_ids[0]), dtype=bool)
        completed[[record.index for record in first.shed]] = False
        drive.extra.update(
            report=first,
            passes=passes,
            completed=completed,
            reruns_identical=reruns_identical,
        )

    def flow_counts(self, drives: Sequence[Drive], inputs: Inputs) -> tuple[np.ndarray, np.ndarray]:
        """Every pass replays the same virtual-time run, so each pass
        completes exactly the first pass's arrivals; batches booked in
        ``Drive.processed`` (the sharded twin's spin-up) come on top."""
        n = len(inputs.index)
        packets, nbytes = super().flow_counts(drives, inputs)
        for drive in drives:
            keep = drive.extra["completed"]
            flows = inputs.flow_ids[0][keep]
            passes = drive.extra["passes"]
            packets += passes * np.bincount(flows, minlength=n)
            nbytes += passes * np.bincount(
                flows, weights=inputs.frames[0][keep], minlength=n
            ).astype(np.int64)
        return packets, nbytes


class ShardedStream(ShardedWorkload, StreamOverload):
    """``stream-overload``'s schedule through ``ShardedBatchPipeline``:
    the traced run of ``stream-overload`` replays one pass through it to
    measure the shard and rulestate layers on a gated workload.

    ``run_stream`` drives the runner's ``submit_batch`` /
    ``collect_batch`` / ``collect_any`` window; a batch's time is the
    caller's time in its submit plus its collect.  Virtual time makes
    the pass's shedding and latencies those of the single-process
    runner.
    """

    name = "stream-overload.sharded"
    setup_repeats = 1
    #: The transport's in-flight window is the smaller of the two.
    depth = StreamOverload.config.window
    entry_points = (
        EntryPoint("shard.submit_batch", ShardedBatchPipeline, "submit_batch", opens_batch=True),
        *SHARD_POINTS[1:], *LIFECYCLE_POINTS, *STREAM_POINTS,
    )

    def sharded_twin(self) -> Workload | None:
        return None

    def setup(self, inputs: Inputs) -> ShardedState:
        return self.start(inputs, [], _steps(inputs.events)[0])

    def drive(self, state, inputs, seconds, min_batches, recorder, warmup=True) -> Drive:
        runner = state.runner
        drive = Drive()
        self.book_spinup(state, drive)
        batch_us = drive.batch_us
        perf = time.perf_counter
        submit = runner.submit_batch
        collect_batch = runner.collect_batch
        collect_any = runner.collect_any
        #: In-flight seq -> the caller's time in its submit (bounded by
        #: the transport's window).
        submitted: dict[int, float] = {}

        def timed_submit(*args: Any, **kwargs: Any) -> int:
            s0 = perf()
            seq = submit(*args, **kwargs)
            submitted[int(seq)] = perf() - s0
            return seq

        def timed_collect_batch(seq: int | None = None) -> Any:
            c0 = perf()
            results = collect_batch(seq)
            key = next(iter(submitted)) if seq is None else int(seq)
            batch_us.append((submitted.pop(key) + perf() - c0) * 1e6)
            return results

        def timed_collect_any() -> tuple[int, Any]:
            c0 = perf()
            seq, results = collect_any()
            batch_us.append((submitted.pop(int(seq)) + perf() - c0) * 1e6)
            return seq, results

        runner.submit_batch = timed_submit  # type: ignore[method-assign]
        runner.collect_batch = timed_collect_batch  # type: ignore[method-assign]
        runner.collect_any = timed_collect_any  # type: ignore[method-assign]
        try:
            self.replay(runner, inputs, seconds, min_batches, recorder, drive)
        finally:
            del runner.submit_batch, runner.collect_batch, runner.collect_any
        return drive


def replay_view(report: Any) -> tuple:
    """What a rerun of a schedule must reproduce: which arrivals were
    shed and why, and every completion latency (shed ticks are
    absolute, so later passes on one runner stamp later ticks)."""
    return (
        [(record.index, record.reason) for record in report.shed],
        report.latencies,
        report.max_level,
        report.peak_occupancy,
    )


class ShardedBgp(ShardedWorkload):
    name = "sharded-bgp"
    why = (
        "shard, transport, supervision and sealed shared rule state: 10^5 "
        "rules, nproc-1 workers, zipf over 2000 flows, pipelined, read-only"
    )
    setup_repeats = 2
    rules = LARGE_RULES
    packets = 32_768
    entry_points = SHARD_POINTS

    def build_inputs(self, seed: int) -> Inputs:
        rule_set = large_rule_set(self.rules)
        workload = zipf_workload(
            rule_set, packet_count=self.packets, flow_count=2000, s=1.2,
            seed=seed, frame_len="imix",
        )
        return _index_events(workload.events, workload.description, rule_set)

    def setup(self, inputs: Inputs) -> ShardedState:
        steps = _steps(inputs.events)
        return self.start(inputs, steps, steps[0])

    def reference(self, state: ShardedState, inputs: Inputs) -> OpenFlowPipeline:
        return state.arch

    def drive(self, state, inputs, seconds, min_batches, recorder, warmup=True) -> Drive:
        """Keep ``depth`` batches in flight through ``submit_batch`` /
        ``collect_batch`` (the pipelining ``run_workload`` gets from
        ``process_batches``).  A batch's time is the caller's time in
        its submit plus its collect call."""
        runner = state.runner
        steps = state.steps
        drive = Drive()
        self.book_spinup(state, drive)
        perf = time.perf_counter
        inflight: deque = deque()
        depth = runner.depth
        position = state.position
        batch = state.batches

        def collect() -> None:
            key, submit_s, size, seq = inflight.popleft()
            if recorder is not None:
                recorder.batch_id = seq
            c0 = perf()
            runner.collect_batch()
            drive.batch_us.append((submit_s + perf() - c0) * 1e6)
            drive.processed[key] += 1
            drive.packets += size

        def submit() -> None:
            nonlocal position, batch
            step = steps[position % len(steps)]
            position += 1
            if recorder is not None:
                recorder.batch_id = batch
            s0 = perf()
            runner.submit_batch(step[2])
            inflight.append((step[1], perf() - s0, len(step[2]), batch))
            batch += 1

        # Warm up over a whole pass of the trace, so every flow has been
        # through the workers' caches: a partial pass leaves cold misses
        # in the timed region, and their share of the batch-time tail
        # then depends on how many batches the region holds.
        for _ in range(max(WARMUP_BATCHES, len(steps)) if warmup else 0):
            submit()
            if len(inflight) == depth:
                collect()
        while inflight:
            collect()
        drive.batch_us.clear()
        drive.packets = 0
        start = perf()
        while perf() - start < seconds or len(drive.batch_us) < min_batches:
            if len(inflight) == depth:
                collect()
            submit()
        while inflight:
            collect()
        drive.elapsed_s = perf() - start
        state.position = position
        state.batches = batch
        return drive


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (ZipfFastpath, BgpChurn, StreamOverload, ShardedBgp)
}
