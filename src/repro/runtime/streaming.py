"""Open-loop streaming front-end: bounded admission, backpressure and
deterministic load shedding over the batched lookup runtimes.

Every runner below this layer is *closed-loop*: callers feed batches as
fast as the pipeline drains them, so offered load can never exceed
capacity.  Production traffic is an arrival process — packets arrive
whether or not the switch is keeping up — and the robustness property
that matters under overload is graceful, *deterministic* degradation
instead of unbounded queue growth.  This module supplies that front-end:

- :class:`ArrivalSchedule` — a seeded open-loop load shape: Poisson,
  bursty or diurnal arrivals expressed as ``("advance", dt)`` +
  ``("packet", fields)`` events on the runtime's
  :class:`~repro.runtime.lifecycle.VirtualClock`.  No wall time
  anywhere (the ``wall-clock-ban`` lint rule holds here too), so every
  overload scenario replays bit-for-bit.
- :class:`AdmissionQueue` — a hard-capacity queue with explicit drop
  policies: *tail-drop* (arrivals beyond capacity are shed on the spot)
  and *deadline-drop* (per-packet deadlines in virtual ticks; entries
  that age out before forming a batch are shed at the next advance).
  The ``bounded-queue`` lint rule pins the hard capacity: every queue
  construction in the runtime must carry a ``maxlen=`` or an explicit
  ``len()`` bound like the ones in :meth:`AdmissionQueue.offer`.
- size-or-deadline **batch formation** feeding the pipelined shard
  transport through ``submit_batch`` / ``collect_any`` behind a bounded
  in-flight window — when the window is full the stream *collects*
  (backpressure) instead of queueing unboundedly.
- a graduated **degradation ladder** under sustained overload: shrink
  the formation deadline, then bypass megaflow capture, then shed at
  admission — each rung deterministic in (seed, schedule, config).

Conservation law (checked by :meth:`StreamReport.assert_conserved`
before :func:`run_stream` returns): every arrival the generator offered
is accounted for exactly once —

    ``admitted == completed + shed``   (packets *and* bytes)

where *admitted* counts every packet offered to the admission
front-end, *completed* counts packets that finished classification, and
*shed* counts every drop (tail, deadline or degrade), each with a
:class:`ShedRecord` in the ledger.

Determinism under faults: the stream never collects opportunistically.
Completions are taken only at *forced* points — a FIFO
``collect_batch`` when the in-flight window is full, and full
``collect_any`` drains before every clock advance (and at end of
stream) where everything outstanding retires at the same virtual tick.
Shed decisions, ladder transitions and latency stamps are therefore
pure functions of (seed, schedule, config): a worker crash mid-stream
replays through the PR-7 supervisor and changes *nothing* in the
report.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol, cast

import numpy as np

from repro.filters.rule import RuleSet
from repro.openflow.pipeline import PipelineResult
from repro.packet.headers import frame_length
from repro.runtime.lifecycle import FlowRemoved, VirtualClock
from repro.runtime.scenarios import (
    DEFAULT_FLOWS,
    DEFAULT_FRAME_DIST,
    DEFAULT_SEED,
    flow_pool,
    stamp_frame_lengths,
)

#: One schedule event: ``("advance", dt)`` or ``("packet", fields)``.
StreamEvent = tuple[str, object]

#: Shed reasons, in the order the ladder reaches for them.
SHED_REASONS = ("tail", "deadline", "degrade")


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalSchedule:
    """A replayable open-loop arrival process on the virtual clock.

    ``events`` interleaves ``("advance", dt)`` ticks with
    ``("packet", fields)`` arrivals; several arrivals between two
    advances land on the same tick (a burst).  Time passes *only*
    through the advance events, exactly as in
    :class:`~repro.runtime.batch.Workload`.
    """

    name: str
    description: str
    events: tuple[StreamEvent, ...]

    @property
    def packet_count(self) -> int:
        return sum(1 for event in self.events if event[0] == "packet")

    @property
    def byte_count(self) -> int:
        return sum(
            frame_length(cast(Mapping[str, int], event[1]))
            for event in self.events
            if event[0] == "packet"
        )

    @property
    def duration(self) -> int:
        """Total virtual ticks the schedule spans."""
        return sum(
            cast(int, event[1]) for event in self.events if event[0] == "advance"
        )

    @property
    def offered_load(self) -> float:
        """Mean arrivals per virtual tick."""
        return self.packet_count / max(1, self.duration)


def _interleave(
    trace: Sequence[Mapping[str, int]], gaps: Sequence[int]
) -> tuple[StreamEvent, ...]:
    """Zip a packet trace with per-packet leading gaps into events."""
    events: list[StreamEvent] = []
    for fields, gap in zip(trace, gaps):
        if gap > 0:
            events.append(("advance", int(gap)))
        events.append(("packet", fields))
    return tuple(events)


def poisson_arrivals(
    rule_set: RuleSet,
    packet_count: int = 4096,
    mean_gap: float = 4.0,
    flow_count: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
) -> ArrivalSchedule:
    """Poisson arrivals: i.i.d. exponential inter-arrival gaps with the
    given mean (in virtual ticks), rounded to integer ticks — a rounded
    gap of zero is a same-tick pair, which is how a Poisson stream
    naturally produces micro-bursts.  Flows are drawn uniformly from
    the rule set's flow pool."""
    if mean_gap <= 0:
        raise ValueError(f"mean_gap must be positive, got {mean_gap}")
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = stamp_frame_lengths(
        generator.sample_trace(flows, packet_count), frame_len, seed
    )
    rng = np.random.default_rng(seed ^ 0x0A11)
    gaps = [int(g) for g in np.rint(rng.exponential(mean_gap, size=packet_count))]
    return ArrivalSchedule(
        name="poisson",
        description=(
            f"{packet_count} pkts, exp gaps mean {mean_gap:.1f} ticks "
            f"over {len(flows)} flows"
        ),
        events=_interleave(trace, gaps),
    )


def bursty_arrivals(
    rule_set: RuleSet,
    packet_count: int = 4096,
    mean_burst: float = 16.0,
    burst_gap: float = 48.0,
    flow_count: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
) -> ArrivalSchedule:
    """Bursty arrivals: geometric burst sizes, every packet of a burst
    on the same tick and from the same flow (temporal *and* flow
    locality), exponential gaps between bursts.  The admission queue's
    worst case — offered load arrives in spikes far above the mean."""
    if mean_burst < 1:
        raise ValueError(f"mean_burst must be >= 1, got {mean_burst}")
    if burst_gap <= 0:
        raise ValueError(f"burst_gap must be positive, got {burst_gap}")
    _, flows = flow_pool(rule_set, flow_count, seed)
    rng = np.random.default_rng(seed ^ 0xB127)
    trace: list[dict[str, int]] = []
    gaps: list[int] = []
    while len(trace) < packet_count:
        size = min(
            int(rng.geometric(1.0 / mean_burst)), packet_count - len(trace)
        )
        flow = flows[int(rng.integers(len(flows)))]
        gap = int(np.rint(rng.exponential(burst_gap)))
        for position in range(size):
            trace.append(flow)
            gaps.append(gap if position == 0 else 0)
    stamped = stamp_frame_lengths(trace, frame_len, seed)
    return ArrivalSchedule(
        name="bursty",
        description=(
            f"{packet_count} pkts in ~{mean_burst:.0f}-pkt same-tick "
            f"bursts, exp inter-burst gap {burst_gap:.0f} ticks"
        ),
        events=_interleave(stamped, gaps),
    )


def diurnal_arrivals(
    rule_set: RuleSet,
    packet_count: int = 4096,
    base_gap: float = 6.0,
    amplitude: float = 0.8,
    period: int = 2048,
    flow_count: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
) -> ArrivalSchedule:
    """Diurnal arrivals: the mean inter-arrival gap follows a sinusoid
    over virtual time — troughs (short gaps) model the daily peak where
    offered load can exceed capacity, crests model the quiet valley.
    ``amplitude`` in [0, 1) scales the swing around ``base_gap``."""
    if base_gap <= 0:
        raise ValueError(f"base_gap must be positive, got {base_gap}")
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    if period < 2:
        raise ValueError(f"period must be >= 2 ticks, got {period}")
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = stamp_frame_lengths(
        generator.sample_trace(flows, packet_count), frame_len, seed
    )
    rng = np.random.default_rng(seed ^ 0xD1A1)
    gaps: list[int] = []
    tick = 0
    for _ in range(packet_count):
        mean = base_gap * (1.0 + amplitude * math.sin(2 * math.pi * tick / period))
        gap = int(np.rint(rng.exponential(mean)))
        gaps.append(gap)
        tick += gap
    return ArrivalSchedule(
        name="diurnal",
        description=(
            f"{packet_count} pkts, sinusoidal mean gap "
            f"{base_gap:.1f}±{amplitude * base_gap:.1f} ticks, "
            f"period {period}"
        ),
        events=_interleave(trace, gaps),
    )


#: Catalog of arrival builders, mirroring ``scenarios.SCENARIOS``.
ARRIVALS = {
    "poisson": poisson_arrivals,
    "bursty": bursty_arrivals,
    "diurnal": diurnal_arrivals,
}


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShedRecord:
    """One shed packet: which arrival, when, why, and how many bytes.

    The tuple of these — the *shed ledger* — is part of the replay
    contract: two runs with the same (seed, schedule, config) produce
    identical ledgers, faults or not.
    """

    index: int
    tick: int
    reason: str
    frame_len: int


@dataclass(frozen=True)
class _Queued:
    """An admitted arrival waiting for batch formation."""

    index: int
    fields: Mapping[str, int]
    enqueue_tick: int
    deadline_tick: int | None
    frame_len: int


class AdmissionQueue:
    """Hard-capacity FIFO between the arrival process and the runners.

    ``policy="tail"`` sheds arrivals that find the queue full;
    ``policy="deadline"`` additionally stamps every admitted packet
    with ``enqueue_tick + deadline`` and sheds entries whose deadline
    passed before they formed a batch (:meth:`expire` — called after
    every clock advance; deadlines are monotone in FIFO order, so the
    expired entries are always a contiguous head prefix).  Capacity is
    *hard* under both policies: occupancy never exceeds it, which is
    what keeps memory bounded when offered load does not relent.
    """

    POLICIES = ("tail", "deadline")

    def __init__(
        self,
        capacity: int,
        policy: str = "tail",
        deadline: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {self.POLICIES}"
            )
        if policy == "deadline" and (deadline is None or deadline < 1):
            raise ValueError(
                "deadline policy needs a positive per-packet deadline, "
                f"got {deadline!r}"
            )
        self.capacity = capacity
        self.policy = policy
        self.deadline = deadline if policy == "deadline" else None
        # Hard capacity: every append below is guarded by a
        # len(self._queue) check against self.capacity.
        self._queue: deque[_Queued] = deque()
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def head_enqueue_tick(self) -> int | None:
        """Enqueue tick of the oldest waiting packet (None when empty)."""
        return self._queue[0].enqueue_tick if self._queue else None

    def offer(
        self, index: int, fields: Mapping[str, int], tick: int
    ) -> ShedRecord | None:
        """Admit one arrival, or return its tail-drop shed record."""
        frame_len = frame_length(fields)
        if len(self._queue) >= self.capacity:
            return ShedRecord(index, tick, "tail", frame_len)
        deadline_tick = (
            tick + self.deadline if self.deadline is not None else None
        )
        self._queue.append(
            _Queued(index, fields, tick, deadline_tick, frame_len)
        )
        self.peak_occupancy = max(self.peak_occupancy, len(self._queue))
        return None

    def expire(self, tick: int) -> list[ShedRecord]:
        """Shed the head entries whose deadline passed before ``tick``."""
        if self.deadline is None:
            return []
        shed: list[ShedRecord] = []
        while self._queue:
            deadline_tick = self._queue[0].deadline_tick
            if deadline_tick is None or tick <= deadline_tick:
                break
            entry = self._queue.popleft()
            shed.append(
                ShedRecord(entry.index, tick, "deadline", entry.frame_len)
            )
        return shed

    def take(self, limit: int) -> list[_Queued]:
        """Pop up to ``limit`` entries from the head for batch formation."""
        taken: list[_Queued] = []
        while self._queue and len(taken) < limit:
            taken.append(self._queue.popleft())
        return taken


# ----------------------------------------------------------------------
# Stream configuration and the degradation ladder
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamConfig:
    """Knobs for one open-loop run.

    ``capacity``/``policy``/``deadline`` parameterize the
    :class:`AdmissionQueue`.  ``batch_size`` and ``form_deadline``
    drive size-or-deadline batch formation: a batch goes out when
    ``batch_size`` packets are waiting, or when the oldest waiter has
    aged ``form_deadline`` ticks.  ``window`` bounds the pipelined
    in-flight batches (backpressure: a full window forces a FIFO
    collect before the next submit).

    ``service_rate`` declares the pipeline's drain capacity in packets
    per virtual tick, as a token bucket of depth ``batch_size *
    window`` that batch formation spends and every clock advance
    refills.  Virtual time cannot *measure* host throughput (that is
    the wall-clock bench's job), so overload — offered load exceeding
    capacity — is declared here; ``None`` means unlimited drain, under
    which the queue can only back up through same-tick bursts.

    The ladder fields set where sustained overload (occupancy >=
    ``high_watermark * capacity`` for ``degrade_after`` consecutive
    advances per rung) starts shrinking the formation deadline
    (rung 1), bypassing megaflow capture (rung 2) and shedding at
    admission above ``shed_target * capacity`` (rung 3); occupancy
    below ``low_watermark * capacity`` resets the ladder.
    """

    capacity: int = 512
    batch_size: int = 64
    form_deadline: int = 8
    window: int = 4
    policy: str = "tail"
    deadline: int | None = None
    service_rate: float | None = None
    degrade_after: int = 4
    high_watermark: float = 0.75
    low_watermark: float = 0.25
    shed_target: float = 0.5

    @property
    def service_burst(self) -> float:
        """Token-bucket depth: the most service the pipeline can owe at
        once — one full in-flight window of batches."""
        return float(self.batch_size * self.window)

    def __post_init__(self) -> None:
        if self.service_rate is not None and self.service_rate <= 0:
            raise ValueError(
                f"service_rate must be positive, got {self.service_rate}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.form_deadline < 1:
            raise ValueError(
                f"form_deadline must be >= 1, got {self.form_deadline}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.degrade_after < 1:
            raise ValueError(
                f"degrade_after must be >= 1, got {self.degrade_after}"
            )
        if not 0 < self.low_watermark < self.high_watermark <= 1:
            raise ValueError(
                "need 0 < low_watermark < high_watermark <= 1, got "
                f"{self.low_watermark} / {self.high_watermark}"
            )
        if not 0 < self.shed_target <= 1:
            raise ValueError(
                f"shed_target must be in (0, 1], got {self.shed_target}"
            )


@dataclass
class _Ladder:
    """Graduated degradation state, stepped once per clock advance.

    The overload *streak* counts consecutive advances that ended with
    occupancy at or above the high watermark; it resets below the low
    watermark and holds steady in between (hysteresis).  The rung is a
    pure function of the streak — ``min(3, streak // degrade_after)``
    — so the whole ladder is deterministic in the schedule.
    """

    config: StreamConfig
    streak: int = 0
    level: int = 0
    max_level: int = 0
    transitions: list[tuple[int, int]] = field(default_factory=list)

    def step(self, occupancy: int, tick: int) -> None:
        cfg = self.config
        if occupancy >= cfg.high_watermark * cfg.capacity:
            self.streak += 1
        elif occupancy < cfg.low_watermark * cfg.capacity:
            self.streak = 0
        level = min(3, self.streak // cfg.degrade_after)
        if level != self.level:
            self.level = level
            self.transitions.append((tick, level))
            self.max_level = max(self.max_level, level)

    @property
    def form_deadline(self) -> int:
        """Rung 1: halve the formation deadline to drain sooner."""
        if self.level < 1:
            return self.config.form_deadline
        return max(1, self.config.form_deadline // 2)

    @property
    def bypass_megaflow(self) -> bool:
        """Rung 2: stop paying megaflow capture/install on the miss
        path (observationally invisible — results never change)."""
        return self.level >= 2

    @property
    def shedding(self) -> bool:
        """Rung 3: shed arrivals at admission above the shed target."""
        return self.level >= 3


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------

#: Completions returned by a transport call: the queue entries of one
#: batch paired with that batch's per-packet results.
_Completion = tuple[list[_Queued], list[PipelineResult]]


class StreamableRunner(Protocol):
    """What :func:`run_stream` needs from a runner: the single-process
    :class:`~repro.runtime.batch.BatchPipeline` surface.  Runners that
    also expose ``submit_batch``/``collect_any`` (the sharded pipeline)
    are driven through the pipelined transport instead."""

    @property
    def clock(self) -> VirtualClock: ...

    def advance_clock(self, dt: int) -> list[FlowRemoved]: ...

    def process_batch(self, batch: Any) -> list[PipelineResult]: ...


class _InlineTransport:
    """Synchronous facade: a submitted batch is classified on the spot,
    but its completion is *buffered* until the next drain point — the
    identical points where the pipelined transport retires work — so
    latency stamps are transport-independent by construction."""

    def __init__(self, runner: Any) -> None:
        self._runner = runner
        # Flushed at every drain point (each clock advance), so this
        # holds at most one inter-advance interval's batches.
        self._done: list[_Completion] = []
        self.stalls = 0

    def submit(self, entries: list[_Queued], bypass: bool) -> None:
        self._runner.megaflow_bypass = bypass
        try:
            results = self._runner.process_batch(
                [entry.fields for entry in entries]
            )
        finally:
            self._runner.megaflow_bypass = False
        self._done.append((entries, results))

    def drain(self) -> list[_Completion]:
        completed = self._done
        self._done = []
        return completed


class _PipelinedTransport:
    """Bounded-window facade over ``submit_batch``/``collect_any``.

    Collections happen only at forced points: a FIFO ``collect_batch``
    when the in-flight window is full (counted in :attr:`stalls` —
    that is the backpressure), and a full ``collect_any`` drain at
    every clock advance.  Either way the completions are buffered and
    surfaced only from :meth:`drain`, so completion ticks never depend
    on transport timing.  ``_pending`` preserves submit order,
    mirroring the runner's own FIFO, so the forced collect's results
    always belong to our oldest pending seq.
    """

    def __init__(self, runner: Any, window: int) -> None:
        self._runner = runner
        self.window = max(1, min(window, runner.depth))
        self._pending: dict[int, list[_Queued]] = {}
        # Bounded by the window: a forced collect frees one slot.
        self._done: list[_Completion] = []
        self.stalls = 0

    def submit(self, entries: list[_Queued], bypass: bool) -> None:
        while self._runner.in_flight >= self.window:
            self.stalls += 1
            oldest = next(iter(self._pending))
            results = self._runner.collect_batch()
            self._done.append((self._pending.pop(oldest), results))
        seq = self._runner.submit_batch(
            [entry.fields for entry in entries], megaflow_bypass=bypass
        )
        self._pending[int(seq)] = entries

    def drain(self) -> list[_Completion]:
        while self._runner.in_flight:
            seq, results = self._runner.collect_any()
            self._done.append((self._pending.pop(int(seq)), results))
        completed = self._done
        self._done = []
        return completed


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamReport:
    """Everything one open-loop run produced, replay-comparable.

    ``latencies`` holds ``(arrival index, enqueue->completion ticks)``
    sorted by arrival index; ``results`` is aligned with it.  ``shed``
    is the ledger in decision order.  Two runs with identical (seed,
    schedule, config) produce equal reports on every field — that
    equality *is* the determinism contract the chaos and differential
    suites assert.
    """

    schedule: str
    config: StreamConfig
    admitted_packets: int
    admitted_bytes: int
    completed_packets: int
    completed_bytes: int
    shed: tuple[ShedRecord, ...]
    latencies: tuple[tuple[int, int], ...]
    results: tuple[PipelineResult, ...]
    batches: int
    stalls: int
    peak_occupancy: int
    duration: int
    max_level: int
    transitions: tuple[tuple[int, int], ...]
    flow_removed: tuple[FlowRemoved, ...]

    @property
    def shed_packets(self) -> int:
        return len(self.shed)

    @property
    def shed_bytes(self) -> int:
        return sum(record.frame_len for record in self.shed)

    @property
    def shed_by_reason(self) -> dict[str, int]:
        counts = {reason: 0 for reason in SHED_REASONS}
        for record in self.shed:
            counts[record.reason] += 1
        return counts

    @property
    def shed_rate(self) -> float:
        return self.shed_packets / max(1, self.admitted_packets)

    def latency_percentile(self, quantile: float) -> int:
        """Empirical percentile (ceil rank) of the completion latencies,
        in virtual ticks; 0 when nothing completed."""
        if not 0 < quantile <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        values = sorted(ticks for _, ticks in self.latencies)
        if not values:
            return 0
        rank = max(1, math.ceil(quantile * len(values)))
        return values[min(rank, len(values)) - 1]

    @property
    def p50(self) -> int:
        return self.latency_percentile(0.50)

    @property
    def p99(self) -> int:
        return self.latency_percentile(0.99)

    @property
    def p999(self) -> int:
        return self.latency_percentile(0.999)

    def assert_conserved(self) -> None:
        """The extended conservation law: admitted == completed + shed,
        for packets and bytes."""
        if self.admitted_packets != self.completed_packets + self.shed_packets:
            raise AssertionError(
                f"packet conservation broken: admitted "
                f"{self.admitted_packets} != completed "
                f"{self.completed_packets} + shed {self.shed_packets}"
            )
        if self.admitted_bytes != self.completed_bytes + self.shed_bytes:
            raise AssertionError(
                f"byte conservation broken: admitted {self.admitted_bytes} "
                f"!= completed {self.completed_bytes} + shed "
                f"{self.shed_bytes}"
            )


# ----------------------------------------------------------------------
# The open-loop runner
# ----------------------------------------------------------------------


def run_stream(
    runner: StreamableRunner,
    schedule: ArrivalSchedule,
    config: StreamConfig | None = None,
) -> StreamReport:
    """Drive ``runner`` with ``schedule`` through bounded admission.

    ``runner`` is a single-process
    :class:`~repro.runtime.batch.BatchPipeline` or a
    :class:`~repro.runtime.shard.ShardedBatchPipeline`, whose pipelined
    ``submit_batch``/``collect_any`` transport is used with the
    bounded in-flight window.  Packets left in the queue at end of
    schedule form final batches and complete at the final tick, so the
    conservation law closes exactly; the report is self-checked with
    :meth:`StreamReport.assert_conserved` before returning.
    """
    cfg = config if config is not None else StreamConfig()
    queue = AdmissionQueue(cfg.capacity, policy=cfg.policy, deadline=cfg.deadline)
    transport: _InlineTransport | _PipelinedTransport
    if hasattr(runner, "submit_batch"):
        transport = _PipelinedTransport(runner, cfg.window)
    else:
        transport = _InlineTransport(runner)
    ladder = _Ladder(cfg)

    tick = runner.clock.now
    start = tick
    admitted_packets = admitted_bytes = 0
    completed_packets = completed_bytes = 0
    shed: list[ShedRecord] = []
    latencies: dict[int, int] = {}
    results: dict[int, PipelineResult] = {}
    removed: list[FlowRemoved] = []
    batches = 0
    index = 0
    #: Service-token bucket (see StreamConfig.service_rate); starts
    #: full — an idle pipeline serves the first burst at line rate.
    credit = cfg.service_burst if cfg.service_rate is not None else math.inf

    def complete(completions: list[_Completion]) -> None:
        nonlocal completed_packets, completed_bytes
        for entries, batch_results in completions:
            for entry, result in zip(entries, batch_results):
                latencies[entry.index] = tick - entry.enqueue_tick
                results[entry.index] = result
                completed_packets += 1
                completed_bytes += entry.frame_len

    def form_and_submit(limit: int) -> None:
        nonlocal batches
        entries = queue.take(limit)
        batches += 1
        transport.submit(entries, ladder.bypass_megaflow)

    def form_ready() -> None:
        """Size-or-deadline batch formation, bounded by service credit:
        full batches whenever ``batch_size`` waiters have tokens, plus
        a partial flush once the head has aged past the (possibly
        ladder-shrunk) formation deadline."""
        nonlocal credit
        while queue.head_enqueue_tick is not None:
            waiting = len(queue)
            due = tick - queue.head_enqueue_tick >= ladder.form_deadline
            if waiting < cfg.batch_size and not due:
                break
            size = min(cfg.batch_size, waiting)
            if credit < size:
                break  # backlog: the pipeline is out of service tokens
            credit -= size
            form_and_submit(size)

    for event in schedule.events:
        kind = event[0]
        if kind == "packet":
            fields = cast(Mapping[str, int], event[1])
            admitted_packets += 1
            admitted_bytes += frame_length(fields)
            if ladder.shedding and len(queue) >= cfg.shed_target * cfg.capacity:
                shed.append(
                    ShedRecord(index, tick, "degrade", frame_length(fields))
                )
            else:
                record = queue.offer(index, fields, tick)
                if record is not None:
                    shed.append(record)
            index += 1
            form_ready()
        elif kind == "advance":
            dt = cast(int, event[1])
            form_ready()
            # Forced drain point: everything outstanding retires at this
            # tick, so the sharded runner is idle for the advance and
            # latency stamps are transport-independent.
            complete(transport.drain())
            removed.extend(runner.advance_clock(dt))
            tick += dt
            if cfg.service_rate is not None:
                credit = min(
                    cfg.service_burst, credit + dt * cfg.service_rate
                )
            shed.extend(queue.expire(tick))
            # Tokens accrued over dt put freshly serviceable batches on
            # the wire now; they retire at the *next* drain point.
            form_ready()
            ladder.step(len(queue), tick)
        else:
            raise ValueError(f"unknown stream event kind {kind!r}")

    # End of schedule: close the books.  The remaining backlog forms
    # final batches regardless of service credit (the conservation law
    # accounts every admitted packet as completed or shed, never
    # "still queued") and everything retires at the final tick.
    while len(queue):
        form_and_submit(cfg.batch_size)
    complete(transport.drain())

    order = sorted(latencies)
    report = StreamReport(
        schedule=schedule.name,
        config=cfg,
        admitted_packets=admitted_packets,
        admitted_bytes=admitted_bytes,
        completed_packets=completed_packets,
        completed_bytes=completed_bytes,
        shed=tuple(shed),
        latencies=tuple((i, latencies[i]) for i in order),
        results=tuple(results[i] for i in order),
        batches=batches,
        stalls=transport.stalls,
        peak_occupancy=queue.peak_occupancy,
        duration=tick - start,
        max_level=ladder.max_level,
        transitions=tuple(ladder.transitions),
        flow_removed=tuple(removed),
    )
    report.assert_conserved()
    return report
