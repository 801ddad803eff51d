"""Sharded multi-process batch runtime.

The per-table wave structure of :class:`~repro.runtime.batch.BatchPipeline`
is embarrassingly parallel across packets, but the CPython interpreter is
not — so :class:`ShardedBatchPipeline` splits each batch across
``multiprocessing`` workers, each owning a full pipeline **replica**
(rebuilt from a picklable :class:`PipelineSpec` snapshot) with its own
microflow/megaflow cache stack.

**Sharding** hashes each packet onto a worker by its megaflow-relevant
key: initially the full sorted field tuple, then — as workers report the
fields their megaflow masks actually constrain — only that consulted
union, so every packet of one traffic aggregate lands on the worker that
already caches its megaflow entry.  Sharding choices never affect
results (any worker classifies any packet identically); they only steer
cache locality.

**Consistency** uses a mutation log: the parent applies every flow-mod
to its authoritative pipeline *and* appends it to an ordered log
(mutations must go through :attr:`ShardedBatchPipeline.pipeline`, a
logging facade with the ``table(id).add/remove`` surface that
:func:`~repro.runtime.batch.run_workload` drives).  Each worker tracks a
log cursor; the parent snapshots the log length **once per batch** and
ships each worker the suffix up to that snapshot, so every worker
classifies the batch at the *same* log position — a mutation landing
mid-batch (e.g. from a controller thread) defers uniformly to the next
batch instead of splitting one batch across two table states — and
replicas stay sequentially consistent with the single-process runner,
results bitwise-identical.

**Transport** is shared memory: the parent encodes each batch once
into a columnar :class:`~repro.runtime.transport.PacketBlockCodec`
block, workers read their member rows in place and write results into
worker-owned blocks, and only tiny control messages (mutation
suffixes, block names, layouts) cross the pipes.  Every reply
carries a :class:`~repro.runtime.transport.FlowStatsDelta` — per-entry
packet/byte counts the parent folds back into its authoritative
:class:`~repro.openflow.flow.FlowEntry` counters — so flow stats match
the single-process run exactly instead of being stranded in replicas.

**Pipelining** removes the lockstep round-trip: each direction keeps a
ring of ``depth`` shared blocks (request slot ``seq % depth`` parent-
side, one response slot per worker per ring index), so the parent
encodes and dispatches batch N+1 while the workers are still
classifying batch N.  :meth:`ShardedBatchPipeline.process_batches` (or
the explicit :meth:`submit_batch` / :meth:`collect_batch` pair) drives
the overlap; every submitted batch snapshots the mutation-log length
and the pinned entry order *at submission*, so pipelined batches see
exactly the serial sequence of table states a lockstep runner would
have produced.  A slot is reused only after its batch's replies are
decoded, which bounds worker memory at ``depth`` response blocks and
keeps in-flight columns immutable.

**Out-of-order collection.**  The in-flight window is keyed by ``seq``:
:meth:`collect_batch` accepts ``seq=`` and :meth:`collect_any` completes
whichever batch's replies land first, so a stalled shard delays only
the batches actually assigned to it.  Per-worker pipes deliver replies
in submission order; replies for other in-flight batches that arrive
while waiting are parked in a ``(seq, worker)`` buffer and handed out
at their own collect.  Ring-slot safety is preserved: submitting onto a
slot still held by an uncollected batch raises.

**Columnar submissions** (a :class:`~repro.packet.batch.PacketBatch`)
make the workers *decode-free*: the control message carries a
``columnar`` flag, the worker attaches to the request block's columns
in place and classifies through
:meth:`~repro.runtime.batch.BatchPipeline.classify_columnar`, encoding
its reply straight from the megaflow templates
(:func:`~repro.runtime.transport.encode_outcomes`) — only rows that
miss both cache tiers are ever materialised as dicts worker-side.
Worker assignment hashes the shard fields' lanes in one vectorized
pass per batch.

**Fault tolerance.**  Workers are supervised
(:mod:`repro.runtime.supervise`): every collect-side wait is
process-sentinel-aware and deadline-bounded, so a dead worker raises a
*crash* immediately and a silent one becomes a *wedge* when the
configured deadline lapses (the parent kills it) — never an indefinite
block.  Recovery leans on the snapshot-at-submission protocol: lost
in-flight batches are *replayed* on a respawned replica (the pinned
log prefix plus the immutable parent-owned request block make the
replay bitwise-identical, a re-send rather than a re-encode), a batch
that kills its worker twice is *poison* and classified in-process, and
once a worker's restart budget runs out its traffic degrades to the
surviving workers or to an in-process replica — results and flow-stats
deltas identical either way.  A parent-side block registry (fed by
pre-creation announcements) unlinks crashed workers' response rings,
and each worker watches its parent's pid so an orphaned fleet exits
instead of idling forever.  :mod:`repro.runtime.faults` injects
deterministic crashes/hangs into all of this for chaos tests.

Workers are spawned lazily on the first batch (``fork`` start method
when available) and torn down via :meth:`close` / context-manager exit.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.architecture import MultiTableLookupArchitecture
from repro.core.config import ArchitectureConfig, DEFAULT_CONFIG
from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.flow import FlowEntry
from repro.openflow.match import Match
from repro.openflow.pipeline import MissPolicy, OpenFlowPipeline, PipelineResult
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime.batch import BatchPipeline, BatchStats
from repro.runtime.cache import DEFAULT_CAPACITY
from repro.runtime.faults import FaultPlan
from repro.runtime.lifecycle import (
    FlowRemoved,
    LifecycleSweeper,
    VirtualClock,
)
from repro.runtime.protocol import (
    AddMutation,
    BlockAnnounce,
    ByeReply,
    CloseRequest,
    ExpireMutation,
    InlineReply,
    Mutation,
    RemoveMutation,
    ShmReply,
    ShmRequest,
)
from repro.runtime.rulestate import (
    SharedRuleLayout,
    SharedRuleState,
    attach_shared_tables,
)
from repro.runtime.supervise import (
    PoisonBatchError,
    SupervisionConfig,
    WorkerCrashError,
    WorkerSupervisor,
    await_readable,
)
from repro.runtime.transport import (
    BlockAttachments,
    BlockReader,
    BlockWriter,
    EntryIndex,
    FlowStatsDelta,
    PacketBlockCodec,
    SharedBlock,
    decode_results,
    encode_outcomes,
    encode_results,
    ensure_resource_tracker,
    unlink_segment,
)

# ----------------------------------------------------------------------
# picklable pipeline snapshots
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableSpec:
    """Picklable snapshot of one flow table (schema + entries)."""

    kind: str  # "lookup" | "flow"
    table_id: int
    field_names: tuple[str, ...] | None
    entries: tuple[FlowEntry, ...]
    max_entries: int | None = None

    @classmethod
    def snapshot(cls, table: Any) -> TableSpec:
        if isinstance(table, OpenFlowLookupTable):
            return cls(
                kind="lookup",
                table_id=table.table_id,
                field_names=tuple(table.field_names),
                entries=tuple(table),
            )
        return cls(
            kind="flow",
            table_id=table.table_id,
            field_names=None,
            entries=tuple(table),
            max_entries=getattr(table, "max_entries", None),
        )

    def build(self, config: ArchitectureConfig) -> Any:
        if self.kind == "lookup":
            assert self.field_names is not None
            table = OpenFlowLookupTable(
                self.field_names, table_id=self.table_id, config=config
            )
        else:
            table = FlowTable(
                table_id=self.table_id, max_entries=self.max_entries
            )
        for entry in self.entries:
            table.add(entry)
        return table


@dataclass(frozen=True)
class PipelineSpec:
    """Picklable snapshot of a whole pipeline, for worker replicas.

    With ``shared`` set (a :class:`~repro.runtime.rulestate.SharedRuleLayout`
    minted by ``SharedRuleState.seal``), the lookup tables' entry tuples
    are stripped — the entries live in the sealed shared-memory block —
    and :meth:`build` *attaches* frozen replicas instead of replaying
    O(rules) adds per worker.
    """

    tables: tuple[TableSpec, ...]
    config: ArchitectureConfig
    miss_policy: str
    architecture: bool
    shared: SharedRuleLayout | None = None

    @classmethod
    def snapshot(cls, pipeline: OpenFlowPipeline) -> PipelineSpec:
        return cls(
            tables=tuple(TableSpec.snapshot(t) for t in pipeline.tables),
            config=getattr(pipeline, "config", DEFAULT_CONFIG),
            miss_policy=pipeline.miss_policy.value,
            architecture=isinstance(pipeline, MultiTableLookupArchitecture),
        )

    def build(self) -> OpenFlowPipeline:
        if self.shared is not None:
            tables = attach_shared_tables(self)
        else:
            tables = [spec.build(self.config) for spec in self.tables]
        if self.architecture:
            return MultiTableLookupArchitecture(tables, config=self.config)
        return OpenFlowPipeline(
            tables=tables, miss_policy=MissPolicy(self.miss_policy)
        )


# ----------------------------------------------------------------------
# mutation-logging facade
# ----------------------------------------------------------------------


class _LoggedTable:
    """Forwards mutations to the authoritative table and logs them.

    Each mutation holds the runner's lock across the table apply *and*
    the log append, and the batch prologue takes the same lock around
    its log-length + entry-order snapshot — so a flow-mod from another
    thread is either entirely before a batch (in its log prefix and its
    pinned order) or entirely after it, never half-visible.
    """

    def __init__(
        self, table: Any, log: list[Mutation], lock: threading.Lock
    ) -> None:
        self._table = table
        self._log = log
        self._lock = lock

    def add(self, entry: FlowEntry) -> None:
        with self._lock:
            self._table.add(entry)
            self._log.append(AddMutation("add", self._table.table_id, entry))

    def remove(self, match: Match, priority: int) -> bool:
        with self._lock:
            removed = self._table.remove(match, priority)
            if removed:
                self._log.append(
                    RemoveMutation(
                        "remove", self._table.table_id, match, priority
                    )
                )
            return removed

    def expire(self, match: Match, priority: int) -> bool:
        """Remove an entry the lifecycle sweep timed out, logging it as
        an :class:`~repro.runtime.protocol.ExpireMutation` so workers
        (and replay recovery) apply the identical removal without ever
        consulting a clock."""
        with self._lock:
            removed = self._table.remove(match, priority)
            if removed:
                self._log.append(
                    ExpireMutation(
                        "expire", self._table.table_id, match, priority
                    )
                )
            return removed

    def remove_where(self, predicate: Callable[[FlowEntry], bool]) -> int:
        # Predicates don't pickle; expand to the concrete removals so the
        # log stays replayable on the workers.
        doomed = [e for e in self._table if predicate(e)]
        for entry in doomed:
            self.remove(entry.match, entry.priority)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self._table)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._table, name)


class _LoggedPipeline:
    """``pipeline``-shaped facade whose mutations reach the log."""

    def __init__(
        self,
        pipeline: OpenFlowPipeline,
        log: list[Mutation],
        lock: threading.Lock,
    ) -> None:
        self._pipeline = pipeline
        self._log = log
        self._lock = lock

    def table(self, table_id: int) -> _LoggedTable:
        return _LoggedTable(
            self._pipeline.table(table_id), self._log, self._lock
        )

    @property
    def tables(self) -> list[_LoggedTable]:
        return [self.table(t.table_id) for t in self._pipeline.tables]

    def install(self, table_id: int, entry: FlowEntry) -> None:
        with self._lock:
            self._pipeline.install(table_id, entry)
            self._log.append(AddMutation("add", table_id, entry))

    def __len__(self) -> int:
        return len(self._pipeline)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pipeline, name)


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _apply_mutations(
    pipeline: OpenFlowPipeline, mutations: Sequence[Mutation]
) -> None:
    for mutation in mutations:
        if isinstance(mutation, AddMutation):
            pipeline.table(mutation.table_id).add(mutation.entry)
        elif isinstance(mutation, (RemoveMutation, ExpireMutation)):
            # Expiry is just a removal here: the parent's sweep already
            # decided it, so workers stay clock-free.
            pipeline.table(mutation.table_id).remove(
                mutation.match, mutation.priority
            )
        else:  # pragma: no cover - parent only emits the three kinds
            raise ValueError(f"unknown mutation kind {mutation[0]!r}")


def _serve_shm(
    runner: BatchPipeline,
    index: EntryIndex,
    codec: PacketBlockCodec,
    request_blocks: BlockAttachments,
    response: SharedBlock,
    message: ShmRequest,
    conn: mp_connection.Connection,
    faults: FaultPlan,
    worker_id: int,
) -> ShmReply:
    # All numpy views over the shared blocks are confined to this frame
    # (codec.attach gathers copies): they must be garbage before close()
    # can unmap the segments.
    _, seq, slot, mutations, block_name, segments, layout, members_key, (
        columnar
    ), bypass = message
    faults.fire(worker_id, seq, "after-receive")
    _apply_mutations(runner.pipeline, mutations)
    faults.fire(worker_id, seq, "mid-classify")
    runner.megaflow_bypass = bypass
    reader = BlockReader(request_blocks.buf(block_name), segments)
    writer = BlockWriter()
    if columnar:
        # Decode-free: classify straight off the block's columns; only
        # rows that miss both cache tiers are ever materialised as
        # dicts, and megaflow hits are encoded from their templates.
        batch = codec.attach(reader, layout, reader.get(members_key))
        outcomes = runner.classify_columnar(batch)
        result_layout, vocabulary, delta = encode_outcomes(
            writer, outcomes, index
        )
    else:
        packets = codec.decode(reader, layout, reader.get(members_key))
        results = runner.process_batch(packets)
        result_layout, vocabulary, delta = encode_results(
            writer, results, index, packets
        )
    runner.megaflow_bypass = False
    faults.fire(worker_id, seq, "after-stats")
    # Announce-before-create: the parent's crash registry must know the
    # segment name before the segment can exist, so a death at any
    # point leaves nothing unlinked-but-unknown.
    planned = response.plan(writer.nbytes)
    if planned is not None:
        conn.send(BlockAnnounce("block", slot, planned))
    response.ensure(writer.nbytes)
    response_segments = writer.write_to(response.buf)
    reply = ShmReply(
        "ok",
        response.name,
        response_segments,
        result_layout,
        vocabulary,
        _mask_fields(runner),
        runner.stats_snapshot(),
        delta,
    )
    faults.fire(worker_id, seq, "before-reply")
    return reply


#: How often an idle worker checks that its parent is still alive.
#: With the ``fork`` start method, sibling workers inherit each other's
#: pipe write-ends, so a SIGKILLed parent produces *no* EOF — the pid
#: watch is the only orphan signal that always fires.
_PARENT_POLL_INTERVAL = 0.2


def _worker_main(
    conn: mp_connection.Connection,
    spec: PipelineSpec,
    cache_capacity: int | None,
    megaflow_capacity: int | None,
    depth: int,
    worker_id: int = 0,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Worker loop: apply log suffix, classify sub-batch, reply.

    Each ``("shm", seq, slot, ...)`` request is answered with a
    :class:`ShmReply` carrying the worker's megaflow mask fields, its
    stats snapshot and the batch's flow-stats delta.

    The worker owns a ring of ``depth`` response blocks, indexed by the
    ``slot`` each shm message names.  The parent never keeps more than
    ``depth`` batches in flight and decodes a reply before reusing its
    slot, so writing response ``slot`` here cannot race a parent-side
    read of the reply ``depth`` batches ago that last used it.

    Response blocks use announced deterministic names
    (``reproshard<pid>s<slot>``): each creation is preceded by a
    :class:`BlockAnnounce` on the pipe, so the parent can unlink this
    worker's segments even after a SIGKILL (the in-process finalize
    guards die with the worker).

    The receive loop polls rather than blocks so it can watch the
    parent's pid between messages: under ``fork``, sibling workers keep
    each other's pipe write-ends open, so parent death never surfaces
    as EOF here — without the watch, a SIGKILLed parent would leave the
    whole fleet idling forever.
    """
    faults = fault_plan if fault_plan is not None else FaultPlan()
    runner = BatchPipeline(
        spec.build(),
        cache_capacity=cache_capacity,
        megaflow_capacity=megaflow_capacity,
    )
    index = EntryIndex(runner.pipeline)
    codec = PacketBlockCodec()
    request_blocks = BlockAttachments()
    responses = [
        SharedBlock(name_prefix=f"reproshard{os.getpid()}s{slot}")
        for slot in range(depth)
    ]
    parent_pid = os.getppid()

    def shutdown() -> None:
        request_blocks.close()
        for response in responses:
            response.close()

    try:
        while True:
            while not conn.poll(_PARENT_POLL_INTERVAL):
                if os.getppid() != parent_pid:  # orphaned: parent died
                    shutdown()
                    return
            message = conn.recv()
            kind = message[0]
            if kind == "shm":
                conn.send(
                    _serve_shm(
                        runner,
                        index,
                        codec,
                        request_blocks,
                        responses[message[2]],
                        message,
                        conn,
                        faults,
                        worker_id,
                    )
                )
            elif kind == "close":
                shutdown()
                conn.send(ByeReply("bye"))
                return
    except (EOFError, KeyboardInterrupt):  # parent went away
        shutdown()
        return


def _mask_fields(runner: BatchPipeline) -> tuple[str, ...]:
    return (
        runner.megaflow.mask_fields() if runner.megaflow is not None else ()
    )


def _stable_hash(items: tuple) -> int:
    """Process-independent FNV-1a over the key's repr (``hash()`` is
    salted per interpreter; sharding should be reproducible)."""
    h = 0xCBF29CE484222325
    for byte in repr(items).encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# ----------------------------------------------------------------------
# the sharded runner
# ----------------------------------------------------------------------


@dataclass
class _InFlight:
    """One submitted-but-not-collected batch: everything :meth:`collect`
    needs to resolve its replies against the table state it was
    classified under.

    ``sends`` keeps each worker's request message as a template (with
    an empty mutation suffix): request blocks are parent-owned and
    immutable in flight, so recovering a dead worker re-*sends* the
    template — with the suffix recomputed from the replacement's fresh
    log cursor — instead of re-encoding anything.
    """

    seq: int
    batch: Sequence[Mapping[str, int]]
    groups: dict[int, list[int]]
    pinned: Mapping[int, tuple]
    log_len: int
    sends: dict[int, ShmRequest] = field(default_factory=dict)
    #: Megaflow-bypass flag the batch was submitted with; the degraded
    #: inline path reads it here (live workers read it off the wire).
    bypass: bool = False


class _WorkerDied(Exception):
    """Internal signal: a worker failed while the parent waited on it.

    ``kind`` carries the taxonomy bucket — ``"crash"`` (sentinel fired
    or the pipe broke) or ``"wedge"`` (the supervision deadline lapsed
    without progress).  Always caught by the recovery layer; never
    escapes the runner.
    """

    def __init__(self, worker: int, kind: str) -> None:
        super().__init__(f"worker {worker} {kind}")
        self.worker = worker
        self.kind = kind


class ShardedBatchPipeline:
    """Drop-in ``process_batch`` runner fanning batches across workers.

    Args:
        pipeline: the authoritative pipeline.  Snapshot once at
            construction; afterwards mutate **only** through
            :attr:`pipeline` (the logging facade) so replicas catch up.
        workers: process count (default: ``os.cpu_count()``).
        cache_capacity / megaflow_capacity: per-worker cache stack, as
            in :class:`BatchPipeline`.
        shard_fields: optional explicit field names to hash on; when
            omitted, sharding starts on the full field tuple and
            converges onto the megaflow-consulted union the workers
            report.
        depth: maximum batches in flight (submitted, not yet collected).
            ``depth >= 2`` double-buffers the transport: the parent
            encodes and dispatches batch N+1 while the workers are still
            classifying batch N (each direction keeps a ring of
            ``depth`` shared blocks, so an in-flight batch's columns are
            never overwritten).  ``depth=1`` is lockstep.
            :meth:`process_batch` is always lockstep;
            :meth:`process_batches` (and
            :func:`~repro.runtime.batch.run_workload`, which calls it)
            exploit the ring.

            Pipelining is safe because control messages (block names,
            layouts, member keys) are small by construction: a request
            and a reply each larger than the pipe buffer would leave the
            parent blocked sending batch N+1 while the worker blocks
            sending batch N's reply.  The one unbounded rider — the
            mutation-log suffix — is bounded by
            :data:`MAX_PIPELINED_MUTATION_BACKLOG`: past it, the stream
            drains in flight before submitting (and
            :meth:`submit_batch` raises), so a big suffix is only ever
            written into empty pipes with the workers parked in recv.
        supervision: failure policy (see
            :class:`~repro.runtime.supervise.SupervisionConfig`): wedge
            deadline, restart budget per worker, and the degraded mode
            (``inline`` / ``redistribute`` / ``raise``) once the budget
            is spent.  The default supervises crashes with two respawns
            per worker and inline fallback; wedge detection arms when a
            ``deadline`` is set.
        fault_plan: deterministic fault injection for chaos tests (see
            :mod:`repro.runtime.faults`); threaded through worker spawn
            and pruned on respawn so a non-sticky fault fires exactly
            once.
    """

    def __init__(
        self,
        pipeline: OpenFlowPipeline,
        workers: int | None = None,
        cache_capacity: int | None = DEFAULT_CAPACITY,
        megaflow_capacity: int | None = None,
        shard_fields: Sequence[str] | None = None,
        depth: int = 2,
        supervision: SupervisionConfig | None = None,
        fault_plan: FaultPlan | None = None,
        shared_rules: bool = False,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if depth < 1:
            raise ValueError(f"pipeline depth must be positive, got {depth}")
        self.workers = workers or max(1, os.cpu_count() or 1)
        self.depth = depth
        self._authoritative = pipeline
        self._log: list[Mutation] = []
        self._mutation_lock = threading.Lock()
        self.pipeline = _LoggedPipeline(
            pipeline, self._log, self._mutation_lock
        )
        self._spec = PipelineSpec.snapshot(pipeline)
        #: Shared read-only rule state (see runtime/rulestate.py): the
        #: static lookup structures are sealed into one shared-memory
        #: block and workers attach instead of rebuilding O(rules)
        #: replicas.  Sealed eagerly at the end of construction so the
        #: first spawn is already O(1)-per-worker; re-sealed at log fold
        #: points.
        self._shared_rules = shared_rules
        self._rule_state: SharedRuleState | None = None
        self._cache_capacity = cache_capacity
        self._megaflow_capacity = megaflow_capacity
        self._shard_fields = tuple(shard_fields) if shard_fields else None
        self._learned_fields: set[str] = set()
        self._cursors = [0] * self.workers
        self._worker_stats = [BatchStats() for _ in range(self.workers)]
        self._conns: list = []
        self._procs: list = []
        self._codec = PacketBlockCodec()
        self._entry_index = EntryIndex(pipeline)
        #: Request-block ring: slot ``seq % depth`` carries batch
        #: ``seq``'s columns, reused only after that batch is collected.
        self._requests = [SharedBlock() for _ in range(depth)]
        self._responses = BlockAttachments()
        #: In-flight batches by seq, plus their submission order (the
        #: default FIFO collect cadence) — a dict, not a queue, so
        #: :meth:`collect_batch` can complete any seq out of order.
        self._inflight: dict[int, _InFlight] = {}
        self._order: deque[int] = deque()
        #: Per worker, the seqs whose replies will arrive on its pipe,
        #: in arrival order; replies drained while waiting for another
        #: seq park in ``_reply_buffer`` keyed ``(seq, worker)``.
        self._worker_pending: list[deque[int]] = [
            deque() for _ in range(self.workers)
        ]
        self._reply_buffer: dict[tuple[int, int], tuple] = {}
        self._seq = 0
        self._supervisor = WorkerSupervisor(
            workers=self.workers,
            config=supervision if supervision is not None else SupervisionConfig(),
        )
        self._fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self._mp_ctx: Any = None
        #: Parent-side replica for degraded (inline) classification:
        #: built lazily from the current spec and advanced along the
        #: mutation log exactly like a worker would be.
        self._inline_runner: BatchPipeline | None = None
        self._inline_index: EntryIndex | None = None
        self._inline_cursor = 0
        #: True while a process_batches() stream is live; guards against
        #: a second stream (or lockstep call) interleaving on the shared
        #: in-flight queue and mislabeling results.
        self._streaming = False
        self.packets = 0
        self.batches = 0
        self.matched = 0
        self.sent_to_controller = 0
        self.dropped = 0
        #: Flow-stats deltas merged back from the workers.
        self.flow_packets = 0
        self.flow_bytes = 0
        #: Parent-owned lifecycle: the sweep runs over the authoritative
        #: tables only; workers learn of expiries via the mutation log.
        self.lifecycle = LifecycleSweeper()
        if shared_rules:
            self._seal_rules()

    # -- lifecycle -----------------------------------------------------

    def _spawn_worker(
        self, worker: int
    ) -> tuple[mp_connection.Connection, Any]:
        parent_conn, child_conn = self._mp_ctx.Pipe()
        proc = self._mp_ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._spec,
                self._cache_capacity,
                self._megaflow_capacity,
                self.depth,
                worker,
                self._fault_plan,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    def _seal_rules(self) -> None:
        """(Re)seal the shared rule snapshot before spawning a fleet.

        Only legal with no live workers and nothing in flight: folding
        the mutation log into a fresh spec is then equivalent to every
        worker having replayed it, so cursors rewind to zero and the
        sealed block *is* the log-position-zero state the next fleet
        attaches to.  A still-current seal (no mutations since) is kept.
        """
        assert not self._procs and not self._inflight
        with self._mutation_lock:
            if self._rule_state is not None and not self._log:
                return
            if self._rule_state is not None:
                self._rule_state.close()
                self._rule_state = None
            base = PipelineSpec.snapshot(self._authoritative)
            self._log.clear()
            self._cursors = [0] * self.workers
            self._inline_runner = None
            self._inline_index = None
            self._inline_cursor = 0
            self._rule_state = SharedRuleState.seal(self._authoritative, base)
            self._spec = self._rule_state.spec

    def _ensure_started(self) -> None:
        if self._procs:
            return
        # One resource tracker shared with the forked workers keeps
        # shared-memory accounting warning-free (see transport module).
        ensure_resource_tracker()
        if self._shared_rules:
            # Covers respawn-after-close(): close() released the sealed
            # block, so the stale spec must be re-sealed (folding any
            # mutations logged in between) before workers can attach.
            self._seal_rules()
        if self._mp_ctx is None:
            method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            self._mp_ctx = mp.get_context(method)
        for worker in range(self.workers):
            conn, proc = self._spawn_worker(worker)
            self._conns.append(conn)
            self._procs.append(proc)

    #: Longest close() waits for one worker's orderly Bye before
    #: escalating to SIGKILL.
    CLOSE_TIMEOUT = 5.0

    def _shutdown_worker(self, worker: int) -> None:
        """Orderly close of one worker, escalating to a kill.

        The Bye wait is sentinel-aware and deadline-bounded like every
        other parent-side wait: a worker that died (or wedged) during
        shutdown cannot park ``close()``.
        """
        conn, proc = self._conns[worker], self._procs[worker]
        try:
            conn.send(CloseRequest("close"))
            deadline = time.monotonic() + self.CLOSE_TIMEOUT  # repro-lint: disable=wall-clock-ban
            while True:
                remaining = deadline - time.monotonic()  # repro-lint: disable=wall-clock-ban
                if remaining <= 0:
                    break
                ready = mp_connection.wait([conn, proc.sentinel], remaining)
                if conn not in ready and not conn.poll(0):
                    break  # timeout, or sentinel fired with a dry pipe
                message = conn.recv()
                if message[0] == "block":
                    self._supervisor.register_block(worker, message[2])
                elif message[0] == "bye":
                    break
        except (BrokenPipeError, EOFError, ConnectionResetError, OSError):
            pass
        conn.close()
        proc.join(timeout=self.CLOSE_TIMEOUT)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.kill()
            proc.join(timeout=self.CLOSE_TIMEOUT)

    def close(self) -> None:
        """Shut every worker down (idempotent).

        The runner stays usable: a later ``process_batch`` respawns
        workers from the construction-time snapshot, so the log cursors
        rewind to zero — fresh replicas must replay the *entire*
        mutation log to catch back up.  Degraded workers are forgiven
        on close (the respawned fleet is whole again); cumulative
        supervision stats survive for reporting.
        """
        while self._inflight:  # drain replies before tearing blocks down
            try:
                self._collect()
            except (EOFError, OSError, AssertionError, WorkerCrashError):
                self._inflight.clear()
                self._order.clear()
        for worker in range(len(self._procs)):
            self._shutdown_worker(worker)
        self._conns = []
        self._procs = []
        self._cursors = [0] * self.workers
        self._worker_stats = [BatchStats() for _ in range(self.workers)]
        self._worker_pending = [deque() for _ in range(self.workers)]
        self._reply_buffer.clear()
        self._responses.close()
        for request in self._requests:
            request.close()
        # A worker that exited cleanly already unlinked its response
        # ring (these unlink as no-ops); one that was killed on the
        # defensive path above did not — the announce registry is the
        # only record of its segments.
        for worker in range(self.workers):
            for name in self._supervisor.drain_blocks(worker):
                unlink_segment(name)
        self._supervisor.reset()
        self._inline_runner = None
        self._inline_index = None
        self._inline_cursor = 0
        # Release the sealed rule block (zero /dev/shm residue after
        # close).  The spec goes stale with it; the next _ensure_started
        # re-seals from the authoritative tables before spawning.
        if self._rule_state is not None:
            self._rule_state.close()
            self._rule_state = None
        # Recovery path for a stream that was created but abandoned
        # before its first iteration (the generator's finally never ran).
        self._streaming = False

    def __enter__(self) -> ShardedBatchPipeline:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    # -- sharding ------------------------------------------------------

    def shard_of(self, packet_fields: Mapping[str, int]) -> int:
        """Worker index for a packet, by megaflow-key hash."""
        names = self._shard_fields
        if names is None and self._learned_fields:
            names = tuple(sorted(self._learned_fields))
        if names:
            key = tuple((n, packet_fields.get(n)) for n in names)
        else:
            # frame_len is switch metadata: per-packet length
            # distributions must not scatter a flow across workers.
            key = tuple(
                sorted(
                    item
                    for item in packet_fields.items()
                    if item[0] != FRAME_LEN_FIELD
                )
            )
        return _stable_hash(key) % self.workers

    def _shard_groups(
        self, batch: Sequence[Mapping[str, int]] | PacketBatch
    ) -> dict[int, list[int]]:
        """Positions per worker for one batch.

        Columnar batches assign workers with one vectorized hash pass
        over the shard fields' lanes (per distinct row, fanned out by
        ``pick``); the hash differs from the dict path's — sharding
        steers only cache locality, never results — but is equally
        stable per key, so an aggregate's packets still converge on one
        worker.
        """
        groups: dict[int, list[int]] = {}
        if isinstance(batch, PacketBatch):
            names = self._shard_fields
            if names is None and self._learned_fields:
                names = tuple(sorted(self._learned_fields))
            if not names:
                # Cold-start fallback: all columns except frame_len —
                # per-packet length distributions (imix/pareto) would
                # otherwise scatter one flow's packets across workers.
                names = tuple(
                    sorted(
                        name
                        for name in batch.field_names()
                        if name != FRAME_LEN_FIELD
                    )
                )
            hashes = batch.key_hashes(names)
            workers = (hashes % np.uint64(self.workers)).astype(np.int64)
            for i, worker in enumerate(workers[batch.pick].tolist()):
                groups.setdefault(worker, []).append(i)
        else:
            for i, fields in enumerate(batch):
                groups.setdefault(self.shard_of(fields), []).append(i)
        if self._supervisor.disabled:
            groups = self._reroute(groups)
        return groups

    def _reroute(self, groups: dict[int, list[int]]) -> dict[int, list[int]]:
        """Degraded routing: a permanently-disabled shard's members go
        to the survivors (``fallback="redistribute"``) or stay grouped
        under the dead worker for in-process classification at submit
        (``fallback="inline"``, or no survivors left).  Either way the
        members classify at the same pinned log position, so results
        stay identical — routing only moves cache locality."""
        if self._supervisor.config.fallback != "redistribute":
            return groups
        survivors = [
            w for w in range(self.workers)
            if w not in self._supervisor.disabled
        ]
        if not survivors:
            return groups
        rerouted: dict[int, list[int]] = {}
        for worker, members in groups.items():
            if worker in self._supervisor.disabled:
                worker = survivors[worker % len(survivors)]
            rerouted.setdefault(worker, []).extend(members)
        for members in rerouted.values():
            members.sort()
        return rerouted

    # -- classification ------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        """The parent's virtual clock; workers never see one."""
        return self.lifecycle.clock

    @property
    def flow_removed(self) -> list[FlowRemoved]:
        """Parent-side ledger of every expiry swept so far, in order."""
        return self.lifecycle.ledger

    def advance_clock(self, dt: int) -> list[FlowRemoved]:
        """Advance virtual time and expire timed-out entries.

        The sweep reads the *authoritative* tables (whose flow counters
        hold every merged worker delta) and routes each removal through
        the logged facade as an
        :class:`~repro.runtime.protocol.ExpireMutation`, so workers,
        replay recovery and the inline fallback all reconstruct the
        identical post-expiry state from the log.  Refuses to run with
        batches in flight — their un-merged deltas would make the idle
        detection (and flow-removed final counters) racy; workload
        replay always drains each packet event first.
        """
        self._guard_idle("advance_clock")
        return self.lifecycle.advance(
            self._authoritative,
            dt,
            remove=lambda table_id, match, priority: self.pipeline.table(
                table_id
            ).expire(match, priority),
        )

    def process(self, packet_fields: Mapping[str, int]) -> PipelineResult:
        return self.process_batch([packet_fields])[0]

    def process_batch(
        self, batch: Sequence[Mapping[str, int]]
    ) -> list[PipelineResult]:
        """Classify a batch across the workers; results in input order,
        bitwise-identical to the single-process :class:`BatchPipeline`.

        Lockstep: submits the batch and collects its replies before
        returning.  Refuses to run while :meth:`submit_batch` batches
        are in flight (draining them here would have to throw their
        results away silently; collect them first) or while a
        :meth:`process_batches` stream is live."""
        self._guard_idle("process_batch")
        if not self._submit(batch):
            return []
        return self._collect()

    def _guard_idle(self, caller: str) -> None:
        if self._streaming:
            raise RuntimeError(
                f"a process_batches() stream is live; exhaust or close "
                f"it before {caller}()"
            )
        if self._inflight:
            raise RuntimeError(
                f"{len(self._inflight)} submitted batches in flight; "
                f"collect_batch() their results before {caller}()"
            )

    def process_batches(
        self, batches: Iterable[Sequence[Mapping[str, int]]]
    ) -> Iterator[list[PipelineResult]]:
        """Pipelined classification of a stream of batches.

        Keeps up to :attr:`depth` batches in flight: batch N+1 is
        encoded into its own ring slot and dispatched while the workers
        are still classifying batch N, then replies are collected in
        submission order — the encode/classify overlap the lockstep
        :meth:`process_batch` round-trip serialises away.  A generator:
        yields one result list per input batch, in order, each
        bitwise-identical to the single-process runner's, as soon as it
        lands — memory stays O(depth x batch), never O(stream), so
        million-packet events replay without materialising their
        results.

        Like :meth:`process_batch`, refuses to start while
        :meth:`submit_batch` batches are outstanding (their results
        would otherwise be yielded as — and mislabeled as — the new
        stream's first entries) or while another stream is live: two
        streams interleaving on the shared FIFO would silently swap
        results between them.
        """
        self._guard_idle("process_batches")
        self._streaming = True
        return self._stream(batches)

    #: Mutation-log suffixes ride inside the "small" control messages,
    #: but churn can make them arbitrarily large.  Beyond this many
    #: outstanding mutations for the laggiest worker, the stream drains
    #: in flight before submitting — with empty pipes the worker is
    #: parked in recv and consumes the big message as it is written, so
    #: the send-while-reply-blocked deadlock window never opens.  128
    #: pickled FlowEntries sit comfortably under a 64 KiB pipe buffer.
    MAX_PIPELINED_MUTATION_BACKLOG = 128

    def _mutation_backlog(self) -> int:
        log_len = len(self._log)
        live = [
            cursor
            for worker, cursor in enumerate(self._cursors)
            if worker not in self._supervisor.disabled
        ]
        return log_len - min(live, default=log_len)

    def _stream(
        self, batches: Iterable[Sequence[Mapping[str, int]]]
    ) -> Iterator[list[PipelineResult]]:
        try:
            for batch in batches:
                # The backlog is re-read on every loop pass: the
                # consumer (or a mutator thread) can grow the log while
                # the generator is suspended at a drain yield, and a
                # stale reading would submit a giant suffix into pipes
                # still carrying in-flight replies.
                while self._inflight and (
                    len(self._inflight) >= self.depth
                    or self._mutation_backlog()
                    > self.MAX_PIPELINED_MUTATION_BACKLOG
                ):
                    yield self._collect()
                if not self._submit(batch):
                    # Empty batches produce empty results but occupy no
                    # ring slot (there is nothing for a worker to do);
                    # splice the placeholder in once the preceding
                    # batches land.
                    while self._inflight:
                        yield self._collect()
                    yield []
            while self._inflight:
                yield self._collect()
        finally:
            self._streaming = False

    def submit_batch(
        self,
        batch: Sequence[Mapping[str, int]],
        *,
        megaflow_bypass: bool = False,
    ) -> int:
        """Dispatch one non-empty batch without waiting for its results;
        returns its ``seq`` (collect with :meth:`collect_batch` — FIFO
        by default, or by ``seq`` in any order — or :meth:`collect_any`).
        Never blocks or collects internally: submitting beyond
        :attr:`depth` raises, so callers own the collect cadence
        explicitly — and an empty batch raises rather than silently
        occupying no slot and skewing the submit/collect pairing.  Also
        raises when an out-of-order collect left the new batch's ring
        slot occupied (slot ``seq % depth`` is reused only after its
        previous occupant was collected), or when the mutation backlog
        has outgrown what can safely share the pipe with in-flight
        replies (see :data:`MAX_PIPELINED_MUTATION_BACKLOG`): collect
        first, then resubmit."""
        if not batch:
            raise ValueError(
                "cannot submit an empty batch (it would occupy no ring "
                "slot and break the submit/collect pairing)"
            )
        if self._streaming:
            raise RuntimeError(
                "a process_batches() stream is live; exhaust or close "
                "it before submit_batch()"
            )
        if len(self._inflight) >= self.depth:
            raise RuntimeError(
                f"{len(self._inflight)} batches already in flight "
                f"(depth={self.depth}); collect_batch() first"
            )
        slot = self._seq % self.depth
        stuck = [s for s in self._inflight if s % self.depth == slot]
        if stuck:
            raise RuntimeError(
                f"batch seq {stuck[0]} still occupies ring slot {slot}; "
                "collect it before submitting another batch on that slot"
            )
        if self._inflight and (
            self._mutation_backlog() > self.MAX_PIPELINED_MUTATION_BACKLOG
        ):
            raise RuntimeError(
                f"mutation backlog ({self._mutation_backlog()}) too large "
                "to pipeline safely alongside in-flight replies; "
                "collect_batch() first"
            )
        seq = self._seq
        self._submit(batch, bypass=megaflow_bypass)
        return seq

    def collect_batch(self, seq: int | None = None) -> list[PipelineResult]:
        """Results of one in-flight batch — the oldest by default, or
        the given ``seq`` in any order; raises when it is not in flight.

        Collection by ``seq`` never blocks on workers that batch did not
        touch: replies from other in-flight batches arriving first are
        parked (per-worker pipes deliver in submission order) and handed
        out when their own batch is collected — so a slow shard stalls
        only the batches actually assigned to it.
        """
        if seq is None:
            if not self._order:
                raise RuntimeError("no batch in flight")
            seq = self._order[0]
        elif seq not in self._inflight:
            raise RuntimeError(f"batch seq {seq} is not in flight")
        return self._collect(seq)

    def collect_any(self) -> tuple[int, list[PipelineResult]]:
        """``(seq, results)`` of the first in-flight batch able to
        complete, regardless of submission order.

        Waits on every worker pipe carrying outstanding replies *plus*
        each worker's process sentinel
        (``multiprocessing.connection.wait``), parking each arrival
        until some batch has all of its shards' replies — so a stalled
        shard delays only its own batches while faster shards' batches
        keep completing.  A dead worker is recovered on the spot
        (respawn + replay, or degraded fallback); with a supervision
        deadline configured, a wait that makes no progress past it
        declares the laggiest worker wedged and escalates, so this
        never blocks indefinitely.
        """
        if not self._inflight:
            raise RuntimeError("no batch in flight")
        config = self._supervisor.config
        started = time.monotonic()  # repro-lint: disable=wall-clock-ban
        interval = config.initial_interval
        while True:
            for seq in self._order:
                groups = self._inflight[seq].groups
                if all(
                    (seq, worker) in self._reply_buffer for worker in groups
                ):
                    return seq, self._collect(seq)
            waitables: dict[Any, int] = {}
            for worker in range(self.workers):
                if self._worker_pending[worker]:
                    waitables[self._conns[worker]] = worker
                    waitables[self._procs[worker].sentinel] = worker
            assert waitables, "incomplete batches but no replies pending"
            timeout: float | None = None
            if config.deadline is not None:
                elapsed = time.monotonic() - started  # repro-lint: disable=wall-clock-ban
                if elapsed >= config.deadline:
                    self._handle_failure(
                        self._oldest_pending_worker(), "wedge"
                    )
                    started = time.monotonic()  # repro-lint: disable=wall-clock-ban
                    interval = config.initial_interval
                    continue
                timeout = min(interval, config.deadline - elapsed)
                interval = min(interval * 2, config.max_interval)
            ready = mp_connection.wait(list(waitables), timeout)
            progressed = False
            for worker in dict.fromkeys(waitables[obj] for obj in ready):
                try:
                    if not self._conns[worker].poll(0):
                        # Sentinel fired with a dry pipe: a real death.
                        raise _WorkerDied(worker, "crash")
                    progressed |= self._absorb_one(worker)
                except _WorkerDied as died:
                    self._handle_failure(worker, died.kind)
                    progressed = True
            if progressed:
                started = time.monotonic()  # repro-lint: disable=wall-clock-ban
                interval = config.initial_interval

    def _oldest_pending_worker(self) -> int:
        """The wedge suspect: the worker owing the oldest-submitted
        outstanding reply (replies arrive in submission order, so its
        pending head is the globally most overdue one)."""
        owing = [w for w in range(self.workers) if self._worker_pending[w]]
        assert owing, "wedge escalation with no outstanding replies"
        return min(owing, key=lambda w: self._worker_pending[w][0])

    @property
    def in_flight(self) -> int:
        """Batches submitted but not yet collected."""
        return len(self._inflight)

    # -- dispatch/collect internals ------------------------------------

    def _submit(
        self, batch: Sequence[Mapping[str, int]], bypass: bool = False
    ) -> bool:
        """Encode, dispatch and register one batch; False when empty.

        ``bypass`` rides in every worker's request template (and the
        in-flight record for degraded shards), so replays after a crash
        skip — or keep — the megaflow tier exactly as the original
        submission asked."""
        assert len(self._inflight) < self.depth
        # _order mirrors _inflight one-to-one, so the same depth bound
        # caps it (the bounded-queue invariant for this deque).
        assert len(self._order) < self.depth
        assert all(
            seq % self.depth != self._seq % self.depth
            for seq in self._inflight
        ), "ring slot still occupied by an uncollected batch"
        self.packets += len(batch)
        self.batches += 1
        if not len(batch):
            return False
        self._ensure_started()
        # One atomic snapshot per *submitted* batch, under the mutation
        # lock: the log length (every worker catches up to the same
        # point) and the authoritative entry order (worker entry refs
        # resolve against this, not whatever the tables look like by
        # reply time).  Each in-flight batch carries its own snapshot
        # pair, so a mutation landing between two pipelined submissions
        # is visible to the second batch and not the first — exactly the
        # serial order a lockstep runner would have produced — and a
        # mutation landing while sub-batches are in flight defers
        # uniformly to the next submission.
        with self._mutation_lock:
            log_len = len(self._log)
            pinned = self._entry_index.pin()
        seq = self._seq
        groups = self._shard_groups(batch)
        sends = self._encode(seq, batch, groups, bypass)
        # Registered before dispatch: a send that trips over a corpse
        # recovers mid-submit, and recovery reads the in-flight record.
        self._inflight[seq] = _InFlight(
            seq=seq,
            batch=batch,
            groups=groups,
            pinned=pinned,
            log_len=log_len,
            sends=sends,
            bypass=bypass,
        )
        self._order.append(seq)
        self._seq += 1
        for worker in groups:
            if worker in self._supervisor.disabled:
                self._classify_inline(seq, worker)
            else:
                self._dispatch_or_recover(seq, worker)
        return True

    def _encode(
        self,
        seq: int,
        batch: Sequence[Mapping[str, int]] | PacketBatch,
        groups: Mapping[int, list[int]],
        bypass: bool = False,
    ) -> dict[int, ShmRequest]:
        """Encode the batch once into its ring slot; request templates
        (empty mutation suffix) per live worker."""
        live = [
            worker
            for worker in groups
            if worker not in self._supervisor.disabled
        ]
        if not live:
            return {}
        slot = seq % self.depth
        request = self._requests[slot]
        writer = BlockWriter()
        layout = self._codec.encode(writer, batch, "pkt")
        for worker in live:
            writer.put(
                f"members/{worker}",
                np.asarray(groups[worker], dtype=np.int64),
            )
        request.ensure(writer.nbytes)
        segments = writer.write_to(request.buf)
        # A batch submitted columnar is classified columnar: the worker
        # attaches to the block's columns in place (decode-free) instead
        # of materialising every member row up front.
        columnar = isinstance(batch, PacketBatch)
        return {
            worker: ShmRequest(
                "shm",
                seq,
                slot,
                (),
                request.name,
                segments,
                layout,
                f"members/{worker}",
                columnar,
                bypass,
            )
            for worker in live
        }

    def _dispatch(self, seq: int, worker: int) -> bool:
        """Send batch ``seq``'s template to ``worker`` with the log
        suffix recomputed from its current cursor; False when the pipe
        is already broken.  Serves first sends and replays alike — the
        template is immutable, only the suffix depends on the cursor."""
        inflight = self._inflight[seq]
        template = inflight.sends[worker]
        suffix = tuple(self._log[self._cursors[worker] : inflight.log_len])
        self._cursors[worker] = inflight.log_len
        try:
            self._conns[worker].send(template._replace(mutations=suffix))
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False
        return True

    def _dispatch_or_recover(self, seq: int, worker: int) -> None:
        """First send of ``seq`` to ``worker``; a corpse discovered at
        send time is recovered (respawn or degrade) before the batch is
        queued — possibly onto the in-process fallback."""
        while worker not in self._supervisor.disabled:
            if self._dispatch(seq, worker):
                # A worker owes at most one reply per in-flight batch,
                # so its pending deque is depth-bounded too.
                assert len(self._worker_pending[worker]) < self.depth
                self._worker_pending[worker].append(seq)
                return
            self._handle_failure(worker, "crash")
        self._classify_inline(seq, worker)

    def _take_reply(
        self, seq: int, worker: int
    ) -> ShmReply | InlineReply:
        """The reply ``worker`` sent for batch ``seq``.

        A worker's pipe delivers replies in the order its batches were
        submitted, so anything received while waiting belongs to an
        earlier-submitted (still in-flight) batch and is parked in the
        reply buffer for that batch's own collect.  A worker that died
        is recovered here: after a respawn-and-replay the loop resumes
        waiting on the replacement, after a degraded fallback the reply
        is already parked inline.
        """
        reply = self._reply_buffer.pop((seq, worker), None)
        while reply is None:
            try:
                self._recv_reply(worker)
            except _WorkerDied as died:
                self._handle_failure(worker, died.kind)
            reply = self._reply_buffer.pop((seq, worker), None)
        return reply

    def _recv_reply(self, worker: int) -> None:
        """Wait (sentinel-aware, deadline-bounded) for one reply from
        ``worker`` and park it; raises :class:`_WorkerDied` on a crash
        or deadline expiry."""
        while True:
            outcome = await_readable(
                self._conns[worker],
                self._procs[worker].sentinel,
                self._supervisor.config,
            )
            if outcome != "ready":
                raise _WorkerDied(worker, outcome)
            if self._absorb_one(worker):
                return

    def _absorb_one(self, worker: int) -> bool:
        """Receive one buffered message from ``worker``; True when it
        was a reply (now parked), False for a control rider (a block
        announcement).  The pipe must be readable."""
        conn = self._conns[worker]
        if not conn.poll(0):
            return False
        try:
            message = conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise _WorkerDied(worker, "crash") from exc
        if message[0] == "block":
            self._supervisor.register_block(worker, message[2])
            return False
        if message[0] == "ok":
            self._supervisor.register_block(worker, message[1])
        arrived = self._worker_pending[worker].popleft()
        self._reply_buffer[(arrived, worker)] = message
        return True

    def _collect(self, seq: int | None = None) -> list[PipelineResult]:
        """Receive, decode and merge one in-flight batch (oldest by
        default)."""
        if seq is None:
            seq = self._order[0]
        inflight = self._inflight[seq]
        batch, groups, pinned = inflight.batch, inflight.groups, inflight.pinned
        results: list[PipelineResult] = [None] * len(batch)  # type: ignore[list-item]
        for worker, members in groups.items():
            reply = self._take_reply(seq, worker)
            assert reply[0] in ("ok", "inline")
            if reply[0] == "inline":
                _, worker_results, stats, delta = reply
            else:
                worker_results, mask_fields, stats, delta = (
                    self._decode_reply(
                        reply, pinned, [batch[i] for i in members]
                    )
                )
                self._learned_fields.update(mask_fields)
            for i, result in zip(members, worker_results):
                results[i] = result
            self._worker_stats[worker] = stats
            merged_packets, merged_bytes = delta.apply(pinned)
            self.flow_packets += merged_packets
            self.flow_bytes += merged_bytes
        # Popped only after every reply landed: recovery during the
        # waits above re-reads this in-flight record to replay it.
        del self._inflight[seq]
        self._order.remove(seq)
        for result in results:
            self.matched += bool(result.matched_entries)
            self.sent_to_controller += result.sent_to_controller
            self.dropped += result.dropped
        self._maybe_prune_log(inflight.log_len)
        return results

    # -- failure recovery ----------------------------------------------

    def _handle_failure(self, worker: int, kind: str) -> None:
        """Recover one dead (or wedged) worker.

        In order: escalate a wedge to a kill; drain replies the worker
        delivered before dying (they are valid — replaying them would
        double-count flow stats); unlink every shm segment the corpse
        owned (its own finalize guards died with it); classify the
        failure against the poison ledger and the restart budget; then
        either respawn a replacement and deterministically replay every
        lost seq, or degrade the shard to in-process classification.
        """
        sup = self._supervisor
        proc = self._procs[worker]
        if kind == "wedge":
            proc.kill()  # deadline lapsed: escalate to termination
        sup.record_failure(worker, "wedge" if kind == "wedge" else "crash")
        proc.join(timeout=self.CLOSE_TIMEOUT)
        self._drain_dead_pipe(worker)
        self._conns[worker].close()
        # Replies parked before death still point into the dead worker's
        # blocks: attach them now so the views survive the unlink below
        # until their batches are decoded.
        for (_, w), reply in self._reply_buffer.items():
            if w == worker and reply[0] == "ok":
                self._responses.buf(reply[1])
        for name in sup.drain_blocks(worker):
            unlink_segment(name)
        lost = list(self._worker_pending[worker])
        poison = (
            lost[0] if lost and sup.record_death_at(lost[0]) else None
        )
        # The replacement (if any) must not re-run non-sticky faults
        # that already fired: workers serve their pipe in order, so
        # everything at or below the pending head has been reached.
        if self._fault_plan:
            self._fault_plan = self._fault_plan.pruned(
                worker, lost[0] if lost else self._seq
            )
        if poison is not None and sup.config.fallback == "raise":
            raise PoisonBatchError(
                f"batch seq {poison} killed worker {worker} twice"
            )
        if not sup.within_budget(worker):
            if sup.config.fallback == "raise":
                raise WorkerCrashError(
                    f"worker {worker} exceeded its restart budget "
                    f"({sup.config.restart_budget})"
                )
            sup.disable(worker)
            self._worker_pending[worker].clear()
            for seq in lost:
                self._classify_inline(seq, worker)
            return
        conn, proc = self._spawn_worker(worker)
        self._conns[worker] = conn
        self._procs[worker] = proc
        self._cursors[worker] = 0
        self._worker_stats[worker] = BatchStats()
        sup.stats.restarts += 1
        # Deterministic replay: each lost seq re-sent in order, the log
        # suffix recomputed against the fresh replica's zero cursor and
        # the batch's pinned log length — bitwise the same classification
        # the dead worker would have produced.  A poison seq skips the
        # pipe and classifies in-process instead.
        pending = self._worker_pending[worker]
        for seq in lost:
            if seq == poison:
                pending.remove(seq)
                self._classify_inline(seq, worker)
                continue
            if self._dispatch(seq, worker):
                sup.stats.replayed_batches += 1
            else:
                # The replacement died before accepting the replay;
                # recurse (bounded by the restart budget).
                self._handle_failure(worker, "crash")
                return

    def _drain_dead_pipe(self, worker: int) -> None:
        """Salvage messages a dying worker managed to send: pipes
        outlive their writer, and a reply that was delivered must not
        be replayed (double classification, double flow-stats)."""
        conn = self._conns[worker]
        while True:
            try:
                if not conn.poll(0):
                    return
                message = conn.recv()
            except (EOFError, ConnectionResetError, BrokenPipeError, OSError):
                return
            if message[0] == "block":
                self._supervisor.register_block(worker, message[2])
            elif message[0] == "ok" and self._worker_pending[worker]:
                self._supervisor.register_block(worker, message[1])
                arrived = self._worker_pending[worker].popleft()
                self._reply_buffer[(arrived, worker)] = message

    def _classify_inline(self, seq: int, worker: int) -> None:
        """Classify ``worker``'s share of batch ``seq`` in-process and
        park the reply.

        The degraded path must stay bitwise-identical to a live worker:
        the parent keeps its own replica built from the same spec and
        advanced along the same mutation log to exactly the batch's
        pinned ``log_len`` — so results, stats and the flow-stats delta
        match what the dead shard would have sent.  A replay can demand
        an older log position than the replica has already advanced
        past; the replica is then rebuilt from the spec (position 0).
        """
        inflight = self._inflight[seq]
        members = inflight.groups[worker]
        runner = self._inline_runner
        if runner is None or self._inline_cursor > inflight.log_len:
            # Pickle round-trip the spec exactly as a worker spawn
            # would: the spec (and the log) reference the parent's
            # *authoritative* FlowEntry objects, and classifying on
            # those would record flow stats directly into them — which
            # the delta apply below would then double-count.
            spec: PipelineSpec = pickle.loads(pickle.dumps(self._spec))
            runner = BatchPipeline(
                spec.build(),
                cache_capacity=self._cache_capacity,
                megaflow_capacity=self._megaflow_capacity,
            )
            self._inline_runner = runner
            self._inline_index = EntryIndex(runner.pipeline)
            self._inline_cursor = 0
        suffix: tuple[Mutation, ...] = pickle.loads(
            pickle.dumps(tuple(self._log[self._inline_cursor : inflight.log_len]))
        )
        _apply_mutations(runner.pipeline, suffix)
        self._inline_cursor = inflight.log_len
        packets = [inflight.batch[i] for i in members]
        runner.megaflow_bypass = inflight.bypass
        results = runner.process_batch(packets)
        runner.megaflow_bypass = False
        assert self._inline_index is not None
        delta = FlowStatsDelta.from_results(results, self._inline_index)
        self._reply_buffer[(seq, worker)] = InlineReply(
            "inline", results, runner.stats_snapshot(), delta
        )
        self._supervisor.stats.inline_packets += len(packets)

    def _decode_reply(
        self,
        reply: ShmReply,
        pinned: Mapping[int, tuple[FlowEntry, ...]],
        inputs: Sequence[Mapping[str, int]],
    ) -> tuple[
        list[PipelineResult], tuple[str, ...], BatchStats, FlowStatsDelta
    ]:
        (
            _,
            block_name,
            segments,
            result_layout,
            vocabulary,
            mask_fields,
            stats,
            delta,
        ) = reply
        reader = BlockReader(self._responses.buf(block_name), segments)
        worker_results = decode_results(
            reader,
            result_layout,
            vocabulary,
            lambda table_id, position: pinned[table_id][position],
            inputs=inputs,
        )
        return worker_results, mask_fields, stats, delta

    def _maybe_prune_log(self, log_len: int) -> None:
        """Bound the mutation log under long churn.

        Once every live worker has replayed the whole log, fold the
        current authoritative state into the replica snapshot and drop
        the log — a later respawn (lazy start, recovery, or
        close()/reuse) then builds from the fresh snapshot instead of
        replaying history.  Pruning waits for full catch-up, so a
        worker the hash never feeds can delay it; steady traffic
        reaches every worker and keeps the log short.  Degraded workers
        are exempt (their cursors are dead), so churn past a disabled
        shard still prunes.
        """
        if log_len < 1024:
            return
        if any(
            cursor != log_len
            for worker, cursor in enumerate(self._cursors)
            if worker not in self._supervisor.disabled
        ):
            return
        # Recovery must be able to replay any in-flight batch at its
        # pinned log position; a batch pinned *before* this prune point
        # would need history the prune is about to drop, so wait for it
        # to land (FIFO streaming collects it first anyway).
        if any(
            inflight.log_len != log_len
            for inflight in self._inflight.values()
        ):
            return
        with self._mutation_lock:
            if len(self._log) != log_len:
                return  # a mutator slipped in; prune on a later batch
            self._spec = PipelineSpec.snapshot(self._authoritative)
            if self._shared_rules:
                # Re-seal at the fold point so future spawns (recovery
                # respawns included) attach instead of replaying the
                # authoritative state.  Long-lived workers never attach
                # to the new block — tables they already thawed stay
                # private, still-frozen ones keep valid mappings of the
                # old (now unlinked) generation.
                old_state = self._rule_state
                self._rule_state = SharedRuleState.seal(
                    self._authoritative, self._spec
                )
                self._spec = self._rule_state.spec
                if old_state is not None:
                    old_state.close()
            self._log.clear()
            self._cursors = [0] * self.workers
            # The fresh spec *is* the table state at the old log's end,
            # so everything still in flight (all pinned exactly there,
            # per the guard above) rebases to prefix 0 of the now-empty
            # log — a recovery replay then applies no suffix at all.
            for inflight in self._inflight.values():
                inflight.log_len = 0
            # The inline replica's cursor died with the log; rebuild
            # from the new spec on next use.
            self._inline_runner = None
            self._inline_index = None
            self._inline_cursor = 0

    # -- stats ---------------------------------------------------------

    def stats_snapshot(self) -> BatchStats:
        """Parent-side traffic counters merged with the workers' cache,
        megaflow and wave counters (as of each worker's last reply).

        ``flow_packets`` / ``flow_bytes`` come from the parent's own
        merged deltas (authoritative), never the worker snapshots — the
        workers' copies would double-count them.
        """
        stats = BatchStats(
            packets=self.packets,
            batches=self.batches,
            matched=self.matched,
            sent_to_controller=self.sent_to_controller,
            dropped=self.dropped,
            flow_packets=self.flow_packets,
            flow_bytes=self.flow_bytes,
            advances=self.lifecycle.stats.advances,
            expired=self.lifecycle.stats.expired,
        )
        for worker_stats in self._worker_stats:
            stats.cache_hits += worker_stats.cache_hits
            stats.cache_misses += worker_stats.cache_misses
            stats.megaflow_hits += worker_stats.megaflow_hits
            stats.megaflow_misses += worker_stats.megaflow_misses
            stats.waves += worker_stats.waves
        return stats

    def supervision_snapshot(self) -> dict[str, int]:
        """Cumulative recovery counters: crashes, wedges, restarts,
        replayed batches, poison batches and inline-classified packets.
        All zero on a healthy run — the benchmark gate records (but
        never bands) these, so any nonzero value in a perf report flags
        a run whose timings included recovery work."""
        return self._supervisor.stats.as_dict()
