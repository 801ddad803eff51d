"""Batched, cached, sharded high-throughput runtime over the lookup
architecture.

The paper's decomposition architecture fixes the *per-lookup* memory
cost; this package fixes the *per-packet software overhead* so the
reproduction can serve traffic-scale workloads.  Four layers compose:

**Batching model.**  :class:`~repro.runtime.batch.BatchPipeline` drives
packet batches through the multi-table pipeline in waves: all packets
currently at the same table are looked up together via the tables'
``search_batch`` / ``lookup_batch`` APIs (numpy-vectorized header
partitioning, per-batch memoization so duplicate partition keys and
duplicate full header keys are each resolved once), while per-packet
instruction execution reuses the scalar pipeline's machinery unchanged.
Goto-Table is forward-only, so a batch visits each table at most once.

**Two-tier cache hierarchy (microflow → megaflow).**  Mirroring the
Open vSwitch fast path:

- *Tier 2 — per-table microflow.*  A
  :class:`~repro.runtime.cache.MicroflowCache` (LRU, exact-match on the
  table's field tuple) fronts each table.  Invalidation is per-entry
  *revalidation*: records carry the table's ``version`` mutation-counter
  stamp and a stale record re-resolves in place on its next access, so
  a flow-mod no longer evicts the whole working set.
- *Tier 1 — pipeline-level megaflow.*  A
  :class:`~repro.runtime.megaflow.MegaflowCache` keys one entry per
  *traffic aggregate*: during a full traversal a
  :class:`~repro.runtime.megaflow.MegaflowRecorder` accumulates exactly
  the header bits each visited table consulted (trie walk depth,
  empty-structure elision, predicate masks) minus rewritten/derived
  fields; a hit replays the complete
  :class:`~repro.openflow.pipeline.PipelineResult` and skips every
  table.  Entries are tagged ``(table_id, version)`` per visited table
  and invalidate *incrementally* — a rule change in one table only
  kills the aggregates whose traversal consulted that table.

**Sharded parallel execution.**
:class:`~repro.runtime.shard.ShardedBatchPipeline` partitions batches by
a stable hash of the megaflow key across ``multiprocessing`` workers,
each owning a pipeline replica rebuilt from a picklable
:class:`~repro.runtime.shard.PipelineSpec` snapshot plus its own cache
stack.  Consistency uses a mutation-log catch-up protocol: flow-mods go
through the runner's logging ``pipeline`` facade; the parent snapshots
the log length once per batch and every worker replays the suffix up to
that snapshot before classifying its sub-batch, so the whole batch sees
one table state and results are bitwise-identical to the single-process
runner.

**Shared-memory transport and stats return.**  Batches cross to the
workers through :mod:`repro.runtime.transport`: the parent encodes
each batch *once* into a columnar
:class:`~repro.runtime.transport.PacketBlockCodec` shared-memory block
(one ``uint64`` lane per 64 field bits, presence bytes, identical
packet dicts encoded once), workers read their member
rows in place and write :class:`~repro.openflow.pipeline.PipelineResult`
columns into worker-owned blocks; only mutation suffixes, block names
and layouts cross the pipes.  Replies carry per-entry
:class:`~repro.runtime.transport.FlowStatsDelta` packet/byte counts
keyed by ``(table_id, position)`` entry refs
(:class:`~repro.runtime.transport.EntryIndex`), which the parent folds
back into its authoritative flow entries — flow stats under sharding
match the single-process run exactly.

**Pipelined dispatch/collect.**  The transport is double-buffered: each
direction keeps a ring of ``depth`` shared blocks, so
:meth:`~repro.runtime.shard.ShardedBatchPipeline.process_batches` (and
:func:`~repro.runtime.batch.run_workload`, which uses it) encodes and
dispatches batch N+1 while the workers still classify batch N.  Every
submitted batch snapshots the mutation-log length and pinned entry
order at submission, so pipelined streams replay the exact serial
sequence of table states — results and flow stats stay
bitwise-identical to the lockstep and single-process runners.

**Frame lengths and byte accounting.**  Packets carry an on-wire
``frame_len`` (:data:`repro.packet.headers.FRAME_LEN_FIELD`): switch
metadata outside every match, cache key and megaflow mask, threaded
through every lookup path's ``FlowStats.record`` and the transport's
stats deltas — per-entry byte counters and
:attr:`~repro.runtime.batch.BatchStats.flow_bytes` count real traffic
volume, and the benches report bits/sec.

**Columnar fast path.**  The hot tiers above also run end-to-end on the
transport's columnar representation, without per-packet dicts.  A
:class:`~repro.packet.batch.PacketBatch` holds a batch as uint64 lanes
plus presence bytes over distinct *rows* (duplicate packets share one
row through a ``pick`` indirection);
:func:`~repro.runtime.scenarios.columnar_workload` converts any
scenario's packet events into it, and
:func:`~repro.runtime.batch.run_workload` slices events into views that
share each event's vectorized key memos.  The microflow tier
(:meth:`~repro.runtime.cache.MicroflowCache.lookup_batch_columnar`)
hashes all schema lanes per row in one numpy pass and verifies each
hash hit against exact packed key bytes (collisions degrade to misses,
never wrong results); the megaflow tier
(:meth:`~repro.runtime.megaflow.MegaflowCache.probe_rows`) applies each
cached wildcard mask as vectorized ``lanes & mask`` compares.  Hits
replay without dict materialisation — matched-entry stats are credited
in aggregate from the ``frame_len`` lane, and a replaying
``run_workload`` with ``keep_results=False`` never builds
``PipelineResult`` objects at all.  **Dict materialisation still
happens** for: packets that miss both cache tiers (their rows
materialise lazily, one distinct row at a time, aliased across
duplicates, and walk the unchanged wave machinery), megaflow-miss
traversals installing new aggregates, and any caller that asks for
materialised results (``keep_results=True`` or ``process_batch``'s
return value — built as packet fields + recorded rewrite overrides,
bitwise-identical to the dict path, which the differential property
harness proves across the whole scenario catalog).

**Decode-free worker protocol.**  When a ``PacketBatch`` is submitted
to the sharded runner, the control message carries a ``columnar``
flag; the worker *attaches* to the request block's
columns in place (:meth:`~repro.runtime.transport.PacketBlockCodec.attach`)
instead of decoding its member rows, classifies via
:meth:`~repro.runtime.batch.BatchPipeline.classify_columnar`, and
encodes its reply straight from the megaflow templates
(:func:`~repro.runtime.transport.encode_outcomes`): flags, ports,
matched-entry refs and action vocabularies come from the cached
aggregate, rewrite overrides from the entry's recorded override dict,
frame lengths from the ``frame_len`` lane — so the shm decode step
disappears from the common (cache-hit) case and only miss rows are
ever materialised worker-side.  The parent's collect path is unchanged
and resolves replies against its own pinned tables.

**Out-of-order collection.**  The in-flight window is keyed by ``seq``:
:meth:`~repro.runtime.shard.ShardedBatchPipeline.collect_batch` takes
``seq=`` to complete any submitted batch (replies from other batches
park in a buffer; per-worker pipes deliver in submission order), and
:meth:`~repro.runtime.shard.ShardedBatchPipeline.collect_any` completes
whichever batch lands first — a stalled shard delays only the batches
actually assigned to it.  Ring slots still guard reuse: a submission
whose slot is held by an uncollected batch raises.

**Fault tolerance.**  Workers are mortal; results are not.  Every
parent-side wait is process-sentinel-aware and (optionally)
deadline-bounded, classifying failures as *crash* (the process died —
sentinel fired or the pipe broke), *wedge* (alive but silent past the
:class:`~repro.runtime.supervise.SupervisionConfig` deadline —
escalated to a kill), or *poison batch* (the same batch killed a
worker twice — classified in-process instead of replayed a third
time).  Recovery rides the pipelining invariants: each submitted batch
pinned its mutation-log prefix and its request block is parent-owned
and immutable in flight, so a replacement worker rebuilt from the
current :class:`~repro.runtime.shard.PipelineSpec` *replays* every
lost seq (a re-send, never a re-encode) and produces bitwise-identical
results, stats and flow deltas.  Each worker carries a restart budget;
past it the shard degrades per ``fallback`` — in-process
classification on a parent-side replica (``"inline"``), rerouting to
survivors (``"redistribute"``), or
:class:`~repro.runtime.supervise.WorkerCrashError` (``"raise"``).
Worker-owned shm blocks are announced to a parent-side registry
*before* creation, so a corpse's segments are always unlinkable;
orphaned workers notice the parent's death themselves and exit.
:mod:`repro.runtime.faults` injects deterministic, seeded
kill/hang/delay faults at named worker-loop steps for chaos testing.

**Flow-entry lifecycle on a virtual clock.**  Entries carry OpenFlow
``idle_timeout`` / ``hard_timeout`` semantics against a
:class:`~repro.runtime.lifecycle.VirtualClock` that only moves via
``("advance", dt)`` workload events — never wall time (the
``wall-clock-ban`` lint rule keeps the whole runtime clock-free), so
every runner path observes the identical tick sequence and lifecycle
behaviour replays bit-for-bit.  ``advance_clock`` runs a *vectorized*
expiry sweep (:class:`~repro.runtime.lifecycle.LifecycleSweeper`):
per-table numpy deadline lanes, idle touches detected from packet-count
deltas (no hot-path stamping — credit sites are untouched, which is
what keeps aggregated and per-packet crediting bitwise-identical), POX
``flow_table.py`` expiry semantics (strict ``>``, hard-before-idle
precedence), and a parent-side ledger of
:class:`~repro.runtime.lifecycle.FlowRemoved` events carrying final
packet/byte counters.  Expired entries leave through the tables'
ordinary remove path, so version counters bump and both cache tiers
revalidate exactly as for explicit uninstalls; in the sharded runtime
the parent alone decides expiry and logs each one as an
``ExpireMutation`` — workers never consult a clock, and replay recovery
applies expiries like any other logged removal.

**Open-loop streaming front-end.**  Every layer above is closed-loop —
callers feed batches as fast as the pipeline drains them.
:mod:`repro.runtime.streaming` adds the open-loop story: seeded
Poisson/bursty/diurnal :class:`~repro.runtime.streaming.ArrivalSchedule`
arrival processes on the virtual clock (replayable bit-for-bit, no wall
time), a hard-capacity
:class:`~repro.runtime.streaming.AdmissionQueue` with tail-drop and
deadline-drop shed policies (every queue in the runtime is
capacity-bounded — the ``bounded-queue`` lint rule enforces it),
size-or-deadline batch formation feeding the pipelined shard transport
behind a bounded in-flight window (backpressure instead of queueing),
and a graduated degradation ladder under sustained overload: shrink the
formation deadline, bypass megaflow capture (``megaflow_bypass`` —
observationally invisible), then shed at admission.
:func:`~repro.runtime.streaming.run_stream` self-checks the
conservation law ``admitted == completed + shed`` (packets and bytes)
and reports per-packet enqueue→completion latencies in virtual ticks
with p50/p99/p999 summaries plus the deterministic shed ledger — the
same report, bit-for-bit, on single-process and sharded runners, with
or without worker crashes.

**Scenario catalog.**  :mod:`repro.runtime.scenarios` builds replayable
:class:`~repro.runtime.batch.Workload` objects from a rule set —
``uniform``, ``uniform-wide`` (per-packet noise in an unconstrained
schema field: microflow-adversarial, megaflow-friendly), ``zipf``,
``bursty``, ``churn``, and ``timeout-churn`` (short-lived mice expiring
under elephant traffic via clock sweeps), each with ``frame_len``
distribution and ``advance=`` clock-cadence knobs — replayed by
:func:`~repro.runtime.batch.run_workload`.
``benchmarks/bench_throughput.py`` reports packets/sec and bits/sec per
lookup path over these scenarios and records them in
``BENCH_throughput.json``; ``benchmarks/check_regression.py`` gates CI
on the recorded speedup ratios.
"""

from repro.packet.batch import PacketBatch
from repro.runtime.batch import (
    BatchPipeline,
    BatchStats,
    ColumnarOutcomes,
    Workload,
    WorkloadStats,
    run_workload,
)
from repro.runtime.cache import DEFAULT_CAPACITY, MicroflowCache
from repro.runtime.lifecycle import (
    FlowRemoved,
    LifecycleSweeper,
    VirtualClock,
)
from repro.runtime.megaflow import (
    DEFAULT_MEGAFLOW_CAPACITY,
    MegaflowCache,
    MegaflowRecorder,
)
from repro.runtime.scenarios import (
    SCENARIOS,
    bursty_workload,
    churn_workload,
    columnar_workload,
    timeout_churn_workload,
    uniform_wide_workload,
    uniform_workload,
    widen_rule_set,
    with_clock_advances,
    zipf_weights,
    zipf_workload,
)
from repro.runtime.streaming import (
    ARRIVALS,
    AdmissionQueue,
    ArrivalSchedule,
    ShedRecord,
    StreamConfig,
    StreamReport,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    run_stream,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.shard import (
    PipelineSpec,
    ShardedBatchPipeline,
    TableSpec,
)
from repro.runtime.supervise import (
    PoisonBatchError,
    SupervisionConfig,
    SupervisionStats,
    WorkerCrashError,
    WorkerSupervisor,
)
from repro.runtime.transport import (
    EntryIndex,
    FlowStatsDelta,
    PacketBlockCodec,
)

__all__ = [
    "ARRIVALS",
    "AdmissionQueue",
    "ArrivalSchedule",
    "BatchPipeline",
    "BatchStats",
    "ColumnarOutcomes",
    "DEFAULT_CAPACITY",
    "DEFAULT_MEGAFLOW_CAPACITY",
    "EntryIndex",
    "FaultPlan",
    "FaultSpec",
    "FlowRemoved",
    "FlowStatsDelta",
    "LifecycleSweeper",
    "MegaflowCache",
    "MegaflowRecorder",
    "MicroflowCache",
    "PacketBatch",
    "PacketBlockCodec",
    "PipelineSpec",
    "PoisonBatchError",
    "SCENARIOS",
    "ShardedBatchPipeline",
    "ShedRecord",
    "StreamConfig",
    "StreamReport",
    "SupervisionConfig",
    "SupervisionStats",
    "TableSpec",
    "VirtualClock",
    "WorkerCrashError",
    "WorkerSupervisor",
    "Workload",
    "WorkloadStats",
    "bursty_arrivals",
    "bursty_workload",
    "churn_workload",
    "columnar_workload",
    "diurnal_arrivals",
    "poisson_arrivals",
    "run_stream",
    "run_workload",
    "timeout_churn_workload",
    "uniform_wide_workload",
    "uniform_workload",
    "widen_rule_set",
    "with_clock_advances",
    "zipf_weights",
    "zipf_workload",
]
