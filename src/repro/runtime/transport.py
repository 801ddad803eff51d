"""Shared-memory columnar transport for the sharded runtime.

Packet batches and :class:`~repro.openflow.pipeline.PipelineResult`
lists travel between the parent and its workers through shared memory
rather than being pickled through a ``multiprocessing`` pipe per worker
per batch; only tiny control messages cross the pipe:

**Packet blocks.**  :class:`PacketBlockCodec` lays a batch out as flat
numpy columns — per field, one ``uint64`` lane per 64 bits of width
(widths from the canonical :func:`repro.packet.headers.transport_schema`)
plus a presence byte when some packet lacks the field.  Identical packet
*objects* (the common case: traces sample a flow pool of shared dicts)
are encoded once and reconstructed once, with a per-packet indirection
column — the columnar twin of pickle's memo, at a fraction of the cost.
The parent encodes the whole batch **once** into one parent-owned block;
each worker reads only its member rows (its member-index array lives in
the same block), so fan-out cost no longer scales with worker count.

**Result blocks.**  Workers encode their
:class:`~repro.openflow.pipeline.PipelineResult` lists columnar into a
worker-owned block: fixed-width columns for flags/metadata, offset+value
columns for the variable-length lists, final fields as rewrite
overrides against the input packets the parent already holds, applied
actions as indices into a tiny per-batch action vocabulary (pickled in
the control reply — distinct actions per batch are few), and matched
entries as ``(table_id, position)``
**entry refs** resolved against each side's own tables.

**Entry refs and the stats return path.**  :class:`EntryIndex` maps
entries to positions in a table's deterministic
``entries_snapshot()`` order.  A worker replica at the same mutation-log
position as the parent agrees on that order (snapshots pickle entries
with their sort keys and replay mutations in program order), so a ref is
a process-independent name for a flow entry.  That makes two things
cheap: the parent rebuilds results whose ``matched_entries`` are its
*own* authoritative :class:`~repro.openflow.flow.FlowEntry` objects, and
each reply carries a :class:`FlowStatsDelta` — per-entry packet/byte
counts the parent folds back into those entries' counters, so flow
stats (the substrate for monitoring) are exact under sharding instead
of marooned in worker replicas.

**Blocks.**  :class:`SharedBlock` wraps one growable
``multiprocessing.shared_memory`` segment owned by its creating process
(grown by re-creating under a fresh name; peers attach lazily via
:class:`BlockAttachments`).  Layouts travel in the control messages as
:class:`Segment` tuples, so readers construct zero-copy numpy views.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Mapping,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro.openflow.flow import FlowEntry
from repro.openflow.pipeline import PipelineResult
from repro.packet.batch import FieldLanes, PacketBatch
from repro.packet.headers import frame_length, transport_schema

if TYPE_CHECKING:  # runtime.batch imports nothing from here, but the
    # hint stays lazy so module import order never matters
    from repro.runtime.batch import ColumnarOutcomes

#: Smallest block allocated; growth doubles, so churny batch sizes do
#: not thrash the kernel with re-creations.
MIN_BLOCK_BYTES = 1 << 16

_ALIGN = 16


# ----------------------------------------------------------------------
# shared-memory blocks
# ----------------------------------------------------------------------


def ensure_resource_tracker() -> None:
    """Start the resource tracker before forking workers.

    Attaching to a segment registers it with the process's tracker (a
    CPython quirk: attach-only handles register too).  When the tracker
    exists *before* the fork, parent and workers share one tracker, its
    name set deduplicates, and the single owner-side ``unlink``
    unregisters for everyone — no spurious "leaked shared_memory"
    warnings at exit.
    """
    resource_tracker.ensure_running()


class SharedBlock:
    """One growable shared-memory segment owned by this process.

    ``ensure(nbytes)`` re-creates the segment under a fresh name when it
    is too small (shared memory cannot resize in place); the stale
    segment is unlinked immediately — peers still holding it mapped keep
    a valid view until they attach to the new name from the next control
    message.

    **Lifecycle guard.**  Every created segment registers a
    ``weakref.finalize`` unlink callback, so a block abandoned without
    :meth:`close` — an interrupted sharded run, an exception unwinding
    past the owner, a runner that was never closed — is still unlinked
    when the owner object is collected or the interpreter exits, instead
    of lingering in ``/dev/shm`` until reboot.  :meth:`close` remains
    the explicit (idempotent) path and detaches the finalizer.

    **Announced names.**  Finalize guards die with their process: a
    SIGKILLed worker unlinks nothing.  A block constructed with
    ``name_prefix`` therefore creates its segments under deterministic
    names — ``{prefix}g{generation}`` — and exposes the *next* name via
    :meth:`plan` before any byte exists, so the owner can announce it
    to a supervising peer first.  The peer's registry then covers every
    segment the block will ever create, and :func:`unlink_segment`
    cleans up after an unclean death (a planned-but-never-created name
    unlinks as a no-op).
    """

    def __init__(self, name_prefix: str | None = None) -> None:
        self._shm: shared_memory.SharedMemory | None = None
        self._finalizer = None
        self._name_prefix = name_prefix
        self._generation = 0

    @property
    def name(self) -> str:
        assert self._shm is not None, "ensure() before name"
        return self._shm.name

    @property
    def buf(self) -> memoryview:
        assert self._shm is not None, "ensure() before buf"
        return self._shm.buf

    def plan(self, nbytes: int) -> str | None:
        """The segment name :meth:`ensure` would create for ``nbytes``,
        or ``None`` when the current segment already fits.  Only blocks
        constructed with ``name_prefix`` can plan ahead."""
        if self._name_prefix is None:
            return None
        if self._shm is not None and self._shm.size >= nbytes:
            return None
        return f"{self._name_prefix}g{self._generation + 1}"

    def ensure(self, nbytes: int) -> None:
        if self._shm is not None and self._shm.size >= nbytes:
            return
        size = MIN_BLOCK_BYTES
        while size < nbytes:
            size *= 2
        self.close()
        if self._name_prefix is None:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
        else:
            self._generation += 1
            name = f"{self._name_prefix}g{self._generation}"
            try:
                self._shm = shared_memory.SharedMemory(
                    create=True, size=size, name=name
                )
            except FileExistsError:
                # A stale leftover under the same deterministic name
                # (pid reuse after an unclean death): reclaim it.
                unlink_segment(name)
                self._shm = shared_memory.SharedMemory(
                    create=True, size=size, name=name
                )
        self._finalizer = weakref.finalize(
            self, _release_segment, self._shm
        )

    def close(self) -> None:
        """Unlink and unmap the segment (idempotent)."""
        if self._shm is None:
            return
        finalizer, self._finalizer = self._finalizer, None
        self._shm = None
        if finalizer is not None:
            # The finalizer owns the actual unlink+unmap; calling it here
            # runs it exactly once and disarms the at-exit/at-GC copy.
            finalizer()


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Unlink then unmap one segment.

    Unlink first: even if unmapping is blocked by a still-alive numpy
    view (``BufferError``), the name is gone and the kernel reclaims the
    memory once the last view dies.
    """
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - defensive
        pass
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass


def unlink_segment(name: str) -> None:
    """Unlink a segment by name on behalf of a dead owner.

    The crash-recovery path: a SIGKILLed worker's finalize guards never
    ran, so the supervising parent unlinks every name in its block
    registry.  Attaching first keeps the shared resource tracker's
    accounting balanced; a name that was announced but never created
    (or already unlinked) is silently a no-op.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return
    _release_segment(shm)


class BlockAttachments:
    """Cache of attached (peer-owned) segments, keyed by name."""

    def __init__(self) -> None:
        self._attached: dict[str, shared_memory.SharedMemory] = {}

    def buf(self, name: str) -> memoryview:
        shm = self._attached.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            self._attached[name] = shm
        return shm.buf

    def close(self) -> None:
        for shm in self._attached.values():
            try:
                shm.close()
            except (BufferError, OSError):  # pragma: no cover - defensive
                pass
        self._attached.clear()


class Segment(NamedTuple):
    """Where one named array lives inside a block."""

    key: str
    dtype: str
    count: int
    offset: int


class BlockWriter:
    """Accumulates named arrays, then lays them out in one block.

    Two-phase on purpose: :attr:`nbytes` sizes the block before any
    byte is written, so one ``ensure`` covers the whole batch.
    """

    def __init__(self) -> None:
        self._arrays: list[tuple[str, np.ndarray]] = []
        self._nbytes = 0

    def put(self, key: str, array: np.ndarray) -> None:
        self._arrays.append((key, array))
        self._nbytes = _aligned(self._nbytes) + array.nbytes

    @property
    def nbytes(self) -> int:
        return max(self._nbytes, 1)

    def write_to(self, buf: memoryview) -> tuple[Segment, ...]:
        segments: list[Segment] = []
        offset = 0
        for key, array in self._arrays:
            offset = _aligned(offset)
            if array.size:
                view = np.frombuffer(
                    buf, dtype=array.dtype, count=array.size, offset=offset
                )
                view[:] = array
            segments.append(
                Segment(key, array.dtype.str, array.size, offset)
            )
            offset += array.nbytes
        return tuple(segments)


class BlockReader:
    """Zero-copy views over a written block."""

    def __init__(
        self, buf: memoryview, segments: Iterable[Segment]
    ) -> None:
        self._buf = buf
        self._segments = {segment.key: segment for segment in segments}

    def get(self, key: str) -> np.ndarray:
        segment = self._segments[key]
        return np.frombuffer(
            self._buf,
            dtype=np.dtype(segment.dtype),
            count=segment.count,
            offset=segment.offset,
        )


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


# ----------------------------------------------------------------------
# packet blocks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FieldColumn:
    """Layout of one field's columns: lane count and presence flag."""

    name: str
    lanes: int
    has_missing: bool


@dataclass(frozen=True)
class PacketBlockLayout:
    """Decode recipe for one encoded batch of packet-field dicts."""

    prefix: str
    count: int  # packets in the batch
    rows: int  # distinct dicts actually encoded
    fields: tuple[FieldColumn, ...]


class PacketBlockCodec:
    """Columnar codec for batches of ``{field name: int}`` dicts.

    Stateless apart from the schema, so the parent and every worker
    construct their own from :func:`transport_schema` and agree on the
    canonical column order without negotiation.
    """

    def __init__(self, field_bits: Mapping[str, int] | None = None) -> None:
        self.field_bits = dict(
            field_bits if field_bits is not None else transport_schema()
        )

    # -- encode --------------------------------------------------------

    def encode(
        self,
        writer: BlockWriter,
        batch: PacketBatch | Sequence[Mapping[str, int]],
        prefix: str,
    ) -> PacketBlockLayout:
        """Append a batch's columns to the writer; returns the layout.

        Packets that are the *same dict object* are encoded once; the
        ``pick`` column maps batch positions onto distinct rows, and
        :meth:`decode` rebuilds the aliasing — so duplicate-heavy traces
        stay duplicate-heavy (and downstream per-batch memoization keeps
        paying off) without re-serialising every repeat.  A
        :class:`~repro.packet.batch.PacketBatch` is written as-is (its
        columns already have this exact layout); a dict sequence is
        columnarised first.
        """
        if not isinstance(batch, PacketBatch):
            batch = PacketBatch.from_dicts(batch, self.field_bits)
        return self.encode_batch(writer, batch, prefix)

    def encode_batch(
        self, writer: BlockWriter, batch: PacketBatch, prefix: str
    ) -> PacketBlockLayout:
        """Write a columnar batch's pick/lane/presence arrays.

        A sliced view is compacted first, so a chunk of a large event
        ships only the rows it picks — never the whole backing store.
        """
        batch = batch.compacted()
        writer.put(f"{prefix}/pick", batch.pick.astype(np.int32))
        columns: list[FieldColumn] = []
        for name in batch.field_names():
            lanes, present = batch.column(name)
            if present is not None:
                writer.put(f"{prefix}/{name}/present", present)
            for lane_index, lane in enumerate(lanes):
                writer.put(f"{prefix}/{name}/{lane_index}", lane)
            columns.append(FieldColumn(name, len(lanes), present is not None))
        return PacketBlockLayout(
            prefix=prefix,
            count=len(batch),
            rows=batch.rows,
            fields=tuple(columns),
        )

    # -- decode --------------------------------------------------------

    def attach(
        self,
        reader: BlockReader,
        layout: PacketBlockLayout,
        positions: Sequence[int] | None = None,
    ) -> PacketBatch:
        """A :class:`PacketBatch` over (a subset of) an encoded block.

        Only the rows the selected positions actually pick are gathered
        (copied out of the shared segment, so no view outlives the
        caller's frame); dict materialisation stays lazy — this is the
        decode-free worker's entry point.
        """
        prefix = layout.prefix
        pick = reader.get(f"{prefix}/pick")
        if positions is not None:
            pick = pick[np.asarray(positions, dtype=np.int64)]
        needed = np.unique(pick)
        remap = np.zeros(
            int(needed[-1]) + 1 if len(needed) else 1, dtype=np.int64
        )
        remap[needed] = np.arange(len(needed), dtype=np.int64)
        columns: dict[str, FieldLanes] = {}
        for spec in layout.fields:
            lanes = tuple(
                reader.get(f"{prefix}/{spec.name}/{lane_index}")[needed]
                for lane_index in range(spec.lanes)
            )
            present = (
                reader.get(f"{prefix}/{spec.name}/present")[needed]
                if spec.has_missing
                else None
            )
            columns[spec.name] = FieldLanes(lanes, present)
        return PacketBatch.from_columns(
            len(needed), columns, remap[pick.astype(np.int64)]
        )

    def decode(
        self,
        reader: BlockReader,
        layout: PacketBlockLayout,
        positions: Sequence[int] | None = None,
    ) -> list[dict[str, int]]:
        """Rebuild (a subset of) the batch from its columns.

        ``positions``, when given, selects batch positions (e.g. one
        worker's members); every distinct row is still materialised at
        most once and aliased across its duplicates.
        """
        return self.attach(reader, layout, positions).dicts()


# ----------------------------------------------------------------------
# entry refs and flow-stats deltas
# ----------------------------------------------------------------------


class EntryIndex:
    """Bidirectional ``FlowEntry <-> (table_id, position)`` resolver.

    Positions index the table's ``entries_snapshot()`` order, cached per
    table version so per-batch resolution costs O(1) after the first
    touch following a mutation.
    """

    def __init__(self, pipeline: Any) -> None:
        self.pipeline = pipeline
        #: table_id -> (version, entries, id(entry) -> position)
        self._cache: dict[int, tuple[int, tuple[FlowEntry, ...], dict[int, int]]] = {}

    def _state(
        self, table_id: int
    ) -> tuple[int, tuple[FlowEntry, ...], dict[int, int]]:
        table = self.pipeline.table(table_id)
        cached = self._cache.get(table_id)
        if cached is None or cached[0] != table.version:
            entries = _entries_snapshot(table)
            cached = (
                table.version,
                entries,
                {id(entry): i for i, entry in enumerate(entries)},
            )
            self._cache[table_id] = cached
        return cached

    def entries(self, table_id: int) -> tuple[FlowEntry, ...]:
        return self._state(table_id)[1]

    def ref(self, table_id: int, entry: FlowEntry) -> tuple[int, int]:
        # Frozen shared-state tables (runtime/rulestate.py) know each
        # rehydrated entry's sealed position outright — and the sealed
        # order *is* the parent's pinned snapshot order, because any
        # mutation would have thawed the table (entry_position then
        # returns None and the snapshot path below takes over).
        position_of = getattr(
            self.pipeline.table(table_id), "entry_position", None
        )
        if position_of is not None:
            position = position_of(entry)
            if position is not None:
                return (table_id, position)
        return (table_id, self._state(table_id)[2][id(entry)])

    def pin(self) -> dict[int, tuple[FlowEntry, ...]]:
        """Freeze every table's current entry order.

        The parent pins once per batch *before* dispatching it, then
        resolves worker refs against the pinned tuples — a mutation
        landing while replies are in flight cannot skew resolution onto
        a younger table state than the one the workers classified under.
        """
        return {
            table.table_id: self.entries(table.table_id)
            for table in self.pipeline.tables
        }


def _entries_snapshot(table: Any) -> tuple[FlowEntry, ...]:
    snapshot = getattr(table, "entries_snapshot", None)
    if snapshot is not None:
        return snapshot()
    return tuple(table)


@dataclass
class FlowStatsDelta:
    """Per-entry packet/byte counts one worker accrued over one batch,
    keyed by ``(table_id, position)`` entry ref."""

    counts: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict
    )

    @classmethod
    def from_refs(
        cls, refs: Iterable[tuple[tuple[int, int], int]]
    ) -> FlowStatsDelta:
        """Aggregate ``(entry ref, frame bytes)`` pairs (one per
        packet-match pair) into per-entry counts — the single definition
        of the delta semantics, shared by both transports.
        """
        counts: dict[tuple[int, int], tuple[int, int]] = {}
        for key, frame_len in refs:
            packets, byte_count = counts.get(key, (0, 0))
            counts[key] = (packets + 1, byte_count + frame_len)
        return cls(counts=counts)

    @classmethod
    def from_results(
        cls, results: Sequence[PipelineResult], index: EntryIndex
    ) -> FlowStatsDelta:
        """Aggregate one batch's matched entries into a delta.

        Every runtime lookup path records exactly one
        ``FlowStats.record(frame_len)`` per ``(packet, matched entry)``
        pair — the scalar scan, the decomposition, batch memoization,
        microflow hits and megaflow replay all preserve it — so
        occurrence counts over ``matched_entries``, weighted by each
        packet's frame length (``frame_len`` is never rewritten, so
        ``final_fields`` still carries it), *are* the per-entry stats
        delta.
        """
        return cls.from_refs(
            (
                index.ref(table_id, entry),
                frame_length(result.final_fields),
            )
            for result in results
            for table_id, entry in zip(
                result.tables_visited, result.matched_entries
            )
        )

    def apply(
        self, pinned: Mapping[int, tuple[FlowEntry, ...]]
    ) -> tuple[int, int]:
        """Fold the delta into the pinned (parent) entries' counters;
        returns the ``(packets, bytes)`` totals merged."""
        total_packets = 0
        total_bytes = 0
        for (table_id, position), (packets, byte_count) in self.counts.items():
            pinned[table_id][position].stats.add(packets, byte_count)
            total_packets += packets
            total_bytes += byte_count
        return total_packets, total_bytes


# ----------------------------------------------------------------------
# result blocks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResultBlockLayout:
    """Decode recipe for one worker's encoded result list.

    Final fields travel as ``overrides`` — per-packet rewrite dicts
    (usually all ``None``, so effectively free) — and the decoder
    rebuilds each ``final_fields`` from the input dict it already
    holds, exactly like megaflow replay.
    """

    count: int
    overrides: tuple[dict[str, int] | None, ...]


_RESULT_SENT = 1
_RESULT_DROPPED = 2


def encode_results(
    writer: BlockWriter,
    results: Sequence[PipelineResult],
    index: EntryIndex,
    inputs: Sequence[Mapping[str, int]],
) -> tuple[ResultBlockLayout, list, FlowStatsDelta]:
    """Encode a worker's results columnar; returns the layout, the
    per-batch action vocabulary (for the control reply) and the
    flow-stats delta (computed here because the matched-entry refs are
    already in hand).

    ``inputs`` are the packets the results came from (aligned): final
    fields are shipped as rewrite overrides against them — processing
    never deletes a header field, so ``final_fields`` is always the
    input plus zero or more rewritten/added keys.
    """
    frame_lens = [frame_length(result.final_fields) for result in results]
    vocabulary, delta = _encode_core(writer, results, frame_lens, index)
    layout = ResultBlockLayout(
        count=len(results),
        overrides=tuple(
            _overrides(result.final_fields, packet)
            for result, packet in zip(results, inputs)
        ),
    )
    return layout, vocabulary, delta


def encode_outcomes(
    writer: BlockWriter,
    outcomes: ColumnarOutcomes,
    index: EntryIndex,
) -> tuple[ResultBlockLayout, list, FlowStatsDelta]:
    """Encode a :class:`~repro.runtime.batch.ColumnarOutcomes` columnar —
    the decode-free worker's reply path.

    Megaflow-hit positions are encoded straight from the cached
    template (flags, ports, matched refs, actions) with the entry's
    recorded rewrite ``overrides``; only wave-classified positions
    (cache misses, whose rows were materialised anyway) diff their
    ``final_fields`` against the input dict.  Frame lengths come from
    the batch's ``frame_len`` lane, so a hit never touches a dict at
    all.
    """
    results: list[PipelineResult] = []
    overrides: list[dict[str, int] | None] = []
    batch = outcomes.batch
    for i, entry in enumerate(outcomes.entries):
        if entry is None:
            result = outcomes.wave_results[i]
            results.append(result)
            overrides.append(_overrides(result.final_fields, batch[i]))
        else:
            results.append(entry.template)
            overrides.append(entry.overrides if entry.overrides else None)
    vocabulary, delta = _encode_core(
        writer, results, outcomes.frame.tolist(), index
    )
    layout = ResultBlockLayout(count=len(results), overrides=tuple(overrides))
    return layout, vocabulary, delta


def _encode_core(
    writer: BlockWriter,
    results: Sequence[PipelineResult],
    frame_lens: Sequence[int],
    index: EntryIndex,
) -> tuple[list, FlowStatsDelta]:
    """The final-fields-free part of a result encoding: flags, metadata,
    visited tables, ports, matched-entry refs (with the per-packet frame
    lengths feeding the stats delta) and the action vocabulary."""
    n = len(results)
    flags = np.zeros(n, dtype=np.uint8)
    metadata = np.zeros(n, dtype=np.uint64)
    for i, result in enumerate(results):
        if result.sent_to_controller:
            flags[i] |= _RESULT_SENT
        if result.dropped:
            flags[i] |= _RESULT_DROPPED
        metadata[i] = result.metadata
    writer.put("res/flags", flags)
    writer.put("res/metadata", metadata)

    _put_ragged(
        writer,
        "res/tables",
        [result.tables_visited for result in results],
        np.int32,
    )
    _put_ragged(
        writer,
        "res/ports",
        [result.output_ports for result in results],
        np.uint64,
    )

    refs: list[tuple[tuple[int, int], int]] = []
    matched_rows: list[list[int]] = []
    for result, frame_len in zip(results, frame_lens):
        row: list[int] = []
        for table_id, entry in zip(
            result.tables_visited, result.matched_entries
        ):
            ref = index.ref(table_id, entry)
            row.extend(ref)
            refs.append((ref, frame_len))
        matched_rows.append(row)
    _put_ragged(writer, "res/matched", matched_rows, np.int32)

    vocabulary: dict = {}
    action_rows: list[list[int]] = []
    for result in results:
        row = []
        for action in result.applied_actions:
            action_id = vocabulary.get(action)
            if action_id is None:
                action_id = vocabulary[action] = len(vocabulary)
            row.append(action_id)
        action_rows.append(row)
    _put_ragged(writer, "res/actions", action_rows, np.int32)
    return list(vocabulary), FlowStatsDelta.from_refs(refs)


def _overrides(
    final_fields: Mapping[str, int], packet: Mapping[str, int]
) -> dict[str, int] | None:
    if final_fields == packet:  # the common, rewrite-free case
        return None
    get = packet.get
    return {
        name: value
        for name, value in final_fields.items()
        if get(name) != value
    }


def decode_results(
    reader: BlockReader,
    layout: ResultBlockLayout,
    vocabulary: Sequence,
    entry_at: Callable[[int, int], FlowEntry],
    inputs: Sequence[Mapping[str, int]],
) -> list[PipelineResult]:
    """Rebuild the results, resolving matched-entry refs through
    ``entry_at`` — on the parent, against the batch-pinned authoritative
    tables, so results reference the parent's own entries.

    ``inputs`` must be the packets the results were encoded against
    (the parent's own batch members); ``final_fields`` is rebuilt as
    input dict + overrides.
    """
    n = layout.count
    flags = reader.get("res/flags")
    metadata = reader.get("res/metadata").tolist()
    tables = _get_ragged(reader, "res/tables", n)
    ports = _get_ragged(reader, "res/ports", n)
    matched = _get_ragged(reader, "res/matched", n)
    actions = _get_ragged(reader, "res/actions", n)
    assert len(inputs) == n, (
        "results were encoded against their inputs; decoding needs the "
        "same packets"
    )
    final_fields = []
    for packet, overrides in zip(inputs, layout.overrides):
        fields = dict(packet)
        if overrides:
            fields.update(overrides)
        final_fields.append(fields)

    results: list[PipelineResult] = []
    for i in range(n):
        refs = matched[i]
        # Direct construction, mirroring the megaflow replay hot path.
        result = PipelineResult.__new__(PipelineResult)
        result.matched_entries = [
            entry_at(refs[j], refs[j + 1]) for j in range(0, len(refs), 2)
        ]
        result.applied_actions = [
            vocabulary[action_id] for action_id in actions[i]
        ]
        result.output_ports = ports[i]
        result.sent_to_controller = bool(flags[i] & _RESULT_SENT)
        result.dropped = bool(flags[i] & _RESULT_DROPPED)
        result.metadata = metadata[i]
        result.tables_visited = tables[i]
        result.final_fields = final_fields[i]
        results.append(result)
    return results


def _put_ragged(
    writer: BlockWriter,
    key: str,
    rows: Sequence[Sequence[int]],
    dtype: type[np.signedinteger] | type[np.unsignedinteger],
) -> None:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    writer.put(f"{key}/offsets", offsets)
    writer.put(
        f"{key}/values",
        np.fromiter(
            (value for row in rows for value in row),
            dtype=dtype,
            count=int(offsets[-1]),
        ),
    )


def _get_ragged(reader: BlockReader, key: str, count: int) -> list[list[int]]:
    offsets = reader.get(f"{key}/offsets")
    values = reader.get(f"{key}/values").tolist()
    return [
        values[offsets[i] : offsets[i + 1]] for i in range(count)
    ]
