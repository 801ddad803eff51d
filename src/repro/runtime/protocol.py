"""The parent ↔ worker wire protocol, as named message types.

Every message crossing a shard pipe is one of the :class:`NamedTuple`
shapes below, so the protocol is statically checked: a parent-side
``send`` and the worker-side destructuring compile against the same
schema, and adding a field is a one-place change mypy traces to every
construction and unpacking site.

``NamedTuple`` (rather than ``TypedDict``/dataclass) is deliberate:
messages stay *tuples* on the wire — same pickle cost, same positional
indexing (``message[0]`` tag dispatch, ``message[1:]`` unpacking) the
transport has always used — so typed and historical call sites
interoperate and the pickled frames are byte-compatible with plain
tuples of the same shape.

Tag conventions:

- requests (parent → worker): ``"shm"`` (a batch in a shared-memory
  block), ``"close"`` (orderly shutdown);
- replies (worker → parent): ``"ok"`` (results in a worker-owned
  shared-memory block), ``"block"`` announcing a response-ring segment
  the worker is about to create (the parent's crash registry),
  ``"bye"`` acknowledging close;
- parent-internal: ``"inline"`` — a reply shape for sub-batches the
  parent classified in-process (degraded mode); it never crosses a
  pipe but shares the reply buffer with real worker replies.

Work requests carry their batch ``seq`` explicitly: a respawned worker
replays lost batches from the same request messages (re-sent, not
re-encoded), and its fault plan matches faults on the seq the parent
assigned, not on however many messages the replacement has seen.

Mutation-log entries ride inside requests as :data:`Mutation` tuples —
``("add", table_id, entry)`` / ``("remove", table_id, match, priority)``
/ ``("expire", table_id, match, priority)`` — the exact shapes
:class:`~repro.runtime.shard.ShardedBatchPipeline`'s log records.

``docs/architecture.md`` ("Sharded shm transport") situates this wire
protocol in the runtime layer stack.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from repro.openflow.actions import Action
from repro.openflow.flow import FlowEntry
from repro.openflow.match import Match
from repro.openflow.pipeline import PipelineResult
from repro.runtime.batch import BatchStats
from repro.runtime.transport import (
    FlowStatsDelta,
    PacketBlockLayout,
    ResultBlockLayout,
    Segment,
)


class AddMutation(NamedTuple):
    """One ``add_flow`` recorded in the mutation log."""

    kind: Literal["add"]
    table_id: int
    entry: FlowEntry


class RemoveMutation(NamedTuple):
    """One ``remove_flow`` recorded in the mutation log."""

    kind: Literal["remove"]
    table_id: int
    match: Match
    priority: int


class ExpireMutation(NamedTuple):
    """One timeout expiry recorded in the mutation log.

    Decided *only* by the parent's lifecycle sweep — workers never
    consult a clock, they just apply it as a removal — so replayed
    batches and respawned workers reconstruct the identical table state
    without any notion of time crossing the pipe."""

    kind: Literal["expire"]
    table_id: int
    match: Match
    priority: int


Mutation = AddMutation | RemoveMutation | ExpireMutation


class ShmRequest(NamedTuple):
    """Shared-memory work item: the batch travels as a block the worker
    attaches to; ``members_key`` names this worker's position array
    inside it, ``slot`` the response-ring slot to reply through.

    ``columnar`` is set when the batch was submitted as a
    :class:`~repro.packet.batch.PacketBatch` (the worker then classifies
    the block's columns in place); ``bypass`` asks the worker to skip
    its megaflow tier for this batch (the streaming ladder's rung 2).
    Both ride in the request template, so a replayed batch is
    classified exactly as the original was."""

    kind: Literal["shm"]
    seq: int
    slot: int
    mutations: tuple[Mutation, ...]
    block_name: str
    segments: tuple[Segment, ...]
    layout: PacketBlockLayout
    members_key: str
    columnar: bool
    bypass: bool


class CloseRequest(NamedTuple):
    """Orderly shutdown; the worker unmaps its blocks and replies
    :class:`ByeReply`."""

    kind: Literal["close"]


class ShmReply(NamedTuple):
    """Shared-memory reply: results stay columnar in the worker's
    response block; the parent decodes them against its own pinned
    tables via the layout + action vocabulary."""

    kind: Literal["ok"]
    block_name: str
    segments: tuple[Segment, ...]
    result_layout: ResultBlockLayout
    vocabulary: list[Action]
    mask_fields: tuple[str, ...]
    stats: BatchStats
    delta: FlowStatsDelta


class BlockAnnounce(NamedTuple):
    """Worker → parent: the response ring is about to (re)create a
    segment under this name.

    Sent *before* the creation, so the parent's crash-recovery block
    registry covers even a worker that dies mid-create — unlinking a
    name that was never created is a no-op, while the reverse gap (a
    segment created but never announced) would strand it."""

    kind: Literal["block"]
    slot: int
    name: str


class InlineReply(NamedTuple):
    """Parent-internal reply for a sub-batch classified in-process
    (degraded mode or a poison-batch replay).

    Never crosses a pipe: the parent parks it straight into its reply
    buffer so the collect path handles degraded shards through the
    same ``(seq, worker)`` machinery as live ones.  Results are already
    materialised, so no mask-fields/columnar payload rides along."""

    kind: Literal["inline"]
    results: list[PipelineResult]
    stats: BatchStats
    delta: FlowStatsDelta


class ByeReply(NamedTuple):
    """Shutdown acknowledgement; the pipe closes after it."""

    kind: Literal["bye"]


Request = ShmRequest | CloseRequest
Reply = ShmReply | BlockAnnounce | ByeReply
