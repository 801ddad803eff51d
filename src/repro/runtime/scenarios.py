"""Traffic-scenario catalog for the throughput runtime.

Each builder turns a rule set into a replayable :class:`Workload` — a
sequence of packet batches, optionally interleaved with flow-table
mutations — with a deterministic seed, so throughput comparisons across
lookup paths see byte-identical traffic.

Catalog (see :data:`SCENARIOS`):

- ``uniform`` — i.i.d. packets over a flow pool, every flow equally
  likely; the worst case for any cache.
- ``zipf`` — flow popularity follows a zipf law (heavy-tailed, like real
  traffic mixes); a small working set dominates, so microflow caches and
  per-batch memoization shine.
- ``bursty`` — back-to-back per-flow packet trains (geometric run
  lengths); locality is temporal rather than global.
- ``churn`` — zipf traffic interleaved with rule uninstall/reinstall
  cycles; exercises cache invalidation and incremental-update paths
  under load.
- ``uniform-wide`` — uniform flow draw with per-packet high-entropy
  noise in a schema field no rule constrains: every header is (nearly)
  unique, so exact-match microflow caching collapses to ~0 % hits while
  a megaflow cache — whose masks exclude the unconsulted noise field —
  still aggregates the trace into one entry per flow.
- ``timeout-churn`` — short-lived mice flows (idle/hard timeouts) cycled
  through the table under long-lived elephant traffic, with the virtual
  clock advanced every round so the expiry sweep — not explicit
  uninstalls — drives the invalidation pressure.

Every builder takes a ``frame_len`` knob controlling the on-wire frame
lengths stamped into the trace (``"fixed"``/int, ``"imix"``,
``"pareto"``, or ``None`` for length-less packets); lengths drive the
per-entry byte counters and the bits/sec numbers the benchmarks report,
and never affect classification (no rule matches on
:data:`~repro.packet.headers.FRAME_LEN_FIELD`).

Every builder also takes an ``advance=`` knob: when set, each packet
event is followed by an ``("advance", dt)`` virtual-clock event
(:func:`with_clock_advances`), so any scenario can exercise the
lifecycle sweep without changing its traffic shape.  Time in a workload
passes *only* through these events — that is what keeps every runner
path on the identical tick sequence.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.filters.rule import RuleSet
from repro.openflow.fields import REGISTRY
from repro.openflow.flow import FlowEntry
from repro.packet.batch import PacketBatch
from repro.packet.generator import PacketGenerator, TraceConfig, frame_lengths
from repro.packet.headers import FRAME_LEN_FIELD
from repro.runtime.batch import Workload

DEFAULT_SEED = 0x7AFF
DEFAULT_FLOWS = 128

#: Default frame-length knob: every scenario ships MTU-sized frames
#: unless told otherwise, so byte counters are nonzero out of the box.
DEFAULT_FRAME_DIST = "fixed"


def stamp_frame_lengths(
    trace: list[dict[str, int]],
    frame_len: str | int | None,
    seed: int,
) -> list[dict[str, int]]:
    """Attach on-wire frame lengths to a built trace.

    ``None`` leaves the trace length-less (byte counters stay zero).  A
    fixed length (an ``int`` or ``"fixed"``) stamps each *distinct* dict
    once, preserving the flow-pool aliasing the codec dedup and caches
    exploit.  Per-packet distributions (``"imix"`` / ``"pareto"``)
    rebuild every packet dict with its own length — aliasing is gone by
    construction, because two packets of one flow genuinely differ on
    the wire.  Either way the length rides in the field dict under
    :data:`~repro.packet.headers.FRAME_LEN_FIELD`, which no rule matches
    and no cache keys on.
    """
    if frame_len is None:
        return trace
    rng = np.random.default_rng(seed ^ 0xF7A3)
    if isinstance(frame_len, int) or frame_len == "fixed":
        value = frame_lengths(rng, 1, frame_len)[0]
        for fields in {id(f): f for f in trace}.values():
            fields[FRAME_LEN_FIELD] = value
        return trace
    lengths = frame_lengths(rng, len(trace), frame_len)
    return [
        dict(fields, **{FRAME_LEN_FIELD: length})
        for fields, length in zip(trace, lengths)
    ]


def columnar_workload(workload: Workload) -> Workload:
    """Re-emit a workload's packet events as columnar
    :class:`~repro.packet.batch.PacketBatch` containers.

    Each packet event becomes one batch (flow-pool aliasing turns into
    shared rows); :func:`~repro.runtime.batch.run_workload` then slices
    it into pipeline-sized views that share the event's column store, so
    vectorized key work is done once per event, not once per chunk.
    Mutation and advance events pass through untouched.  This is the
    one way to get a columnar workload: the builders below emit dict
    traces, and callers that want columns wrap them here.
    """
    events = tuple(
        ("packets", PacketBatch.from_dicts(event[1]))
        if event[0] == "packets" and not isinstance(event[1], PacketBatch)
        else event
        for event in workload.events
    )
    return Workload(
        name=workload.name,
        description=f"{workload.description} (columnar)",
        events=events,
    )


def with_clock_advances(workload: Workload, dt: int) -> Workload:
    """Follow every packet event with an ``("advance", dt)`` clock event.

    The uniform cadence ("one sweep per burst") is how the plain
    scenarios opt into lifecycle pressure; scenarios that need a bespoke
    advance schedule (``timeout_churn_workload``) emit their own advance
    events instead.  ``dt`` must be positive — a zero advance would
    sweep without moving time, which no cadence caller wants.
    """
    if dt < 1:
        raise ValueError(f"advance must be a positive tick count, got {dt}")
    events: list[tuple] = []
    for event in workload.events:
        events.append(event)
        if event[0] == "packets":
            events.append(("advance", dt))
    return Workload(
        name=workload.name,
        description=f"{workload.description} (advance {dt}/burst)",
        events=tuple(events),
    )


def _finish(workload: Workload, advance: int | None) -> Workload:
    """Shared builder epilogue: the optional clock cadence."""
    if advance is None:
        return workload
    return with_clock_advances(workload, advance)


def zipf_weights(n: int, s: float = 1.2) -> np.ndarray:
    """Unnormalized zipf popularity weights: rank ``k`` gets ``1 / k**s``."""
    if n < 1:
        raise ValueError("need at least one flow")
    ranks = np.arange(1, n + 1, dtype=float)
    return 1.0 / ranks**s


def flow_pool(
    rule_set: RuleSet,
    flow_count: int,
    seed: int,
) -> tuple[PacketGenerator, list[dict[str, int]]]:
    """Seeded flow pool over the rule set's first ``flow_count`` rules.

    Shared by every scenario builder here and by the open-loop arrival
    builders in :mod:`repro.runtime.streaming`, so a closed-loop
    workload and an arrival schedule built from the same (rule set,
    flow_count, seed) draw from byte-identical flows.
    """
    generator = PacketGenerator(TraceConfig(seed=seed))
    matches = [rule.to_match() for rule in rule_set.rules[:flow_count]]
    flows = generator.flow_pool(matches, fill_fields=rule_set.field_names)
    return generator, flows


def uniform_workload(
    rule_set: RuleSet,
    packet_count: int = 10_000,
    flow_count: int = DEFAULT_FLOWS,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
    advance: int | None = None,
) -> Workload:
    """Uniform i.i.d. traffic over the flow pool."""
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = stamp_frame_lengths(
        generator.sample_trace(flows, packet_count), frame_len, seed
    )
    workload = Workload(
        name="uniform",
        description=f"{packet_count} pkts uniform over {len(flows)} flows",
        events=(("packets", trace),),
    )
    return _finish(workload, advance)


def zipf_workload(
    rule_set: RuleSet,
    packet_count: int = 10_000,
    flow_count: int = DEFAULT_FLOWS,
    s: float = 1.2,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
    advance: int | None = None,
) -> Workload:
    """Zipf-skewed traffic: a few heavy flows dominate the trace."""
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = stamp_frame_lengths(
        generator.sample_trace(flows, packet_count, zipf_weights(len(flows), s)),
        frame_len,
        seed,
    )
    workload = Workload(
        name="zipf",
        description=(
            f"{packet_count} pkts zipf(s={s}) over {len(flows)} flows"
        ),
        events=(("packets", trace),),
    )
    return _finish(workload, advance)


def widen_rule_set(rule_set: RuleSet, noise_field: str = "tcp_src") -> RuleSet:
    """Extend a rule set's schema with a field no rule constrains.

    The widened schema makes lookup tables built from the set carry an
    (empty) engine for ``noise_field`` — the setting where exact-match
    microflow caches key on bits the classification never consults, and
    a wildcard (megaflow) cache wins.  Returns ``rule_set`` unchanged if
    the field is already in the schema.
    """
    if noise_field in rule_set.field_names:
        return rule_set
    widened = RuleSet(
        name=f"{rule_set.name}+{noise_field}",
        application=rule_set.application,
        field_names=(*rule_set.field_names, noise_field),
    )
    for rule in rule_set:
        widened.add(rule)
    return widened


def uniform_wide_workload(
    rule_set: RuleSet,
    packet_count: int = 10_000,
    flow_count: int = DEFAULT_FLOWS,
    noise_field: str = "tcp_src",
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
    advance: int | None = None,
) -> Workload:
    """Uniform traffic whose every packet carries fresh noise bits.

    Each packet is a uniform flow-pool draw with ``noise_field``
    overwritten by a fresh random value, so full-tuple working sets are
    ~``packet_count`` microflows wide.  Pair with :func:`widen_rule_set`
    so the noise field sits *inside* the table schema (outside it, the
    noise never reaches a cache key and the scenario degenerates to
    plain ``uniform``).
    """
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = generator.sample_trace(flows, packet_count)
    rng = np.random.default_rng(seed ^ 0x51DE)
    bits = min(REGISTRY[noise_field].bits, 30)
    noise = rng.integers(0, 1 << bits, size=packet_count)
    trace = [
        dict(fields, **{noise_field: int(value)})
        for fields, value in zip(trace, noise)
    ]
    trace = stamp_frame_lengths(trace, frame_len, seed)
    workload = Workload(
        name="uniform-wide",
        description=(
            f"{packet_count} pkts uniform over {len(flows)} flows, "
            f"per-packet random {noise_field}"
        ),
        events=(("packets", trace),),
    )
    return _finish(workload, advance)


def bursty_workload(
    rule_set: RuleSet,
    packet_count: int = 10_000,
    flow_count: int = DEFAULT_FLOWS,
    mean_burst: float = 16.0,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
    advance: int | None = None,
) -> Workload:
    """Packet-train traffic: geometric per-flow bursts."""
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = stamp_frame_lengths(
        generator.bursty_trace(flows, packet_count, mean_burst=mean_burst),
        frame_len,
        seed,
    )
    workload = Workload(
        name="bursty",
        description=(
            f"{packet_count} pkts in ~{mean_burst:.0f}-pkt bursts "
            f"over {len(flows)} flows"
        ),
        events=(("packets", trace),),
    )
    return _finish(workload, advance)


def churn_workload(
    rule_set: RuleSet,
    packet_count: int = 10_000,
    flow_count: int = DEFAULT_FLOWS,
    churn_rules: int = 8,
    rounds: int = 8,
    table_id: int = 0,
    seed: int = DEFAULT_SEED,
    entries: Sequence[FlowEntry] | None = None,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
    advance: int | None = None,
) -> Workload:
    """Zipf traffic interleaved with rule uninstall/reinstall cycles.

    Each round classifies a slice of the trace, then removes and
    immediately reinstalls ``churn_rules`` random entries of table
    ``table_id`` — the flow-mod pattern a controller produces — before
    the next slice.  Caches must flush on every mutation; action tables
    must not grow.

    The mutation events carry the rule set's own flow entries, so table
    ``table_id`` must use the rule set's full schema — i.e. a pipeline
    whose first table comes from
    :func:`~repro.core.builder.build_lookup_table`, not the per-field
    split (whose tables each match a different sub-schema).

    ``entries``, when given, supplies the exact
    :class:`~repro.openflow.flow.FlowEntry` objects the mutation events
    reference (instead of a fresh ``rule_set.to_flow_entries()``
    materialisation).  Pass the same objects the pipeline under test was
    built from and per-entry flow-stats counters survive churn — the
    reinstall puts the *same* object back, so conservation laws over
    entry counters stay exact.
    """
    generator, flows = flow_pool(rule_set, flow_count, seed)
    trace = stamp_frame_lengths(
        generator.sample_trace(flows, packet_count, zipf_weights(len(flows))),
        frame_len,
        seed,
    )
    entries = (
        list(entries) if entries is not None
        else list(rule_set.to_flow_entries())
    )
    rng = np.random.default_rng(seed ^ 0xC4)
    events: list[tuple] = []
    slice_len = max(1, packet_count // rounds)
    cursor = 0
    for _ in range(rounds):
        chunk = trace[cursor : cursor + slice_len]
        if chunk:
            events.append(("packets", chunk))
        cursor += slice_len
        for pick in rng.choice(len(entries), size=min(churn_rules, len(entries)), replace=False):
            entry = entries[int(pick)]
            events.append(("uninstall", table_id, entry.match, entry.priority))
            events.append(("install", table_id, entry))
    if cursor < packet_count:
        events.append(("packets", trace[cursor:]))
    workload = Workload(
        name="churn",
        description=(
            f"{packet_count} pkts zipf + {rounds}x{churn_rules} "
            f"rule uninstall/reinstall on table {table_id}"
        ),
        events=tuple(events),
    )
    return _finish(workload, advance)


def timeout_churn_workload(
    rule_set: RuleSet,
    packet_count: int = 10_000,
    flow_count: int = DEFAULT_FLOWS,
    elephant_count: int = 8,
    mice_per_round: int = 8,
    rounds: int = 8,
    mice_idle: int = 1,
    advance: int | None = 2,
    table_id: int = 0,
    seed: int = DEFAULT_SEED,
    frame_len: str | int | None = DEFAULT_FRAME_DIST,
) -> Workload:
    """Mice/elephant mix where the expiry sweep does the churning.

    The flow pool splits into ``elephant_count`` long-lived elephants
    (no timeouts, traffic every round) and a rotating cast of mice: each
    round replaces ``mice_per_round`` pool rules with fresh short-lived
    twins — alternating ``idle_timeout=mice_idle`` and
    ``hard_timeout=mice_idle`` so both removal reasons appear — serves
    them one round of zipf-mixed traffic, then advances the virtual
    clock past their deadlines.  Every round therefore ends in a mass
    expiry (flow-removed events, version bumps, cache revalidation) the
    way real OpenFlow deployments shed their short flows, without a
    single explicit uninstall carrying the churn.

    Each reincarnation of a mouse rule is a *fresh*
    :class:`~repro.openflow.flow.FlowEntry` twin (new counters, new
    lifecycle), never a reused object — a reused twin would keep its
    original install tick and final counters, double-counting against
    the flow-removed ledger.  The same rule makes the *workload* object
    single-use per runner: the twins ride inside the install events, so
    replaying one built workload through two runners would hand the
    second runner twins already carrying the first run's counters —
    rebuild with the same seed instead (traffic is byte-identical
    either way).  The default ``advance=2`` with
    ``mice_idle=1`` expires a round's mice at that round's closing
    sweep; pass a larger ``advance`` ratio to let mice linger across
    rounds.  ``advance=None`` disables the clock events entirely
    (degenerates to install-only churn; mice never expire).
    """
    if elephant_count < 1 or mice_per_round < 1:
        raise ValueError("need at least one elephant and one mouse per round")
    generator, flows = flow_pool(rule_set, flow_count, seed)
    if len(flows) <= elephant_count:
        raise ValueError(
            f"flow pool ({len(flows)}) must exceed elephant_count "
            f"({elephant_count}) to leave room for mice"
        )
    entries = list(rule_set.to_flow_entries())[: len(flows)]
    mice_pool = list(range(elephant_count, len(flows)))
    events: list[tuple] = []
    slice_len = max(1, packet_count // rounds)
    sent = 0
    for round_index in range(rounds):
        picks = [
            mice_pool[(round_index * mice_per_round + k) % len(mice_pool)]
            for k in range(min(mice_per_round, len(mice_pool)))
        ]
        round_flows = [flows[i] for i in range(elephant_count)]
        for slot, pool_index in enumerate(picks):
            original = entries[pool_index]
            twin = FlowEntry(
                match=original.match,
                priority=original.priority,
                instructions=original.instructions,
                cookie=original.cookie,
                idle_timeout=mice_idle if slot % 2 == 0 else 0,
                hard_timeout=0 if slot % 2 == 0 else mice_idle,
            )
            events.append(("uninstall", table_id, twin.match, twin.priority))
            events.append(("install", table_id, twin))
            round_flows.append(flows[pool_index])
        count = (
            slice_len if round_index < rounds - 1 else packet_count - sent
        )
        if count > 0:
            trace = generator.sample_trace(
                round_flows, count, zipf_weights(len(round_flows))
            )
            events.append(
                ("packets", stamp_frame_lengths(trace, frame_len, seed))
            )
            sent += count
        if advance is not None:
            events.append(("advance", advance))
    workload = Workload(
        name="timeout-churn",
        description=(
            f"{packet_count} pkts, {elephant_count} elephants + "
            f"{rounds}x{mice_per_round} mice expiring via "
            f"idle/hard={mice_idle} sweeps (advance={advance})"
        ),
        events=tuple(events),
    )
    return workload


#: The scenario catalog: name -> builder(rule_set, **kwargs) -> Workload.
SCENARIOS = {
    "uniform": uniform_workload,
    "uniform-wide": uniform_wide_workload,
    "zipf": zipf_workload,
    "bursty": bursty_workload,
    "churn": churn_workload,
    "timeout-churn": timeout_churn_workload,
}
