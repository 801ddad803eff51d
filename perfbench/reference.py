"""Reference check behind ``error_rate``.

Each distinct flow of a workload is classified once with an uncached
reference: the ``FlowTable`` linear scan where the table is small, the
per-packet decomposition lookup (``OpenFlowPipeline.process`` over the
``OpenFlowLookupTable``) where a scan is too slow.  From those outcomes
and the packets the runner actually processed, the check derives the
expected per-entry packet/byte counters and the matched / dropped /
controller totals, and compares them with the runner's.  Every
comparison is one check; a check fails when the two disagree.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.openflow.pipeline import OpenFlowPipeline
from repro.openflow.table import FlowTable
from repro.packet.headers import FRAME_LEN_FIELD

#: At most this many failure messages are kept (all are counted).
MAX_MESSAGES = 20


@dataclass
class Checks:
    """Checks made and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, label: str, got: Any, want: Any) -> None:
        self.attempted += 1
        if got != want:
            self.fail(f"{label}: got {got!r}, want {want!r}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def flow_key(fields: Mapping[str, int]) -> tuple:
    """A packet's header, without its on-wire length."""
    return tuple(sorted(item for item in fields.items() if item[0] != FRAME_LEN_FIELD))


def entry_key(entry: Any) -> tuple:
    return (entry.match, entry.priority)


class FlowIndex:
    """Interns distinct flows; a trace becomes per-packet flow ids."""

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        self.flows: list[Mapping[str, int]] = []

    def __len__(self) -> int:
        return len(self.flows)

    def index(self, trace: Iterable[Mapping[str, int]]) -> tuple[np.ndarray, np.ndarray]:
        """Per-packet ``(flow id, frame length)`` arrays of a trace."""
        ids: list[int] = []
        frames: list[int] = []
        for fields in trace:
            key = flow_key(fields)
            flow = self._ids.get(key)
            if flow is None:
                flow = self._ids[key] = len(self.flows)
                self.flows.append(fields)
            ids.append(flow)
            frames.append(int(fields.get(FRAME_LEN_FIELD, 0)))
        return np.array(ids, dtype=np.int64), np.array(frames, dtype=np.int64)


@dataclass(frozen=True)
class Outcome:
    """What the reference says happens to one flow."""

    entry: tuple | None
    matched_entries: int
    dropped: bool
    controller: bool

    @classmethod
    def of(cls, result: Any) -> Outcome:
        """The parts of a ``PipelineResult`` the check compares."""
        matched = result.matched_entries
        return cls(
            entry=entry_key(matched[0]) if matched else None,
            matched_entries=len(matched),
            dropped=result.dropped,
            controller=result.sent_to_controller,
        )


def scan_reference(entries: Iterable[Any], miss_policy: Any) -> OpenFlowPipeline:
    """A one-table linear-scan pipeline over fresh copies of the rules."""
    table = FlowTable(table_id=0)
    for entry in entries:
        table.add(entry)
    return OpenFlowPipeline([table], miss_policy=miss_policy)


def classify(reference: OpenFlowPipeline, flows: Iterable[Mapping[str, int]]) -> list[Outcome]:
    """Reference outcome of every flow (one uncached ``process`` each)."""
    return [Outcome.of(reference.process(dict(fields))) for fields in flows]


@dataclass(frozen=True)
class Observed:
    """The runner's counters, captured before the reference runs (a
    decomposition reference credits the same entries it reads)."""

    totals: dict[str, int]
    entries: dict[tuple, tuple[int, int]]

    @classmethod
    def capture(cls, totals: Mapping[str, int], table: Iterable[Any]) -> Observed:
        return cls(
            totals=dict(totals),
            entries={
                entry_key(e): (e.stats.packet_count, e.stats.byte_count) for e in table
            },
        )


def compare(
    checks: Checks,
    observed: Observed,
    outcomes: list[Outcome],
    flow_packets: np.ndarray,
    flow_bytes: np.ndarray,
) -> None:
    """Expected counters from per-flow packet/byte counts, vs observed.

    ``flow_packets[f]`` / ``flow_bytes[f]`` are how many packets (and
    bytes) of flow ``f`` the runner processed.
    """
    want = {"packets": 0, "matched": 0, "dropped": 0, "sent_to_controller": 0,
            "flow_packets": 0, "flow_bytes": 0}
    per_entry: dict[tuple, list[int]] = {}
    for outcome, packets, nbytes in zip(outcomes, flow_packets.tolist(), flow_bytes.tolist()):
        if not packets:
            continue
        want["packets"] += packets
        want["matched"] += packets if outcome.matched_entries else 0
        want["dropped"] += packets if outcome.dropped else 0
        want["sent_to_controller"] += packets if outcome.controller else 0
        want["flow_packets"] += packets * outcome.matched_entries
        want["flow_bytes"] += nbytes * outcome.matched_entries
        if outcome.entry is not None:
            slot = per_entry.setdefault(outcome.entry, [0, 0])
            slot[0] += packets
            slot[1] += nbytes
    for name, value in want.items():
        checks.expect(f"total {name}", observed.totals.get(name), value)
    for key in per_entry.keys() - observed.entries.keys():
        checks.fail(f"reference entry {key!r} is not installed in the runner")
    for key, (packets, nbytes) in observed.entries.items():
        expected = per_entry.get(key, (0, 0))
        checks.expect(f"entry {key!r} packets", packets, expected[0])
        checks.expect(f"entry {key!r} bytes", nbytes, expected[1])
