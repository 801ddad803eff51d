"""Span recorder for the traced benchmark run.

The recorder wraps named entry points of the program -- attributes of
classes, replaced for the duration of a ``with recorder.installed(...)``
block and restored afterwards -- and records one span per call: name,
start and end (``perf_counter_ns``), the enclosing span and a batch id.
Spans stay in compact in-memory arrays until the run ends, then
:meth:`SpanRecorder.save` writes them out.

A span's *self time* is its duration minus the time its child spans
cover.  The program is single-threaded in the traced process, so child
spans nest strictly inside their parent and self times sum to the
duration of the outermost spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``owner.attr`` recorded as span ``name``.

    The layer is the part of ``name`` before the first dot.  With
    ``opens_batch`` every call starts a new batch id, for runners whose
    batch calls the benchmark does not make itself.
    """

    name: str
    owner: type
    attr: str
    opens_batch: bool = False


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._batch = array("q")
        self._stack: list[int] = []
        #: Batch id stamped on new spans; closed-loop workloads set it
        #: before each runner call, ``opens_batch`` entry points bump it.
        self.batch_id = -1
        self._saved: list[tuple[type, str, bool, Any]] = []

    def __len__(self) -> int:
        return len(self._start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        """Drop every recorded span (the wrappers stay installed)."""
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        for lane in (self._name, self._start, self._end, self._parent, self._batch):
            del lane[:]

    # -- recording -----------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._batch.append(self.batch_id)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, point: EntryPoint, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self._intern(point.name)
        opens_batch = point.opens_batch
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if opens_batch:
                recorder.batch_id += 1
            index = recorder._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(index)

        return traced

    @contextmanager
    def installed(self, points: Iterable[EntryPoint]) -> Iterator[None]:
        """Wrap every entry point for the duration of the block."""
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        try:
            for point in points:
                had_own = point.attr in point.owner.__dict__
                raw = (
                    point.owner.__dict__[point.attr]
                    if had_own
                    else getattr(point.owner, point.attr)
                )
                self._saved.append((point.owner, point.attr, had_own, raw))
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(point, raw.__func__))
                else:
                    wrapped = self._wrap(point, raw)
                setattr(point.owner, point.attr, wrapped)
            yield
        finally:
            while self._saved:
                owner, attr, had_own, raw = self._saved.pop()
                if had_own:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "batch": np.frombuffer(self._batch, dtype=np.int64).copy(),
        }

    def summary(self) -> SpanSummary:
        if self._stack:
            raise RuntimeError("cannot summarise while a span is open")
        return SpanSummary(list(self.names), self.arrays())

    def save(self, path: Path) -> None:
        """Write every span out (compressed ``.npz``: one array per
        column plus the span names)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Self and inclusive times over a finished set of spans."""

    def __init__(self, names: list[str], columns: dict[str, np.ndarray]) -> None:
        self.names = names
        self.name = columns["name"]
        duration = columns["end"] - columns["start"]
        parent = columns["parent"]
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self.duration = duration
        self.parent = parent
        self.self_ns = duration - child

    def _ids(self, names: Iterable[str]) -> np.ndarray:
        wanted = set(names)
        return np.array(
            [i for i, name in enumerate(self.names) if name in wanted],
            dtype=np.int32,
        )

    def count(self, *names: str) -> int:
        return int(np.isin(self.name, self._ids(names)).sum())

    def inclusive_ns(self, *names: str) -> int:
        """Time inside the named spans, counting nested calls of the
        same names once (only spans whose parent is not one of them)."""
        ids = self._ids(names)
        inside = np.isin(self.name, ids)
        parent_name = np.where(
            self.parent >= 0, self.name[np.maximum(self.parent, 0)], -1
        )
        outer = inside & ~np.isin(parent_name, ids)
        return int(self.duration[outer].sum())

    def layer_self_ns(self) -> dict[str, int]:
        """Self time summed per layer."""
        totals: dict[str, int] = {}
        for name_id, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            total = int(self.self_ns[self.name == name_id].sum())
            totals[layer] = totals.get(layer, 0) + total
        return totals

    def root_ns(self) -> int:
        """Duration of the outermost spans (= sum of all self times)."""
        return int(self.duration[self.parent < 0].sum())
