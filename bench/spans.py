"""In-memory span recorder for the traced benchmark run.

A span is (id, parent id, name, start, end) plus the run id of the recorder
that holds it.  Spans carry names and ``time.perf_counter`` readings only,
never arguments or results, so nothing a client submits can reach a trace
file.  On Linux ``perf_counter`` reads CLOCK_MONOTONIC, which all processes
on the host share, so spans from the generator and the daemons can be
placed on one time line.

Wrappers are installed where the program looks a function up (a module
attribute or a class attribute), so calls made through that name are
timed and calls through other names are not.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        index = self.names.get(name)
        if index is None:
            index = self.names.setdefault(name, len(self.names))
        return index

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self._name_id(name), start, end))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a timed wrapper until ``unwrap_all``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(original, staticmethod)
        fn = original.__func__ if is_static else original

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(owner, attr, staticmethod(timed) if is_static else timed)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        names = sorted(self.names, key=self.names.get)
        Path(path).write_text(
            json.dumps({"run_id": self.run_id, "names": names, "spans": self.spans}))


class SpanTable:
    """Spans of one recorder as arrays, with self time per span."""

    def __init__(self, dump: dict):
        self.names = dump["names"]
        rows = np.asarray(dump["spans"], dtype=np.float64).reshape(-1, 5)
        order = np.argsort(rows[:, 0], kind="stable")
        rows = rows[order]
        ids = rows[:, 0].astype(np.int64)
        self.name = rows[:, 2].astype(np.int64)
        self.start = rows[:, 3]
        self.end = rows[:, 4]
        self.duration = self.end - self.start
        parent_ids = rows[:, 1].astype(np.int64)
        self.parent = np.full(len(ids), -1, dtype=np.int64)
        has_parent = parent_ids >= 0
        self.parent[has_parent] = np.searchsorted(ids, parent_ids[has_parent])
        children = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                               minlength=len(ids))
        self.self_time = self.duration - children

    @staticmethod
    def read(path: Path) -> "SpanTable":
        return SpanTable(json.loads(Path(path).read_text()))

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        selected = self.name == self.names.index(name)
        if parent is not None:
            if parent not in self.names:
                return np.zeros(len(self.name), dtype=bool)
            has_parent = self.parent >= 0
            parent_name = np.full(len(self.name), -1, dtype=np.int64)
            parent_name[has_parent] = self.name[self.parent[has_parent]]
            selected &= parent_name == self.names.index(parent)
        return selected

    def within(self, t0: float, t1: float) -> np.ndarray:
        return (self.start >= t0) & (self.end <= t1)
