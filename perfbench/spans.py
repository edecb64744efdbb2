"""Benchmark-side spans: a per-thread stack, kept in memory, dumped as JSON lines.

Every span records its name, start, end, parent span and request id.
Spans nest through a stack private to the opening thread, so spans
opened on different threads never adopt each other as parents (the
process-wide active-span slot of ``repro.obs`` would).

A disabled tracer hands out one shared no-op context, so untraced runs
pay an attribute check per call and nothing else.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns

_NOOP = contextlib.nullcontext()


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, rid=None):
        """Context manager timing one call; nests under the thread's open span."""
        if not self.enabled:
            return _NOOP
        return self._span(name, rid)

    @contextlib.contextmanager
    def _span(self, name, rid):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter_ns()
        try:
            yield sid
        finally:
            end = perf_counter_ns()
            stack.pop()
            self._append(sid, name, start, end, parent, rid)

    def _append(self, sid, name, start, end, parent, rid):
        with self._lock:
            self.spans.append((sid, name, start, end, parent, rid))

    def layer_self_seconds(self) -> dict:
        """Self time summed per layer (the span name's first dotted part).

        A span's self time is its duration minus the part of it that its
        child spans cover (the union of their intervals, clipped to it).
        """
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[name.split(".", 1)[0]] += (end - start - covered) / 1e9
        return dict(out)

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": rid,
                        }
                    )
                    + "\n"
                )
