"""In-memory span tracer that times calls into the package from outside.

The tracer wraps methods of the package's classes for the duration of a
traced run — the model's modules, the engine step, the coach's per-pair
hooks, the scheduler pump, the server queue, the journal appends — and
records one span per call: ``(id, name, start, end, parent, request)``.
The parent is the span open on the same thread when the call started,
so a layer's *self time* is its span minus the spans it caused.  Nothing
in the package is modified on disk and untraced runs never install a
wrapper.  Only this process is traced: fleet workers fork before the
wrappers go in.

A wrap target that the package no longer defines raises
:class:`MissingTarget`, so a refactor that renames or moves a traced
method fails the traced run instead of quietly zeroing its metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class MissingTarget(AttributeError):
    """A traced method is not defined where the tracer expects it."""


class Tracer:
    """Spans, samples and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Per-call samples keyed by name (e.g. queue waits, KV snapshots).
        self.samples: dict[str, list] = defaultdict(list)
        #: Scalar accumulators keyed by name (e.g. GEMM flop counts).
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, cls: type, method: str, name: str, request=None,
             value=None, before=None, after=None) -> None:
        """Record a span named ``name`` around every ``cls.method`` call.

        ``request(args)`` gives the span's request id and
        ``value(args, kwargs)`` a number stored on the span (rows).
        ``before(args)`` and ``after(args, out)`` run just outside the
        timed interval, to sample state.  ``args`` includes ``self``.
        """
        original = cls.__dict__.get(method)
        if original is None:
            raise MissingTarget(
                f"{cls.__module__}.{cls.__name__} defines no {method!r}; "
                "update perfbench/layers.py to the new layer boundary"
            )
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((
                    sid, name, start, end, parent,
                    request(args) if request is not None else None,
                    value(args, kwargs) if value is not None else None,
                ))
            if after is not None:
                after(args, out)
            return out

        setattr(cls, method, traced)
        self._patched.append((cls, method, original))

    def unwrap_all(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON line (read back with ``json``)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, req, _ in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": round(start, 7),
                    "end": round(end, 7), "parent": parent,
                    "request": req,
                }))
                fh.write("\n")


class SpanIndex:
    """Read-side helpers over a tracer's spans: durations and self times."""

    def __init__(self, spans: list[tuple]):
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.child_time: dict[int, float] = defaultdict(float)
        self.child_time_by: dict[tuple[int, str], float] = defaultdict(float)
        for span in spans:
            sid, name, start, end, parent, _, _ = span
            self.by_name[name].append(span)
            if parent:
                self.child_time[parent] += end - start
                self.child_time_by[(parent, name)] += end - start

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, start, end, _, _, _ in self.by_name[name]]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        """Σ over ``name`` spans of (duration − time in child spans)."""
        return sum(
            (end - start) - self.child_time[sid]
            for sid, _, start, end, _, _, _ in self.by_name[name]
        )

    def child_total(self, name: str, child_names: tuple[str, ...]) -> float:
        """Time ``name`` spans spent in direct children named ``child_names``."""
        return sum(
            self.child_time_by[(span[0], child)]
            for span in self.by_name[name]
            for child in child_names
        )

    def values(self, name: str) -> list:
        return [span[6] for span in self.by_name[name] if span[6] is not None]

    def by_request(self, names: tuple[str, ...]) -> dict:
        """Summed duration per request id over spans named ``names``."""
        out: dict = defaultdict(float)
        for name in names:
            for _, _, start, end, _, req, _ in self.by_name[name]:
                if req is not None:
                    out[req] += end - start
        return out
