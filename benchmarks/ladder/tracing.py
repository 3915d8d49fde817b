"""Spans recorded from the benchmark's own files, in its own process.

:class:`Tracer` wraps the public callables at each layer boundary
(nothing under ``src/`` changes), keeps every span in memory and
writes them out once, at the end.  A span is ``name, start, end,
parent, request``; a layer's **self time** is its span's duration
minus the part its child spans cover.

The traced runs keep exactly one request in flight, but that request
hops threads (client thread -> event loop -> admission pool), so the
open-span stack is one per tracer, not one per thread: whatever span
is innermost *in time* is the parent, whichever thread opened it.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    request: int | None
    end: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[Span] = []
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording --------------------------------------------------------
    def begin(self, name: str) -> Span:
        with self._lock:
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, time.perf_counter(), parent, self.request)
            self.spans.append(span)
            self._open.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._open.remove(span)

    def wrap(self, owner: Any, attr: str, name: str,
             note: Callable[[Any], dict] | None = None) -> None:
        """Replace ``owner.attr`` by a version that records a span.

        *owner* is a class or a module; classmethods, staticmethods and
        coroutine functions keep their kind.  *note* turns the call's
        return value into span ``meta`` (counts measured where the work
        happens).
        """
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer.finish(span)
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    result = func(*args, **kwargs)
                    if note is not None:
                        span.meta.update(note(result))
                    return result
                finally:
                    tracer.finish(span)

        setattr(owner, attr, kind(traced) if kind else traced)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """span id -> duration minus the children's durations."""
        own = {s.id: s.duration for s in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def write_jsonl(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request,
                    "self_s": own[s.id], **({"meta": s.meta} if s.meta else {}),
                }) + "\n")
