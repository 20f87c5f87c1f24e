"""In-memory spans around calls into the program's public functions.

A span records name, start, end, parent span and job id.  Spans stay
in memory while the workload runs and go to a JSONL file at exit, so
recording costs one ``perf_counter`` pair and one list append per call.
A disabled recorder records nothing: the untraced runs that give the
end-to-end metrics use one.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from measure import interval_cover


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans on one thread."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, job: str | None = None):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = parent.job
        record = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=parent.id if parent is not None else None,
            job=job,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap_method(self, obj, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a spanned call to the original.

        The wrapper is an instance attribute, so the object's own
        ``self.method(...)`` calls go through it too and nest.
        """
        original = getattr(obj, method)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, method, spanned)

    def write_jsonl(self, path: str, header: dict | None = None) -> None:
        with open(path, "w") as fh:
            if header is not None:
                fh.write(json.dumps({"kind": "header", **header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"kind": "span", **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration
        - interval_cover(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def total_self(spans: list[Span], name: str) -> float:
    """Summed self time of every span called *name*."""
    own = self_times(spans)
    return sum(own[s.id] for s in spans if s.name == name)
