"""Span tracing around the package's public functions, for the traced run.

The tracer replaces each traced function, in every module namespace that
binds it (for example ``finder.pair_colour_counts`` as well as
``core.pair_colour_counts``), by a wrapper that calls the original once and
records a span: name, start, end, parent span and instance id, plus counts
read from the arguments and the return value.  Nothing in the package's
source changes, and ``restore`` puts every original back.

Spans are recorded only while the tracer is armed, which the workloads do
around program work; the benchmark's own checks call the same functions
unarmed and leave no spans.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance: int | None = None
        self.armed = False
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.instance, {"errors": 1})
                )
                raise
            end = time.perf_counter()
            self._stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            self.spans.append(Span(span_id, name, start, end, parent, self.instance, counts))
            return result

        return traced

    def install(self, namespaces, targets) -> None:
        """Wrap each target (module, attribute, span name, counter) wherever
        one of the namespaces binds the original function."""
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def restore(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=dict)


def totals_by_name(spans: list[Span]) -> dict[str, SpanTotals]:
    selfs = self_times(spans)
    out: dict[str, SpanTotals] = {}
    for span in spans:
        agg = out.setdefault(span.name, SpanTotals())
        agg.calls += 1
        agg.self_s += selfs[span.id]
        agg.total_s += span.duration
        for key, value in span.counts.items():
            agg.counts[key] = agg.counts.get(key, 0) + value
    return out


def root_seconds(spans: list[Span]) -> float:
    """Time covered by spans without a parent; equals the sum of all self
    times, since self times partition each root span."""
    return sum(span.duration for span in spans if span.parent is None)
