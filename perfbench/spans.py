"""In-memory spans around the calls into each cellbranch layer.

The benchmark wraps the public entry points of every module at each place
the package looks them up (modules import one another's functions by name,
so patching only the defining module would miss most calls).  Only
entry points that run once per batch, tree, kernel or file are wrapped;
per-step and per-node helpers are left alone so tracing stays cheap.

A span's self time is its duration minus the part of its interval that its
direct children cover.  Spans stay in memory and are aggregated at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Records nested spans in call order; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, counts: dict[str, float] | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            span.counts.update(counts)
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.index)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(a, span.start), min(b, span.end))
            for a, b in children.get(i, [])
            if min(b, span.end) > max(a, span.start)
        ]
        out.append(span.end - span.start - _covered(clipped))
    return out


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, other: "LayerStats") -> None:
        """Sum calls, times and counts; counts whose key starts with ``max_`` keep the maximum."""
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s
        for key, value in other.counts.items():
            if key.startswith("max_"):
                self.counts[key] = max(self.counts.get(key, value), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value


def aggregate(span_lists: list[list[Span]]) -> dict[str, LayerStats]:
    """Per span name: call count, summed self and inclusive time, combined counts."""
    out: dict[str, LayerStats] = {}
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            single = LayerStats(1, own, span.end - span.start, span.counts)
            out.setdefault(span.name, LayerStats()).add(single)
    return out


def child_count(spans: list[Span], parent_name: str, child_name: str) -> int:
    """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(
        1
        for span in spans
        if span.name == child_name
        and span.parent is not None
        and spans[span.parent].name == parent_name
    )


# --- wrappers -------------------------------------------------------------------

# (positional args, keyword args, result) -> counts recorded on the span
CountFn = Callable[[tuple, dict, Any], dict[str, float]]


def _wrap_function(tracer: Tracer, name: str, fn: Callable, count: CountFn | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, kwargs, result)
            return result
        finally:
            tracer.end(index, counts)

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn: Callable, count: CountFn | None) -> Callable:
    """Time only the generator's own resumptions, not the consumer's work between them."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            index = tracer.begin(name)
            counts = None
            try:
                item = next(gen)
                if count is not None:
                    counts = count(args, kwargs, item)
            except StopIteration:
                return
            finally:
                tracer.end(index, counts)
            yield item

    return wrapper


@dataclass(frozen=True)
class Target:
    """One entry point: defining module, attribute path inside it, span name."""

    module: str
    attr: str
    span: str
    count: CountFn | None = None
    generator: bool = False


class Installation:
    """Wrappers patched into every cellbranch module that holds the entry point."""

    def __init__(self, tracer: Tracer, targets: list[Target], package: str = "cellbranch"):
        self.patches: list[tuple[Any, str, Any]] = []
        for target in targets:
            owner = sys.modules[target.module]
            *path, leaf = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            make = _wrap_generator if target.generator else _wrap_function
            wrapped = make(tracer, target.span, fn, target.count)
            self._patch(owner, leaf, raw, classmethod(wrapped) if is_classmethod else wrapped)
            if path:
                continue  # methods are looked up on the class only
            for mod_name, module in list(sys.modules.items()):
                if module is sys.modules[target.module] or not (
                    mod_name == package or mod_name.startswith(package + ".")
                ):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, value, wrapped)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self.patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
