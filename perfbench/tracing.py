"""Outside-in tracing: wrap functions at the attribute their caller looks up.

Each wrapped call records a span ``(op, parent, name, start_ns, end_ns)`` in
memory; ``parent`` is the index of the enclosing span or -1. Counting
wrappers only bump a counter, so their time stays inside the caller's span.
A wrapper may also count one exception class raised through it, which is
how failure paths that the program swallows further up become visible.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    op: int
    parent: int
    name: str
    start: int
    end: int


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``owner`` is a module or a class; ``name`` is the span or counter name.
    With ``count_only`` the wrapper records no span. ``error`` / ``error_name``
    count each ``error`` instance raised out of the call under ``error_name``.
    """

    owner: object
    attr: str
    name: str
    count_only: bool = False
    error: type | None = None
    error_name: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, target: Target):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        name, error, error_name = target.name, target.error, target.error_name

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if error is not None and isinstance(exc, error):
                    counts[error_name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(self.op, parent, name, start, end)

        return traced

    def _count_wrapper(self, fn, target: Target):
        counts, name = self.counts, target.name

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, targets):
        """Wrap every target; ``uninstall`` puts the original objects back."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in targets:
            original = vars(t.owner)[t.attr]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            make = self._count_wrapper if t.count_only else self._span_wrapper
            wrapped = make(fn, t)
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, classmethod(wrapped) if is_classmethod else wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered_ns(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def write_spans(path, spans, selfs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op,parent,name,start_ns,end_ns,self_ns\n")
        for s, own in zip(spans, selfs):
            fh.write(f"{s.op},{s.parent},{s.name},{s.start},{s.end},{own}\n")
