"""In-memory span tracing for the traced benchmark run.

A ``Tracer`` hands out wrappers that record one ``Span`` per call: name,
start, end, the span that was open when the call began (its parent) and
the benchmark job it belongs to.  ``Patched`` installs such wrappers on
module or class attributes for the length of a ``with`` block and puts
the original objects back on exit, so code outside the block never runs
wrapped.  Spans stay in memory; the caller turns them into metrics once
the run is over.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every wrapper it made; ``job`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span called name.

        before(args, kwargs) and after(args, kwargs, result) return dicts
        merged into the span's attrs; an exception is recorded by type
        and re-raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, 0.0, parent, self.job)
            if before is not None:
                span.attrs.update(before(args, kwargs))
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after is not None:
                span.attrs.update(after(args, kwargs, result))
            return result

        return traced


@dataclass(frozen=True)
class Patch:
    """One attribute to wrap: owner is a module or a class."""

    owner: Any
    attr: str
    span: str
    before: Callable | None = None
    after: Callable | None = None


class Patched:
    """Context manager that wraps every patch target and restores it on exit.

    The original attribute objects are read from the owner's own
    ``__dict__`` and put back unchanged, so ``vars(owner)[attr] is original``
    holds again after the block, classmethods included.
    """

    def __init__(self, tracer: Tracer, patches: list[Patch]):
        self.tracer = tracer
        self.patches = patches
        self.saved: list[tuple[Any, str, Any]] = []

    def __enter__(self):
        try:
            for p in self.patches:
                raw = vars(p.owner)[p.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.tracer.wrap(
                        p.span, raw.__func__, p.before, p.after))
                else:
                    wrapped = self.tracer.wrap(p.span, raw, p.before, p.after)
                self.saved.append((p.owner, p.attr, raw))
                setattr(p.owner, p.attr, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self.saved:
            owner, attr, raw = self.saved.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=lambda c: c.start):
            c_lo, c_hi = max(c.start, s.start), min(c.end, s.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append(s.duration - covered)
    return out
