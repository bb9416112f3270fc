"""Nested, monotonic-clock spans: the tracing pillar of ``repro.obs``.

A :class:`Tracer` records :class:`SpanRecord` objects on a stack-shaped
timeline: entering a span pushes it, exiting pops it and freezes its end
time, so the records form a well-nested tree (every child interval lies
inside its parent's).  Times are seconds relative to the tracer's epoch
(its construction instant on the monotonic clock), which makes traces
from one run directly comparable and keeps wall-clock jumps out.

Use :class:`Span` through the module-level facade (``obs.span(...)`` /
``@obs.traced``) rather than instantiating it directly — the facade
returns a free no-op when tracing is disabled, which is what keeps the
table-engine hot path within noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.clock import monotonic

__all__ = ["NULL_SPAN", "Span", "SpanRecord", "Tracer"]


@dataclass
class SpanRecord:
    """One completed (or still-open) span on a tracer's timeline."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view (attrs sorted for deterministic export)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }


class Span:
    """Context manager recording one interval on a tracer.

    Created by :meth:`Tracer.span`.  Attributes set via :meth:`set` (or
    the constructor kwargs) land in the exported record; an exception
    escaping the body is recorded as ``error`` before re-raising.
    """

    __slots__ = ("_tracer", "_record", "_metric")

    def __init__(self, tracer: "Tracer", record: SpanRecord, metric: Optional[str]):
        self._tracer = tracer
        self._record = record
        self._metric = metric

    @property
    def name(self) -> str:
        return self._record.name

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (rows in/out, status, ...); chainable."""
        self._record.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self._record.attrs.setdefault(
                "error", f"{exc_type.__name__}: {exc}"
            )
        self._tracer._close(self._record, self._metric)
        return False


class _NullSpan:
    """The do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    name = ""

    def set(self, **_attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one run.

    Parameters
    ----------
    clock:
        Injectable monotonic clock (tests pass a fake).  The tracer's
        epoch is the clock value at construction; all span times are
        relative to it.
    observe:
        Optional callback ``(metric_name, duration_ms)`` invoked when a
        span created with ``metric=...`` closes — the facade wires this
        to the metrics registry so kernel spans feed histograms without
        the tracer importing metrics.
    on_leak:
        Optional callback ``(span_name)`` invoked when an outer span
        closes over a still-open inner span (the inner span is *leaked*:
        it was force-popped off the stack and its interval will never
        close unless its exit eventually runs out of order).  The facade
        wires this to the ``trace.spans_leaked`` counter.
    """

    def __init__(self, clock=monotonic, observe=None, on_leak=None):
        self._clock = clock
        self._observe = observe
        self._on_leak = on_leak
        self.epoch = clock()
        self.spans: List[SpanRecord] = []
        self._stack: List[int] = []
        self._by_id: Dict[int, SpanRecord] = {}
        self._leaked: Dict[int, str] = {}
        self._hooks: List[Any] = []
        self._next_id = 1

    # -- hooks --------------------------------------------------------------
    def add_hook(self, hook: Any) -> None:
        """Register an object with ``on_open(record)`` / ``on_close(record)``.

        Hooks are how the allocation profiler rides the span lifecycle
        without the tracer importing it; the empty-list check keeps the
        unhooked path free.
        """
        if hook not in self._hooks:
            self._hooks.append(hook)

    def remove_hook(self, hook: Any) -> None:
        if hook in self._hooks:
            self._hooks.remove(hook)

    # -- recording ----------------------------------------------------------
    def span(self, name: str, metric: Optional[str] = None, **attrs: Any) -> Span:
        """Open a span; use as a context manager to close it."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_s=self._clock() - self.epoch,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(record)
        self._by_id[record.span_id] = record
        self._stack.append(record.span_id)
        if self._hooks:
            for hook in self._hooks:
                hook.on_open(record)
        return Span(self, record, metric)

    def _close(self, record: SpanRecord, metric: Optional[str]) -> None:
        record.end_s = self._clock() - self.epoch
        # Exiting out of order (a leaked inner span) must not corrupt the
        # stack for outer spans: pop through the closing span's id,
        # recording every span popped early as leaked.  A close whose id
        # is no longer on the stack is the other half of the same story —
        # the span was force-popped earlier and its exit finally ran — so
        # it un-leaks rather than wiping the stack for everyone else.
        if record.span_id in self._stack:
            while self._stack:
                popped = self._stack.pop()
                if popped == record.span_id:
                    break
                leaked_rec = self._by_id.get(popped)
                leaked_name = leaked_rec.name if leaked_rec is not None else "?"
                self._leaked[popped] = leaked_name
                if self._on_leak is not None:
                    self._on_leak(leaked_name)
        else:
            self._leaked.pop(record.span_id, None)
        if metric is not None and self._observe is not None:
            self._observe(metric, record.duration_s * 1000.0)
        if self._hooks:
            for hook in self._hooks:
                hook.on_close(record)

    # -- inspection ---------------------------------------------------------
    @property
    def open_spans(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.end_s is None]

    @property
    def spans_leaked(self) -> int:
        """Spans force-popped by an outer close that never closed themselves."""
        return len(self._leaked)

    def leaked_names(self) -> List[str]:
        """Sorted, de-duplicated names of currently-leaked spans."""
        return sorted(set(self._leaked.values()))

    def stack_names(self) -> List[str]:
        """Names of the currently-open span stack, outermost first.

        Safe to call from another thread (the sampler): it snapshots the
        stack list and tolerates ids that close mid-iteration.
        """
        names: List[str] = []
        for span_id in list(self._stack):
            record = self._by_id.get(span_id)
            if record is not None:
                names.append(record.name)
        return names

    def closed_spans(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.end_s is not None]

    def find(self, name: str) -> List[SpanRecord]:
        """All spans with the given name, in start order."""
        return [s for s in self.spans if s.name == name]

    def children(self, span_id: Optional[int]) -> List[SpanRecord]:
        """Direct children of a span id (``None`` for the roots)."""
        return [s for s in self.spans if s.parent_id == span_id]

    def top_spans(self, n: int = 10) -> List[SpanRecord]:
        """The ``n`` longest closed spans, ties broken by start order."""
        closed = self.closed_spans()
        closed.sort(key=lambda s: (-s.duration_s, s.start_s, s.span_id))
        return closed[:n]

    def __repr__(self) -> str:
        return (
            f"Tracer(spans={len(self.spans)}, open={len(self.open_spans)})"
        )
