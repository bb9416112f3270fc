"""``repro.obs`` — tracing, metrics, lineage, and run reports.

The pillars (see ``docs/OBSERVABILITY.md``):

* **tracing** — ``obs.span("stage.ingest", rows=...)`` / ``@obs.traced``
  record nested monotonic-clock spans, exported as JSONL and as a Chrome
  ``chrome://tracing`` view;
* **metrics** — ``obs.counter("ingest.rows_quarantined")``,
  ``obs.histogram("kernel.groupby_ms")``: a process-local registry with
  deterministic JSON snapshots, diffable between runs.
  :mod:`repro.obs.memory` rides on this pillar, publishing per-table
  byte accounting as ``table.bytes.*`` gauges;
* **lineage** — :mod:`repro.obs.lineage` fingerprints every table
  entering/leaving a pipeline stage and folds the stage graph into a
  deterministic ``provenance.json``;
* **run report** — :mod:`repro.obs.report` folds the pipeline's stage
  results, the metrics snapshot, and the hottest spans into
  ``run_report.json`` + a rendered text table at pipeline exit.
  :mod:`repro.obs.bench` tracks performance over time in the same spirit
  (``BENCH_history.jsonl`` + ``repro bench compare``).

Everything is **off by default** and free when off: ``obs.span`` returns
a shared no-op, metric handles are null objects, ``obs.active_lineage()``
is ``None``, and ``@obs.traced`` calls straight through — the table-engine
hot path pays one module-global check.  ``obs.enable(trace=...,
metrics=..., lineage=...)`` (wired to ``--trace`` / ``--metrics`` on the
CLI) turns the pillars on independently; a span created with
``metric="kernel.groupby_ms"`` feeds that histogram even when tracing
itself is off, so ``--metrics`` alone still sees kernel timings.

This package depends only on the standard library (plus numpy in the
lineage/bench submodules, which import lazily), and no repro module
below it — it is importable from anywhere in the tree without cycles.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Iterable, Optional, Union

from repro.obs import clock as _clockmod
from repro.obs.logcfg import (
    configure_logging,
    current_stage,
    get_logger,
    set_run_context,
    stage_scope,
)
from repro.obs.metrics import (
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.trace import NULL_SPAN, Span, SpanRecord, Tracer

__all__ = [
    "configure_logging",
    "counter",
    "current_stage",
    "disable",
    "enable",
    "enabled",
    "active_lineage",
    "gauge",
    "get_logger",
    "histogram",
    "lineage_recorder",
    "metrics_enabled",
    "metrics_registry",
    "metrics_snapshot",
    "reset",
    "set_run_context",
    "span",
    "stage_scope",
    "traced",
    "tracer",
]


class _State:
    """The process-local toggle every instrumented call site checks."""

    __slots__ = ("tracer", "registry", "metrics_on", "clock",
                 "lineage_rec", "lineage_on")

    def __init__(self):
        self.tracer: Optional[Tracer] = None
        self.registry: Optional[MetricsRegistry] = None
        self.metrics_on = False
        self.clock = _clockmod.monotonic
        self.lineage_rec = None  # LineageRecorder, imported lazily
        self.lineage_on = False


_state = _State()

#: Serializes span-fed histogram updates: the health service observes its
#: request timings from many handler threads, and an exact-sum update is
#: not atomic.  Taken only while metrics are on.
_metric_lock = threading.Lock()


def _observe_metric(name: str, duration_ms: float) -> None:
    if _state.metrics_on and _state.registry is not None:
        with _metric_lock:
            _state.registry.histogram(name).observe(duration_ms)


def _observe_leak(_span_name: str) -> None:
    if _state.metrics_on and _state.registry is not None:
        _state.registry.counter("trace.spans_leaked").inc()


# -- lifecycle ---------------------------------------------------------------
def enable(
    trace: bool = True,
    metrics: bool = True,
    clock: Callable[[], float] = None,
    lineage: bool = False,
) -> None:
    """Turn pillars on (idempotent; existing tracer/registry/recorder kept)."""
    if clock is not None:
        _state.clock = clock
    if trace and _state.tracer is None:
        _state.tracer = Tracer(
            clock=_state.clock, observe=_observe_metric, on_leak=_observe_leak
        )
    if metrics:
        if _state.registry is None:
            _state.registry = MetricsRegistry()
        _state.metrics_on = True
    if lineage:
        if _state.lineage_rec is None:
            from repro.obs.lineage import LineageRecorder

            _state.lineage_rec = LineageRecorder()
        _state.lineage_on = True


def disable() -> None:
    """Turn the pillars off; recorded data stays readable until :func:`reset`."""
    _state.tracer = None
    _state.metrics_on = False
    _state.lineage_on = False


def reset() -> None:
    """Disable and drop all recorded spans, metrics, and lineage (tests)."""
    disable()
    _state.registry = None
    _state.lineage_rec = None
    _state.clock = _clockmod.monotonic


def enabled() -> bool:
    """Whether tracing is on — the cheap guard for hot-path call sites."""
    return _state.tracer is not None


def metrics_enabled() -> bool:
    return _state.metrics_on


def tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` while tracing is disabled."""
    return _state.tracer


def active_lineage():
    """The active lineage recorder, or ``None`` while lineage is off.

    This is the hot-path gate: the pipeline checks ``obs.active_lineage()
    is not None`` once per run, so runs without lineage never fingerprint.
    (Named ``active_lineage`` because the bare name ``lineage`` is taken
    by the :mod:`repro.obs.lineage` submodule.)
    """
    return _state.lineage_rec if _state.lineage_on else None


def lineage_recorder():
    """This run's recorder regardless of the on/off flag (export path)."""
    return _state.lineage_rec


def metrics_registry() -> Optional[MetricsRegistry]:
    """The registry holding this run's metrics (``None`` if never enabled)."""
    return _state.registry


def metrics_snapshot() -> dict:
    """Snapshot of the current registry (empty shape if none exists)."""
    if _state.registry is None:
        return MetricsRegistry().snapshot()
    return _state.registry.snapshot()


# -- tracing -----------------------------------------------------------------
class _MetricOnlySpan:
    """Times a block for a histogram when tracing is off but metrics on."""

    __slots__ = ("_metric", "_t0")

    name = ""

    def __init__(self, metric: str):
        self._metric = metric
        self._t0 = 0.0

    def set(self, **_attrs: Any) -> "_MetricOnlySpan":
        return self

    def __enter__(self) -> "_MetricOnlySpan":
        self._t0 = _state.clock()
        return self

    def __exit__(self, *_exc) -> bool:
        _observe_metric(self._metric, (_state.clock() - self._t0) * 1000.0)
        return False


def span(
    name: str, metric: Optional[str] = None, **attrs: Any
) -> Union[Span, "_MetricOnlySpan"]:
    """Open a span on the active tracer; a free no-op when disabled.

    ``metric`` names a histogram that receives the span's duration in
    milliseconds on close (created on first use).
    """
    if _state.tracer is not None:
        return _state.tracer.span(name, metric=metric, **attrs)
    if metric is not None and _state.metrics_on:
        return _MetricOnlySpan(metric)
    return NULL_SPAN


def traced(
    name: Optional[Union[str, Callable]] = None,
    metric: Optional[str] = None,
    **attrs: Any,
):
    """Decorator form of :func:`span`: one span per call of the function.

    Usable bare (``@traced``, span named after the function) or
    parameterized (``@traced("analysis.fig2")``).  When observability is
    off the wrapped function is called directly — no span, no timing.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name if isinstance(name, str) else f"fn.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if _state.tracer is None and not (
                metric is not None and _state.metrics_on
            ):
                return fn(*args, **kwargs)
            with span(span_name, metric=metric, **attrs):
                return fn(*args, **kwargs)

        wrapper.__wrapped_span_name__ = span_name
        return wrapper

    if callable(name):
        return decorate(name)
    return decorate


# -- metrics -----------------------------------------------------------------
def counter(name: str) -> Counter:
    """The named counter (a null object while metrics are disabled)."""
    if not _state.metrics_on:
        return NULL_METRIC
    return _state.registry.counter(name)


def gauge(name: str) -> Gauge:
    if not _state.metrics_on:
        return NULL_METRIC
    return _state.registry.gauge(name)


def histogram(name: str, bounds: Optional[Iterable[float]] = None) -> Histogram:
    if not _state.metrics_on:
        return NULL_METRIC
    return _state.registry.histogram(name, bounds)
