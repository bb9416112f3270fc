"""Outside-in tracing: spans around each layer's public functions.

The program under test is never edited.  :func:`install` replaces each
target in :data:`TARGETS` (plus one ``analysis.<section>`` per distinct
function of ``experiment_registry()``) with a wrapper that records a span
-- name, start, end, parent span, run id -- in a :class:`Tracer`.  Spans
stay in memory and :meth:`Tracer.dump` writes them out when the run ends.

A span's self time is its duration minus the durations of its child spans.
Summed over the tree under the workload's root span, self times give the
root's wall time by construction; that sum is only a partition of the
root's time if children lie inside their parent and do not overlap, which
:meth:`Tracer.check_nesting` checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "workload"


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module`` + ``qualname``, reported as ``name``.

    ``spans=False`` only counts calls (for functions called millions of
    times).  ``after(tracer, result, args)`` records counts from a call's
    result.
    """

    name: str
    module: str
    qualname: str
    spans: bool = True
    after: Optional[Callable[["Tracer", Any, tuple], None]] = None


def _after_generate(tracer: "Tracer", ds: Any, _args: tuple) -> None:
    tracer.counts["synth.tests"] += ds.ndt.n_rows + ds.n_unroutable
    tracer.counts["synth.unroutable"] += ds.n_unroutable


def _after_commit(tracer: "Tracer", path: Any, _args: tuple) -> None:
    if isinstance(path, str) and os.path.exists(path):
        tracer.counts["storage.commit.bytes"] += os.path.getsize(path)


def _after_ingest(tracer: "Tracer", _result: Any, args: tuple) -> None:
    tracer.counts["obs.live.window.rows_ingested"] = args[0].rows_ingested


def _after_publish(tracer: "Tracer", _result: Any, args: tuple) -> None:
    views = args[0]._views
    tracer.counts["obs.live.service.publish.bytes"] += sum(len(v) for v in views.values())


TARGETS: Tuple[Target, ...] = (
    # synthetic substrate (under stage.generate)
    Target("synth.generate", "repro.synth.generator", "DatasetGenerator.generate",
           after=_after_generate),
    Target("ndt.clientpool.sample", "repro.ndt.clientpool", "ClientPool.sample"),
    Target("mlab.loadbalancer.assign", "repro.mlab.loadbalancer", "LoadBalancer.assign"),
    Target("ndt.tcpmodel.measure", "repro.ndt.tcpmodel", "BulkTransferModel.measure"),
    Target("ndt.protocol.sample", "repro.ndt.protocol", "ProtocolModel.sample"),
    Target("geo.geodb.lookup", "repro.geo.geodb", "GeoDatabase.lookup"),
    Target("traceroute.scamper.trace", "repro.traceroute.scamper", "ScamperSidecar.trace"),
    Target("conflict.damage.severity", "repro.conflict.damage", "EdgeDamageModel.severity"),
    Target("ndt.measurement.to_row", "repro.ndt.measurement", "NdtMeasurement.to_row"),
    Target("traceroute.pathrecord.to_row", "repro.traceroute.pathrecord",
           "TracerouteRecord.to_row"),
    Target("tables.table.from_dict", "repro.tables.table", "Table.from_dict"),
    # routing
    Target("topology.bgp.route", "repro.topology.bgp", "StickyRouter.route"),
    Target("topology.bgp.select", "repro.topology.bgp", "RouteSelector.select"),
    Target("topology.bgp.candidates", "repro.topology.bgp", "RouteSelector.candidates"),
    Target("topology.quality.quality", "repro.topology.quality", "LinkQualityModel.quality"),
    Target("topology.rib.compute_churn", "repro.topology.rib", "compute_churn"),
    # statistics and the query layer
    Target("stats.welch.welch_t_test", "repro.stats.welch", "welch_t_test"),
    Target("tables.plan.execute", "repro.tables.plan.executor", "execute"),
    # runtime and storage
    Target("runtime.ingest.sanitize_dataset", "repro.runtime.ingest", "sanitize_dataset"),
    Target("runtime.checkpoint.save", "repro.runtime.checkpoint", "CheckpointStore.save"),
    Target("storage.commit", "repro.storage.artifacts", "commit_bytes", after=_after_commit),
    Target("storage.commit", "repro.storage.artifacts", "commit_text", after=_after_commit),
    Target("storage.commit", "repro.storage.artifacts", "commit_json", after=_after_commit),
    Target("storage.commit", "repro.storage.artifacts", "commit_framed", after=_after_commit),
    # live path
    Target("obs.live.source.build", "repro.obs.live.source", "ReplaySource.__init__"),
    Target("obs.live.source.batches_for_day", "repro.obs.live.source",
           "ReplaySource.batches_for_day"),
    Target("obs.live.window.ingest", "repro.obs.live.window", "SlidingWindowAggregator.ingest",
           after=_after_ingest),
    Target("obs.live.window.close_day", "repro.obs.live.window",
           "SlidingWindowAggregator.close_day"),
    Target("obs.live.window.window_state", "repro.obs.live.window",
           "SlidingWindowAggregator.window_state"),
    Target("obs.live.window.baseline_state", "repro.obs.live.window",
           "SlidingWindowAggregator.baseline_state"),
    Target("obs.live.window.recent_state", "repro.obs.live.window",
           "SlidingWindowAggregator.recent_state"),
    Target("obs.live.window.keystate_merge", "repro.obs.live.window", "KeyState.merge",
           spans=False),
    Target("obs.live.detect.evaluate_day", "repro.obs.live.detect", "AlertEngine.evaluate_day"),
    Target("obs.live.daemon.checkpoint", "repro.obs.live.daemon", "LiveDaemon.checkpoint"),
    Target("obs.live.service.publish", "repro.obs.live.service", "HealthService.publish",
           after=_after_publish),
    Target("obs.live.service.respond", "repro.obs.live.service", "HealthService.respond"),
)


def section_targets() -> List[Target]:
    """One ``analysis.<section>`` target per distinct experiment function."""
    from repro.runtime.experiments import experiment_registry

    targets, seen = [], set()
    for fn in experiment_registry().values():
        if fn in seen:
            continue
        seen.add(fn)
        targets.append(
            Target(f"analysis.{fn.__name__.lstrip('_')}", fn.__module__, fn.__qualname__)
        )
    return targets


def all_targets() -> List[Target]:
    return list(TARGETS) + section_targets()


def resolve(target: Target) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) of a target; raises if it is gone."""
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if raw is None:
        raise LookupError(f"{target.name}: {target.module}.{target.qualname} does not resolve")
    return owner, attr, raw


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.threads: List[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Cleared when the workload ends, so that the output checks that
        #: call the same functions afterwards are not counted.
        self.active = True
        #: Global plan cache (hits, misses) made inside the root span.
        self.plan_cache = (0, 0)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.threads.append(threading.get_ident())
            self.ends.append(math.nan)
            self.starts.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    @contextmanager
    def root(self) -> Iterator[None]:
        """The workload's root span; recording stops when it closes."""
        from repro.tables.plan.executor import global_plan_cache

        cache = global_plan_cache()
        hits, misses = cache.hits, cache.misses
        with self.span(ROOT):
            yield
        self.active = False
        self.plan_cache = (cache.hits - hits, cache.misses - misses)

    def _inside(self, name: str) -> bool:
        stack = self._stack()
        return bool(stack) and self.names[stack[-1]] == name

    # -- wrapping ------------------------------------------------------------
    def wrap(self, target: Target, func: Callable) -> Callable:
        name, after = target.name, target.after
        if not target.spans:
            calls = self.calls

            @functools.wraps(func)
            def counted(*args, **kwargs):
                if self.active:
                    calls[name] += 1
                return func(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(func):
            # Time each resume; the consumer's work between items is not ours.
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                if not self.active:
                    yield from inner
                    return
                self.calls[name] += 1
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active or self._inside(name):  # commit_json -> commit_bytes
                return func(*args, **kwargs)
            self.calls[name] += 1
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    # -- results -------------------------------------------------------------
    def self_times(self) -> List[float]:
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        return [durations[i] - child[i] for i in range(n)]

    def _enclosing(self, names: Tuple[str, ...]) -> List[Optional[str]]:
        """For each span, the nearest enclosing span (itself included) in ``names``."""
        out: List[Optional[str]] = []
        for i, parent in enumerate(self.parents):
            if self.names[i] in names:
                out.append(self.names[i])
            else:
                out.append(out[parent] if parent >= 0 else None)
        return out

    def check_nesting(self, selfs: List[float]) -> None:
        """Raise unless every child span lies inside its parent and no self time is negative."""
        for i, parent in enumerate(self.parents):
            if math.isnan(self.ends[i]):
                raise RuntimeError(f"trace {self.run_id}: span {i} ({self.names[i]}) never closed")
            if parent >= 0 and not (
                self.starts[parent] <= self.starts[i] <= self.ends[i] <= self.ends[parent]
            ):
                raise RuntimeError(
                    f"trace {self.run_id}: span {i} ({self.names[i]}) is not inside its parent")
        for i, own in enumerate(selfs):
            if own < -1e-9:
                raise RuntimeError(
                    f"trace {self.run_id}: span {i} ({self.names[i]}) has self time {own!r}; "
                    "its children overlap")

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer counts and self times; checks that the spans nest."""
        names = self.names
        selfs = self.self_times()
        roots = [i for i, n in enumerate(names) if n == ROOT]
        if len(roots) != 1:
            raise RuntimeError(f"trace {self.run_id}: expected one root span")
        self.check_nesting(selfs)
        root = roots[0]
        root_wall = self.ends[root] - self.starts[root]

        by_name: Dict[str, List[float]] = defaultdict(list)
        for name, s in zip(names, selfs):
            by_name[name].append(s)
        metrics: Dict[str, Tuple[float, str]] = {}
        for target in all_targets():
            key = target.name
            metrics[f"{key}.calls"] = (float(self.calls[key]), "count")
            if target.spans:
                metrics[f"{key}.self_s"] = (math.fsum(by_name.get(key, ())), "s")

        route, select = self.calls["topology.bgp.route"], self.calls["topology.bgp.select"]
        metrics["topology.bgp.route_reuse"] = (1.0 - select / route if route else 0.0, "ratio")
        owner = self._enclosing(("synth.generate", "analysis.churn"))
        in_ctx = Counter(o for n, o in zip(names, owner) if n == "topology.bgp.route")
        metrics["topology.bgp.route.calls_in_generate"] = (float(in_ctx["synth.generate"]), "count")
        metrics["topology.bgp.route.calls_in_churn"] = (float(in_ctx["analysis.churn"]), "count")
        tests = self.counts["synth.tests"]
        metrics["synth.tests"] = (float(tests), "count")
        metrics["synth.unroutable_ratio"] = (
            self.counts["synth.unroutable"] / tests if tests else 0.0, "ratio")
        hits, misses = self.plan_cache
        metrics["tables.plan.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        for key in ("storage.commit.bytes", "obs.live.service.publish.bytes"):
            metrics[key] = (float(self.counts[key]), "B")
        metrics["obs.live.window.rows_ingested"] = (
            float(self.counts["obs.live.window.rows_ingested"]), "count")
        metrics["trace.root_s"] = (root_wall, "s")
        metrics["trace.root_self_s"] = (selfs[root], "s")
        metrics["trace.spans"] = (float(len(names)), "count")
        return metrics

    def respond_ms(self) -> List[float]:
        return [
            (self.ends[i] - self.starts[i]) * 1000.0
            for i, n in enumerate(self.names)
            if n == "obs.live.service.respond"
        ]

    def dump(self, path: str) -> None:
        """Write every span as one CSV row: index, name, start, end, parent, thread, run id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,thread,run\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},"
                         f"{self.parents[i]},{self.threads[i]},{self.run_id}\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.idx = tracer, name, -1

    def __enter__(self) -> "_Span":
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *_exc: object) -> None:
        self.tracer._close(self.idx)


def _rebind(original: Any, replacement: Any) -> None:
    """Point every loaded ``repro`` module's alias of a function at the wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target; raises ``LookupError`` when one no longer resolves."""
    import repro.runtime.run  # noqa: F401 - load the modules that alias targets
    import repro.obs.live.service  # noqa: F401

    for target in all_targets():
        owner, attr, raw = resolve(target)
        if inspect.isclass(owner):
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(tracer.wrap(target, raw.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(target, raw))
        else:
            _rebind(raw, tracer.wrap(target, raw))
