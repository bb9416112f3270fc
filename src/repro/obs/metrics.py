"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately boring: plain Python objects, no locks, no
background threads, and a :meth:`MetricsRegistry.snapshot` that is a
deterministic JSON-ready dict (names sorted, bucket labels derived from
the bounds).  Callers that observe from several threads serialize
themselves (the ``obs`` facade does, while metrics are on).

Determinism is load-bearing — snapshots are diffed between runs (``repro
obs diff``) and round-tripped through JSON byte-identically in tests, so
a metric may only hold ints, floats, and strings.  Histogram sums are
exact (:class:`ExactSum`), so the same observations give the same bytes
however they were grouped.

Naming convention (see ``docs/OBSERVABILITY.md``): dotted lowercase
``component.measure[_unit]`` — ``ingest.rows_quarantined``,
``kernel.groupby_ms``, ``checkpoint.hits``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "DEFAULT_MS_BUCKETS",
    "ExactSum",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "diff_snapshots",
    "percentile_from_snapshot",
]

Number = Union[int, float]

#: Default histogram bounds, tuned for millisecond timings: sub-ms kernel
#: calls up through multi-minute stages all land in a meaningful bucket.
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0,
)


class Counter:
    """A monotonically increasing count (rows quarantined, retries, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (rows in the current dataset, config scale)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, v: Number) -> None:
        self.value = v

    def inc(self, n: Number = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class ExactSum:
    """An exactly-represented running sum of IEEE-754 doubles.

    The value is carried as a list of non-overlapping *partials* whose
    mathematical sum equals the true sum of everything added — Shewchuk's
    grow-expansion, the same idea behind ``math.fsum``.  Because the
    representation is exact, :meth:`add` and :meth:`merge` are associative
    and commutative in the strongest sense: any order of any grouping of
    the same values renders (:meth:`value`) to the identical double.
    :meth:`add` edits the list in place, so one instance must not be fed
    from two threads at once.
    """

    __slots__ = ("partials",)

    def __init__(self, partials: Optional[Iterable[float]] = None):
        self.partials: List[float] = list(partials) if partials else []

    def add(self, x: float) -> None:
        """Fold one finite double into the expansion (exact, no rounding)."""
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold another expansion in; exactness is preserved."""
        for p in other.partials:
            self.add(p)

    def value(self) -> float:
        """The correctly-rounded double nearest the exact sum."""
        return math.fsum(self.partials)

    def to_state(self) -> List[float]:
        """JSON-ready checkpoint form (floats round-trip via repr)."""
        return list(self.partials)

    @classmethod
    def from_state(cls, state: Sequence[float]) -> "ExactSum":
        return cls(float(p) for p in state)

    def __repr__(self) -> str:
        return f"ExactSum({self.value()!r})"


class Histogram:
    """Fixed-bucket histogram with exact-sum/count/min/max sidecars.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last bound.  NaN observations are skipped.  The
    sum is an :class:`ExactSum`, so :meth:`merge` is exact bucket-wise
    addition and any grouping of the same observations snapshots to the
    same bytes — the live aggregator's chunking invariance rests on it.
    Two runs with the same bounds compare bucket-by-bucket; merging
    histograms with different bounds is a hard error, because silently
    rebinning would fabricate data.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, bounds: Optional[Iterable[float]] = None):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(
            sorted(float(b) for b in (bounds if bounds is not None else DEFAULT_MS_BUCKETS))
        )
        if not self.bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bound")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = ExactSum()
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, v: Number) -> None:
        v = float(v)
        if math.isnan(v):
            return
        self.bucket_counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total.add(v)
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in: bucket-wise addition, exact sum, widened range."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self.total.merge(other.total)
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    @property
    def mean(self) -> float:
        """Mean of observed values; NaN (not a misleading 0.0) when empty."""
        return self.total.value() / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (0-100) from the bucket counts.

        Degenerate cases are defined, not guessed: an empty histogram
        returns NaN (there is no sample to report — previously call sites
        improvised zeros), and a one-sample histogram returns that sample
        exactly.  Otherwise the estimate interpolates linearly inside the
        bucket containing the target rank and is clamped to the observed
        [min, max], so it can never leave the data's range.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return float("nan")
        if self.count == 1:
            return self.vmin
        return _percentile_from_buckets(
            q, self.bounds, self.bucket_counts, self.count, self.vmin, self.vmax
        )

    def snapshot(self) -> Dict[str, object]:
        buckets: Dict[str, int] = {}
        for bound, n in zip(self.bounds, self.bucket_counts):
            buckets[f"le_{bound:g}"] = n
        buckets["overflow"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total.value(),
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "buckets": buckets,
        }

    def to_state(self) -> Dict[str, object]:
        """JSON-ready checkpoint form; :meth:`from_state` inverts it."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total.to_state(),
            "min": None if self.count == 0 else self.vmin,
            "max": None if self.count == 0 else self.vmax,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object], name: str) -> "Histogram":
        out = cls(name, state["bounds"])
        out.bucket_counts = [int(n) for n in state["bucket_counts"]]
        out.count = int(state["count"])
        out.total = ExactSum.from_state(state["total"])
        out.vmin = math.inf if state["min"] is None else float(state["min"])
        out.vmax = -math.inf if state["max"] is None else float(state["max"])
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


def _percentile_from_buckets(
    q: float,
    bounds: Tuple[float, ...],
    bucket_counts: List[int],
    count: int,
    vmin: float,
    vmax: float,
) -> float:
    """Shared rank-interpolation core for live and snapshotted histograms."""
    target = q / 100.0 * count
    cumulative = 0
    for i, n in enumerate(bucket_counts):
        if n == 0:
            continue
        if cumulative + n >= target:
            # Interpolate within this bucket: its lower edge is the
            # previous bound (or the observed min for the first bucket),
            # its upper edge the bound (or the observed max for overflow).
            lo = bounds[i - 1] if i > 0 else vmin
            hi = bounds[i] if i < len(bounds) else vmax
            lo = max(lo, vmin)
            hi = min(hi, vmax)
            fraction = (target - cumulative) / n
            return min(max(lo + (hi - lo) * fraction, vmin), vmax)
        cumulative += n
    return vmax


def percentile_from_snapshot(hist_snapshot: Dict[str, object], q: float) -> float:
    """The q-th percentile of a snapshotted histogram (offline tools).

    Mirrors :meth:`Histogram.percentile` over the JSON shape written into
    ``metrics.json`` / run reports: NaN for an empty histogram, the single
    sample for n=1, a clamped bucket interpolation otherwise.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    count = int(hist_snapshot.get("count", 0) or 0)
    if count == 0:
        return float("nan")
    vmin = float(hist_snapshot["min"])
    vmax = float(hist_snapshot["max"])
    if count == 1:
        return vmin
    buckets = hist_snapshot.get("buckets", {}) or {}
    bounds: List[float] = []
    counts: List[int] = []
    for label, n in buckets.items():
        if label == "overflow":
            continue
        bounds.append(float(label[len("le_"):]))
        counts.append(int(n))
    order = sorted(range(len(bounds)), key=bounds.__getitem__)
    bounds = [bounds[i] for i in order]
    counts = [counts[i] for i in order]
    counts.append(int(buckets.get("overflow", 0)))
    return _percentile_from_buckets(q, tuple(bounds), counts, count, vmin, vmax)


class _NullMetric:
    """Accepts every metric operation and records nothing.

    Returned by the ``obs`` facade while metrics are disabled so call
    sites never branch: ``obs.counter("x").inc()`` is always valid.
    """

    __slots__ = ()

    name = ""
    value = 0

    def inc(self, _n: Number = 1) -> None:
        return None

    def set(self, _v: Number) -> None:
        return None

    def observe(self, _v: Number) -> None:
        return None

    def percentile(self, _q: float) -> float:
        return float("nan")


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Get-or-create home of every metric in one run."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create ------------------------------------------------------
    def _check_name(self, name: str, kind: str) -> None:
        if not name:
            raise ValueError("metric name must be a non-empty string")
        for store, other in (
            (self._counters, "counter"),
            (self._gauges, "gauge"),
            (self._histograms, "histogram"),
        ):
            if other != kind and name in store:
                raise ValueError(
                    f"metric {name!r} already registered as a {other}, "
                    f"cannot reuse it as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._check_name(name, "counter")
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._check_name(name, "gauge")
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None
    ) -> Histogram:
        if name not in self._histograms:
            self._check_name(name, "histogram")
            self._histograms[name] = Histogram(name, bounds)
        return self._histograms[name]

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-ready view of every metric."""
        return {
            "counters": {
                n: self._counters[n].value for n in sorted(self._counters)
            },
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
            "histograms": {
                n: self._histograms[n].snapshot()
                for n in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        """Canonical JSON text of :meth:`snapshot` (byte-stable)."""
        return snapshot_to_json(self.snapshot())

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def snapshot_to_json(snapshot: Dict[str, object]) -> str:
    """The one canonical JSON encoding used for snapshots everywhere.

    Sorted keys + fixed separators means encode(decode(text)) == text —
    the byte-identity tests and ``repro obs diff`` both rely on it.
    """
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n"


def diff_snapshots(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """Per-metric deltas between two snapshots.

    Counters and gauges diff numerically; histograms diff on count/sum.
    Metrics present on only one side appear under ``added``/``removed``.
    """
    out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {},
                              "added": [], "removed": []}
    for kind in ("counters", "gauges"):
        b = before.get(kind, {}) or {}
        a = after.get(kind, {}) or {}
        for name in sorted(set(b) | set(a)):
            if name not in b:
                out["added"].append(f"{kind}.{name}")
            elif name not in a:
                out["removed"].append(f"{kind}.{name}")
            elif a[name] != b[name]:
                out[kind][name] = {
                    "before": b[name],
                    "after": a[name],
                    "delta": a[name] - b[name],
                }
    bh = before.get("histograms", {}) or {}
    ah = after.get("histograms", {}) or {}
    for name in sorted(set(bh) | set(ah)):
        if name not in bh:
            out["added"].append(f"histograms.{name}")
        elif name not in ah:
            out["removed"].append(f"histograms.{name}")
        else:
            d_count = ah[name]["count"] - bh[name]["count"]
            d_sum = ah[name]["sum"] - bh[name]["sum"]
            if d_count or d_sum:
                out["histograms"][name] = {
                    "count_delta": d_count,
                    "sum_delta": d_sum,
                }
    return out
