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

Every stored :class:`ExactSum` is in one canonical form, the chain of
``math.fsum`` residuals of its values (see the class), which depends
only on the exact sum: the live aggregator's checkpoints therefore have
the same bytes however its rows were batched or ordered.

Naming convention (see ``docs/OBSERVABILITY.md``): dotted lowercase
``component.measure[_unit]`` — ``ingest.rows_quarantined``,
``kernel.groupby_ms``, ``checkpoint.hits``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.util.errors import NumericsError

__all__ = [
    "Counter",
    "DEFAULT_MS_BUCKETS",
    "ExactSum",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "diff_snapshots",
    "histogram_snapshot",
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
    """A monotonically increasing count (rows quarantined, stage failures, ...)."""

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


def _canonical(terms: List[float]) -> List[float]:
    """The canonical partials of ``sum(terms)``; consumes ``terms``.

    ``s0 = fsum(terms)``, then ``s1 = fsum(terms + [-s0])``, and so on
    until a residual is exactly 0.  Each ``s_k`` is the correctly rounded
    value of the exact sum minus the earlier ones, so the list depends
    only on the exact sum.  It terminates: every residual is a multiple
    of 2**-1074 and shrinks by about 2**52 per step.  An exact sum of 0
    is ``[]``.  A non-finite term, or an overflow on the way, raises
    :class:`NumericsError`: the expansion only represents finite sums.
    """
    try:
        s = math.fsum(terms)
        if not math.isfinite(s):
            raise NumericsError(f"exact sum of non-finite values ({s!r})")
        out: List[float] = []
        while s:
            out.append(s)
            terms.append(-s)
            s = math.fsum(terms)
    except (OverflowError, ValueError) as exc:
        raise NumericsError(f"exact sum out of range: {exc}") from exc
    return out


class ExactSum:
    """An exactly-represented running sum of finite IEEE-754 doubles.

    The value is carried as a list of *partials* whose mathematical sum
    equals the true sum of everything added.  :meth:`value` is
    ``math.fsum``, which rounds any list of doubles correctly, so the
    rendered value is exact for any list of partials.  :meth:`add`,
    :meth:`merge` and :meth:`from_values` keep the partials in the
    canonical form of :func:`_canonical` — the ``fsum`` residual chain,
    a function of the exact sum alone — so any order and any grouping of
    the same values gives the identical list.  :meth:`of` concatenates
    lists for read-only folds and does not normalize.  Non-finite values
    raise :class:`NumericsError`.
    """

    __slots__ = ("partials",)

    def __init__(self, partials: Optional[Iterable[float]] = None):
        self.partials: List[float] = list(partials) if partials else []

    @classmethod
    def from_values(cls, values: List[float]) -> "ExactSum":
        """The canonical sum of ``values`` (a list this call consumes)."""
        out = cls.__new__(cls)
        out.partials = _canonical(values)
        return out

    def add(self, x: float) -> None:
        """Fold one finite double in (exact, no rounding)."""
        self.partials = _canonical(self.partials + [x])

    def merge(self, other: "ExactSum") -> None:
        """Fold another sum in; exactness is preserved."""
        self.partials = _canonical(self.partials + other.partials)

    @classmethod
    def of(cls, sums: Iterable["ExactSum"]) -> "ExactSum":
        """A new sum of ``sums``: their partials side by side.

        Exact without renormalizing: the concatenated partials still add
        up to the total, and :meth:`value` rounds any list correctly.
        """
        out = cls()
        for s in sums:
            out.partials += s.partials
        return out

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
    everything above the last bound.  NaN observations are skipped, and
    ±inf raises :class:`NumericsError` (the exact sum holds finite values
    only).  The sum is an :class:`ExactSum`, so the same observations
    snapshot to the same bytes in any order.  Its JSON form is
    :func:`histogram_snapshot`, which the live aggregator's per-stream
    bucket counts render through too.  Two runs with the same bounds
    compare bucket-by-bucket.
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
        self.total.add(v)
        self.bucket_counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

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
        return histogram_snapshot(
            self.bounds, self.bucket_counts, self.count, self.total,
            self.vmin, self.vmax,
        )

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


def histogram_snapshot(
    bounds: Sequence[float],
    bucket_counts: Sequence[int],
    count: int,
    total: ExactSum,
    vmin: float,
    vmax: float,
) -> Dict[str, object]:
    """The one JSON form of a histogram, for the registry and the live views.

    ``bucket_counts`` has one entry per bound plus the overflow bucket;
    ``min``/``max`` render as None while ``count`` is 0.
    """
    buckets: Dict[str, int] = {}
    for bound, n in zip(bounds, bucket_counts):
        buckets[f"le_{bound:g}"] = n
    buckets["overflow"] = bucket_counts[-1]
    return {
        "count": count,
        "sum": total.value(),
        "min": vmin if count else None,
        "max": vmax if count else None,
        "buckets": buckets,
    }


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
