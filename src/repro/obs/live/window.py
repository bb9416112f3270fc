"""Mergeable sliding-window aggregates with bit-stable merges.

The live aggregator must satisfy a contract the batch kernels never
needed: **chunking invariance**.  Rows arrive in arbitrary batches, get
folded into per-day states, and windows are assembled by merging day
states — yet the resulting snapshot must be byte-identical to a batch
group-by over the same rows, no matter how the stream was chunked.

Plain floating-point accumulation cannot deliver that: ``(a+b)+c`` and
``a+(b+c)`` differ in the low bits, so a classic Welford merge is only
associative up to rounding.  Instead every sum here is an
:class:`repro.obs.metrics.ExactSum`: a short list of floats whose
mathematical sum is *exactly* the running total, kept in one canonical
form (the chain of ``math.fsum`` residuals) that depends on the exact
total alone.  Rendering goes through ``math.fsum`` (correctly rounded),
so neither the rendered value nor the aggregator's state can depend on
the order or grouping of the rows.

Each arriving batch goes through one array pass for all of its scopes
(:func:`repro.tables.kernels.group_moments_exact`): per scope and
stream it yields the count, canonical Σx and Σx², min, max and, for the
raw streams, histogram bucket counts.  The batch's states then merge
into the day's buckets.  :class:`MomentState` derives mean/variance
from Σx and Σx² through one shared formula (:func:`moments_from_sums`).
A raw stream's histogram keeps only its bucket counts: its count, sum,
min and max are the stream's moments, and its bounds are
:data:`RAW_METRICS`; it renders through
:func:`repro.obs.metrics.histogram_snapshot`.

Windows are read-only views (:class:`WindowView`) over day buckets.  A
view folds a scope (:meth:`KeyState.fold`: counts add, extremes widen,
sums keep their constituents' partials side by side) only when a
reader first asks for it, and row counts never fold.  A closed day is
final: :meth:`~SlidingWindowAggregator.ingest` refuses rows for a day
at or before the last closed day with a :class:`ReproError`, so a
closed day's bucket never changes again.  A view whose days are all
closed therefore never goes stale, and may be read at any later time
from any thread (the health service renders its window views on first
read).  A view that covers an open day, and the baseline view (which
compacting later days changes), is valid until the aggregator's next
:meth:`~SlidingWindowAggregator.ingest` or
:meth:`~SlidingWindowAggregator.close_day`; reading it after that
raises :class:`StaleViewError`.  Only the aggregator's own state — day
buckets and the compacted baseline — is built by the normalizing
:meth:`KeyState.merge`.  That state is not checkpointed: it is a
function of the rows, so the live daemon rebuilds it on resume by
ingesting the replay again (:meth:`SlidingWindowAggregator.to_state`
is its canonical form, which tests compare).  The hypothesis suite in
``tests/obs/live/`` pins all of this down.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import add
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs.metrics import ExactSum, histogram_snapshot
from repro.tables.kernels import group_moments_exact
from repro.util.errors import ReproError
from repro.util.timeutil import Day

__all__ = [
    "LOSS_BUCKETS",
    "MomentState",
    "RTT_BUCKETS",
    "ScopeKey",
    "SlidingWindowAggregator",
    "StaleViewError",
    "TPUT_BUCKETS",
    "WindowConfig",
    "WindowView",
    "batch_states",
    "moments_from_sums",
]

#: Histogram bounds per raw metric (inclusive upper edges, one overflow
#: bucket above the last).  Chosen to straddle the calibrated prewar /
#: wartime levels so degradation visibly shifts mass between buckets.
TPUT_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
)
RTT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)
LOSS_BUCKETS: Tuple[float, ...] = (
    0.0, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
)

#: Floor for the log transform: NDT throughput/RTT are positive but a
#: synthetic zero must not produce ``-inf`` moments.
LOG_FLOOR = 1e-6


def moments_from_sums(n: int, s1: float, s2: float) -> Tuple[float, float]:
    """(mean, sample variance) from rendered Σx and Σx².

    The one shared formula both the streaming and the batch side use —
    bit-identical inputs therefore give bit-identical moments.  Variance
    is clamped at zero: with exact sums the textbook ``(S2 - S1*S1/n)``
    form can only go negative by the final rounding of the subtraction.
    """
    if n <= 0:
        return float("nan"), float("nan")
    mean = s1 / n
    if n < 2:
        return mean, float("nan")
    var = (s2 - s1 * s1 / n) / (n - 1)
    return mean, max(var, 0.0)


class MomentState:
    """Mergeable count/mean/var/min/max over the finite values of a stream.

    Σx and Σx² are canonical :class:`ExactSum`\\ s, so :meth:`merge` is
    associative/commutative bit-for-bit and any chunking of the same
    values yields an identical :meth:`snapshot` and :meth:`to_state`.
    Ingested states come from :func:`group_moments_exact` (:meth:`of`),
    which skips NaNs.
    """

    __slots__ = ("n", "sum", "sumsq", "vmin", "vmax")

    def __init__(self):
        self.n = 0
        self.sum = ExactSum()
        self.sumsq = ExactSum()
        self.vmin = math.inf
        self.vmax = -math.inf

    @classmethod
    def of(
        cls, n: int, total: ExactSum, sumsq: ExactSum, vmin: float, vmax: float
    ) -> "MomentState":
        """A state from its parts, e.g. one group of the batch kernel."""
        out = cls.__new__(cls)
        out.n, out.sum, out.sumsq, out.vmin, out.vmax = n, total, sumsq, vmin, vmax
        return out

    def merge(self, other: "MomentState") -> None:
        self.n += other.n
        self.sum.merge(other.sum)
        self.sumsq.merge(other.sumsq)
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    @classmethod
    def fold(cls, states: Sequence["MomentState"]) -> "MomentState":
        """A new state of every value in ``states`` (see :meth:`KeyState.fold`)."""
        n, vmin, vmax = 0, math.inf, -math.inf
        for s in states:
            n += s.n
            if s.vmin < vmin:
                vmin = s.vmin
            if s.vmax > vmax:
                vmax = s.vmax
        out = cls.__new__(cls)
        out.n, out.vmin, out.vmax = n, vmin, vmax
        out.sum = ExactSum.of([s.sum for s in states])
        out.sumsq = ExactSum.of([s.sumsq for s in states])
        return out

    @property
    def mean(self) -> float:
        return moments_from_sums(self.n, self.sum.value(), self.sumsq.value())[0]

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN below two observations."""
        return moments_from_sums(self.n, self.sum.value(), self.sumsq.value())[1]

    def snapshot(self) -> Dict[str, object]:
        s1 = self.sum.value()
        s2 = self.sumsq.value()
        mean, var = moments_from_sums(self.n, s1, s2)
        return {
            "count": self.n,
            "sum": s1,
            "sumsq": s2,
            "mean": mean if self.n else None,
            "var": var if self.n >= 2 else None,
            "min": self.vmin if self.n else None,
            "max": self.vmax if self.n else None,
        }

    def to_state(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "sum": list(self.sum.partials),
            "sumsq": list(self.sumsq.partials),
            "min": None if self.n == 0 else self.vmin,
            "max": None if self.n == 0 else self.vmax,
        }

    def __repr__(self) -> str:
        return f"MomentState(n={self.n}, mean={self.mean:.4g})"


#: (metric column, histogram bounds); the log streams ride on the raw
#: columns and carry moments only.
RAW_METRICS: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("tput_mbps", TPUT_BUCKETS),
    ("min_rtt_ms", RTT_BUCKETS),
    ("loss_rate", LOSS_BUCKETS),
)
LOG_METRICS: Tuple[Tuple[str, str], ...] = (
    ("log_tput_mbps", "tput_mbps"),
    ("log_min_rtt_ms", "min_rtt_ms"),
)
#: Every moment stream of a :class:`KeyState`, raw streams first.
STREAMS: Tuple[str, ...] = tuple(n for n, _ in RAW_METRICS) + tuple(
    n for n, _ in LOG_METRICS
)


def log_transform(v: float) -> float:
    """The detector's variance-stabilizing transform (NaN passes through).

    ``math.log``, not ``np.log``: numpy's SIMD log differs from libm in
    the last bit on some inputs, and the bytes must not depend on it.
    """
    if math.isnan(v):
        return v
    return math.log(max(v, LOG_FLOOR))


@dataclass(frozen=True)
class ScopeKey:
    """One aggregation scope: the national view or a (kind, name) slice."""

    kind: str  # "national" | "oblast" | "asn" | "city" | "site"
    name: str  # "" for national

    def label(self) -> str:
        return self.kind if self.kind == "national" else f"{self.kind}:{self.name}"

    @classmethod
    def from_label(cls, label: str) -> "ScopeKey":
        if label == "national":
            return cls("national", "")
        kind, _, name = label.partition(":")
        return cls(kind, name)


class KeyState:
    """All per-scope state for one day: moments, bucket counts, row count.

    ``buckets[name]`` holds the histogram bucket counts of raw stream
    ``name`` (bounds from :data:`RAW_METRICS`, one overflow bucket); the
    histogram's count, sum, min and max are ``moments[name]``'s.
    """

    __slots__ = ("rows", "moments", "buckets")

    def __init__(self):
        self.rows = 0  # every ingested row, NaN metrics included
        self.moments: Dict[str, MomentState] = {name: MomentState() for name in STREAMS}
        self.buckets: Dict[str, List[int]] = {
            name: [0] * (len(bounds) + 1) for name, bounds in RAW_METRICS
        }

    def merge(self, other: "KeyState") -> None:
        self.rows += other.rows
        for name, m in other.moments.items():
            self.moments[name].merge(m)
        for name, counts in other.buckets.items():
            self.buckets[name] = list(map(add, self.buckets[name], counts))

    @classmethod
    def fold(cls, states: Sequence["KeyState"]) -> "KeyState":
        """A new state of every row in ``states`` (at least one).

        Snapshots to the same bytes as merging ``states`` in order into a
        fresh :class:`KeyState`, but its sums are concatenated rather than
        normalized (:meth:`ExactSum.of`): use it for read-only views, and
        :meth:`merge` for the aggregator's day buckets and baseline.
        """
        out = cls.__new__(cls)
        out.rows = sum([s.rows for s in states])
        out.moments = {
            name: MomentState.fold([s.moments[name] for s in states])
            for name in STREAMS
        }
        out.buckets = {
            name: [sum(c) for c in zip(*[s.buckets[name] for s in states])]
            for name, _ in RAW_METRICS
        }
        return out

    def snapshot(self) -> Dict[str, object]:
        hists: Dict[str, object] = {}
        for name, bounds in sorted(RAW_METRICS):
            m = self.moments[name]
            hists[name] = histogram_snapshot(
                bounds, self.buckets[name], m.n, m.sum, m.vmin, m.vmax
            )
        return {
            "rows": self.rows,
            "metrics": {n: m.snapshot() for n, m in sorted(self.moments.items())},
            "histograms": hists,
        }

    def to_state(self) -> Dict[str, object]:
        return {
            "rows": self.rows,
            "moments": {n: m.to_state() for n, m in sorted(self.moments.items())},
            "buckets": {n: list(c) for n, c in sorted(self.buckets.items())},
        }


def batch_states(
    scopes: Sequence["ScopeKey"],
    tput: Sequence[float],
    rtt: Sequence[float],
    loss: Sequence[float],
    scope_rows: Sequence[Sequence[int]],
) -> List[Tuple[str, KeyState]]:
    """``(label, state)`` per scope of one batch, from one array pass.

    Every stream goes through :func:`group_moments_exact` once, over the
    concatenated ``scope_rows``; the log streams take ``math.log`` once
    per row, not once per (row, scope).
    """
    lengths = [len(rows) for rows in scope_rows]
    order = (
        np.concatenate([np.asarray(rows, dtype=np.int64) for rows in scope_rows])
        if scope_rows
        else np.zeros(0, dtype=np.int64)
    )
    starts = np.cumsum([0] + lengths[:-1], dtype=np.int64)
    columns = {
        "tput_mbps": np.asarray(tput, dtype=np.float64),
        "min_rtt_ms": np.asarray(rtt, dtype=np.float64),
        "loss_rate": np.asarray(loss, dtype=np.float64),
    }
    for name, source in LOG_METRICS:
        columns[name] = np.array(
            [log_transform(v) for v in columns[source].tolist()], dtype=np.float64
        )
    bounds = dict(RAW_METRICS)
    per_stream = []
    for name in STREAMS:
        gm = group_moments_exact(columns[name], order, starts, bounds.get(name))
        per_stream.append((
            name,
            list(zip(gm.counts.tolist(), gm.sums, gm.sumsqs,
                     gm.mins.tolist(), gm.maxs.tolist())),
            gm.buckets.tolist() if gm.buckets is not None else None,
        ))
    out: List[Tuple[str, KeyState]] = []
    for g, key in enumerate(scopes):
        state = KeyState.__new__(KeyState)
        state.rows = lengths[g]
        state.moments = {}
        state.buckets = {}
        for name, groups, buckets in per_stream:
            state.moments[name] = MomentState.of(*groups[g])
            if buckets is not None:
                state.buckets[name] = buckets[g]
        out.append((key.label(), state))
    return out


class StaleViewError(ReproError):
    """A window view over an open day or the baseline was read after its
    aggregator ingested or closed a day."""


class WindowView(Mapping):
    """Per-scope state of a set of day states, each scope folded on first read.

    Maps scope label → :class:`KeyState`.  A label with one day state
    reads that state as is; a label with several is folded
    (:meth:`KeyState.fold`) once, on its first read.  :meth:`rows` and
    iterating the labels never fold.  The view is shared and read-only.
    A ``closed`` view (closed days only, no compacted baseline) stays
    valid for good; any other view is valid until the aggregator's next
    ``ingest`` or ``close_day``, and a read after that raises
    :class:`StaleViewError`.
    """

    __slots__ = ("_agg", "_generation", "_parts", "_folded")

    def __init__(
        self,
        agg: "SlidingWindowAggregator",
        parts: Dict[str, List[KeyState]],
        closed: bool = False,
    ):
        # No state a closed view reads can change, so it keeps no aggregator.
        self._agg = None if closed else agg
        self._generation = agg._generation
        self._parts = parts
        self._folded: Dict[str, KeyState] = {}
        obs.counter("live.window.views").inc()

    def _check(self) -> None:
        if self._agg is not None and self._agg._generation != self._generation:
            raise StaleViewError(
                "window view read after the aggregator changed; "
                "ask the aggregator for a new one"
            )

    def __getitem__(self, label: str) -> KeyState:
        self._check()
        state = self._folded.get(label)
        if state is None:
            parts = self._parts[label]
            if len(parts) == 1:
                state = parts[0]
            else:
                state = KeyState.fold(parts)
                obs.counter("live.window.folds").inc()
            self._folded[label] = state
        return state

    def __contains__(self, label: object) -> bool:
        self._check()
        return label in self._parts

    def __iter__(self) -> Iterator[str]:
        self._check()
        return iter(self._parts)

    def __len__(self) -> int:
        self._check()
        return len(self._parts)

    def rows(self, label: str) -> int:
        """Rows of ``label`` in the window (0 when absent); never folds."""
        self._check()
        return sum([s.rows for s in self._parts.get(label, ())])


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the sliding aggregation.

    ``window_days`` is the service's "current health" horizon;
    ``recent_days`` the outage rules' trailing reference;
    ``baseline_start``/``baseline_end`` the prewar comparison window the
    metric rules test against (the paper's prewar period by default).
    """

    window_days: int = 3
    recent_days: int = 7
    baseline_start: str = "2022-01-01"
    baseline_end: str = "2022-02-23"

    def __post_init__(self) -> None:
        if self.window_days < 1:
            raise ValueError(f"window_days must be >= 1, got {self.window_days}")
        if self.recent_days < 1:
            raise ValueError(f"recent_days must be >= 1, got {self.recent_days}")

    @property
    def baseline_ordinals(self) -> range:
        lo = Day.of(self.baseline_start).ordinal
        hi = Day.of(self.baseline_end).ordinal
        return range(lo, hi + 1)

    def retain_days(self) -> int:
        """How many trailing day-states the aggregator must keep."""
        return max(self.window_days, self.recent_days + 1)


class SlidingWindowAggregator:
    """Per-(scope, metric) sliding-window state over a day-bucketed stream.

    Rows land in per-day :class:`KeyState` buckets; windows are read
    through :class:`WindowView`\\ s over those buckets, which fold exactly,
    so **any** chunking of the same rows produces byte-identical window
    snapshots.  Each distinct window is assembled at most once between
    two changes of the state (:meth:`ingest`, :meth:`close_day`), and
    every reader gets the same view; :meth:`day_state` returns the live
    bucket.  Callers must not mutate either.  Rows for a day at or
    before :attr:`last_closed` are refused, so closed buckets are final
    and views over them never go stale.  Day buckets older than the
    retention horizon are merged into the compacted baseline (when
    inside the baseline period) or dropped — the live daemon's memory
    footprint is bounded by ``retain_days × scopes``, not by stream
    length.
    """

    def __init__(self, config: WindowConfig = WindowConfig()):
        self.config = config
        #: day ordinal → scope label → KeyState (the retained tail)
        self.days: Dict[int, Dict[str, KeyState]] = {}
        #: compacted baseline-period state (days evicted from the tail)
        self.baseline_compact: Dict[str, KeyState] = {}
        #: ordinals already folded into ``baseline_compact``
        self.baseline_days_compacted = 0
        self.rows_ingested = 0
        self.last_day: Optional[int] = None
        #: the latest day passed to close_day; no row may land at or before it
        self.last_closed: Optional[int] = None
        #: bumped by every change of the state; views of an older one are stale
        self._generation = 0
        #: views assembled since the state last changed (not in to_state)
        self._memo: Dict[object, WindowView] = {}

    def _changed(self) -> None:
        self._generation += 1
        self._memo.clear()

    # -- ingest --------------------------------------------------------------
    def ingest(
        self,
        day: int,
        scopes: Sequence[ScopeKey],
        tput: Sequence[float],
        rtt: Sequence[float],
        loss: Sequence[float],
        scope_rows: Sequence[Sequence[int]],
    ) -> None:
        """Fold one batch of rows for one day into the day's buckets.

        ``scopes[k]`` owns the row indices ``scope_rows[k]`` — one row
        usually lands in several scopes (national + its oblast + its AS
        + its city + its site).  Values are plain sequences/arrays of
        floats; NaNs are skipped per metric.  ``rows_ingested`` counts
        (row, scope) pairs.  A day at or before :attr:`last_closed` is a
        :class:`ReproError`: a closed day is final.
        """
        day = int(day)
        if self.last_closed is not None and day <= self.last_closed:
            raise ReproError(
                f"rows for {Day(day).iso()} arrived after "
                f"{Day(self.last_closed).iso()} was closed; a closed day is final"
            )
        states = batch_states(scopes, tput, rtt, loss, scope_rows)
        self._changed()
        bucket = self.days.setdefault(day, {})
        for label, state in states:
            prior = bucket.get(label)
            if prior is None:
                bucket[label] = state
            else:
                prior.merge(state)
            self.rows_ingested += state.rows
        if self.last_day is None or day > self.last_day:
            self.last_day = day

    def close_day(self, day: int) -> None:
        """Advance the horizon past ``day``: evict/compact stale buckets."""
        day = int(day)
        self._changed()
        if self.last_day is None or day > self.last_day:
            self.last_day = day
        if self.last_closed is None or day > self.last_closed:
            self.last_closed = day
        cutoff = day - self.config.retain_days() + 1
        baseline = self.config.baseline_ordinals
        for old in sorted(d for d in self.days if d < cutoff):
            bucket = self.days.pop(old)
            if old in baseline:
                for label, state in bucket.items():
                    target = self.baseline_compact.get(label)
                    if target is None:
                        target = self.baseline_compact[label] = KeyState()
                    target.merge(state)
                self.baseline_days_compacted += 1

    # -- windows -------------------------------------------------------------
    def _view(
        self,
        key: object,
        ordinals: Iterable[int],
        extra: Iterable[Tuple[str, KeyState]] = (),
        closed: bool = False,
    ) -> WindowView:
        """The memoized view of the day buckets in ``ordinals``, then ``extra``."""
        view = self._memo.get(key)
        if view is None:
            parts: Dict[str, List[KeyState]] = {}
            for d in sorted(ordinals):
                for label, state in self.days.get(d, {}).items():
                    parts.setdefault(label, []).append(state)
            for label, state in extra:
                parts.setdefault(label, []).append(state)
            view = self._memo[key] = WindowView(self, parts, closed)
        return view

    def _closed_through(self, day: int) -> bool:
        """Whether every day up to ``day`` is closed (final)."""
        return self.last_closed is not None and day <= self.last_closed

    def window_state(self, day: int, days: Optional[int] = None) -> WindowView:
        """Per-scope state of the ``days`` (default config) ending at ``day``."""
        n = self.config.window_days if days is None else int(days)
        lo = day - n + 1
        return self._view(
            (lo, day + 1), range(lo, day + 1), closed=self._closed_through(day)
        )

    def day_state(self, day: int) -> Dict[str, KeyState]:
        """The single-day bucket (empty dict when the day saw no rows).

        The live bucket itself: shared and read-only, like the views.
        """
        return self.days.get(int(day), {})

    def baseline_state(self) -> WindowView:
        """Prewar-baseline state: retained tail, then compacted head.

        Never a closed view: compacting a later day changes the head.
        """
        baseline = self.config.baseline_ordinals
        tail = [d for d in self.days if d in baseline]
        return self._view("baseline", tail, self.baseline_compact.items())

    def baseline_daily_counts(self) -> Dict[str, float]:
        """Mean rows/day per scope over the baseline period seen so far."""
        n_days = self.baseline_days_compacted + len(
            [d for d in self.days if d in self.config.baseline_ordinals]
        )
        if n_days == 0:
            return {}
        view = self.baseline_state()
        return {label: view.rows(label) / n_days for label in view}

    def recent_state(self, day: int) -> WindowView:
        """Trailing ``recent_days`` window *excluding* ``day`` itself."""
        lo = day - self.config.recent_days
        return self._view(
            (lo, day), range(lo, day), closed=self._closed_through(day - 1)
        )

    def recent_daily_counts(self, day: int) -> Dict[str, float]:
        """Mean rows/day per scope over the trailing reference window."""
        lo = day - self.config.recent_days
        present = [d for d in range(lo, day) if d in self.days]
        if not present:
            return {}
        out: Dict[str, int] = {}
        for d in present:
            for label, state in self.days[d].items():
                out[label] = out.get(label, 0) + state.rows
        return {label: rows / len(present) for label, rows in out.items()}

    # -- snapshots / state ---------------------------------------------------
    def snapshot(self, day: Optional[int] = None) -> Dict[str, object]:
        """Canonical JSON-ready view of the window ending at ``day``."""
        day = day if day is not None else self.last_day
        scopes = self.window_state(day) if day is not None else {}
        return {
            "schema_version": 1,
            "day": Day(day).iso() if day is not None else None,
            "window_days": self.config.window_days,
            "rows_ingested": self.rows_ingested,
            "scopes": {
                label: state.snapshot() for label, state in sorted(scopes.items())
            },
        }

    def to_state(self) -> Dict[str, object]:
        """The whole state, canonical and JSON-ready (compared, not restored)."""
        return {
            "config": {
                "window_days": self.config.window_days,
                "recent_days": self.config.recent_days,
                "baseline_start": self.config.baseline_start,
                "baseline_end": self.config.baseline_end,
            },
            "days": {
                str(d): {
                    label: state.to_state()
                    for label, state in sorted(bucket.items())
                }
                for d, bucket in sorted(self.days.items())
            },
            "baseline_compact": {
                label: state.to_state()
                for label, state in sorted(self.baseline_compact.items())
            },
            "baseline_days_compacted": self.baseline_days_compacted,
            "rows_ingested": self.rows_ingested,
            "last_day": self.last_day,
            "last_closed": self.last_closed,
        }
