"""Mergeable sliding-window aggregates with bit-stable merges.

The live aggregator must satisfy a contract the batch kernels never
needed: **chunking invariance**.  Rows arrive in arbitrary batches, get
folded into per-day states, and windows are assembled by merging day
states — yet the resulting snapshot must be byte-identical to a batch
group-by over the same rows, no matter how the stream was chunked.

Plain floating-point accumulation cannot deliver that: ``(a+b)+c`` and
``a+(b+c)`` differ in the low bits, so a classic Welford merge is only
associative up to rounding.  Instead every sum here is carried as a
**Shewchuk expansion** (:class:`repro.obs.metrics.ExactSum`) — a short
list of non-overlapping floats whose mathematical sum is *exactly* the
running total.  Adding a value or merging two expansions preserves
exactness, and rendering goes through ``math.fsum`` (correctly rounded),
so the rendered total is a function of the exact mathematical sum alone
— the order and grouping of updates cannot leak into a single bit.

Second moments come from the same machinery: :class:`MomentState` keeps
exact Σx and Σx² (each ``x*x`` is one IEEE multiplication, identical on
every path) and derives mean/variance through one shared formula,
matching :func:`repro.tables.kernels.group_moments_exact` bit-for-bit.
The per-day histograms are :class:`repro.obs.metrics.Histogram`, whose
sum is the same expansion and whose merge is exact bucket-wise addition.
The hypothesis suite in ``tests/obs/live/`` pins all of this down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.obs.metrics import ExactSum, Histogram
from repro.util.timeutil import Day

__all__ = [
    "LOSS_BUCKETS",
    "MomentState",
    "RTT_BUCKETS",
    "ScopeKey",
    "SlidingWindowAggregator",
    "TPUT_BUCKETS",
    "WindowConfig",
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

    NaNs are skipped (matching the batch kernels' NaN-ignoring contract);
    Σx and Σx² are exact (:class:`ExactSum`), so :meth:`merge` is
    associative/commutative bit-for-bit and any chunking of the same
    rows yields an identical :meth:`snapshot`.
    """

    __slots__ = ("n", "sum", "sumsq", "vmin", "vmax")

    def __init__(self):
        self.n = 0
        self.sum = ExactSum()
        self.sumsq = ExactSum()
        self.vmin = math.inf
        self.vmax = -math.inf

    def update(self, v: float) -> None:
        v = float(v)
        if math.isnan(v):
            return
        self.n += 1
        self.sum.add(v)
        self.sumsq.add(v * v)
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    def update_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.update(v)

    def merge(self, other: "MomentState") -> None:
        self.n += other.n
        self.sum.merge(other.sum)
        self.sumsq.merge(other.sumsq)
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    def copy(self) -> "MomentState":
        out = MomentState()
        out.merge(self)
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
            "sum": self.sum.to_state(),
            "sumsq": self.sumsq.to_state(),
            "min": None if self.n == 0 else self.vmin,
            "max": None if self.n == 0 else self.vmax,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "MomentState":
        out = cls()
        out.n = int(state["n"])
        out.sum = ExactSum.from_state(state["sum"])
        out.sumsq = ExactSum.from_state(state["sumsq"])
        out.vmin = math.inf if state["min"] is None else float(state["min"])
        out.vmax = -math.inf if state["max"] is None else float(state["max"])
        return out

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


def log_transform(v: float) -> float:
    """The detector's variance-stabilizing transform (NaN passes through)."""
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
    """All per-scope state for one day: moments + histograms + row count."""

    __slots__ = ("rows", "moments", "hists")

    def __init__(self):
        self.rows = 0  # every ingested row, NaN metrics included
        self.moments: Dict[str, MomentState] = {
            name: MomentState() for name, _ in RAW_METRICS
        }
        self.moments.update(
            {name: MomentState() for name, _ in LOG_METRICS}
        )
        self.hists: Dict[str, Histogram] = {
            name: Histogram(name, bounds) for name, bounds in RAW_METRICS
        }

    def update(self, tput: float, rtt: float, loss: float) -> None:
        self.rows += 1
        self.moments["tput_mbps"].update(tput)
        self.moments["min_rtt_ms"].update(rtt)
        self.moments["loss_rate"].update(loss)
        self.moments["log_tput_mbps"].update(log_transform(tput))
        self.moments["log_min_rtt_ms"].update(log_transform(rtt))
        self.hists["tput_mbps"].observe(tput)
        self.hists["min_rtt_ms"].observe(rtt)
        self.hists["loss_rate"].observe(loss)

    def merge(self, other: "KeyState") -> None:
        self.rows += other.rows
        for name, m in other.moments.items():
            self.moments[name].merge(m)
        for name, h in other.hists.items():
            self.hists[name].merge(h)

    def copy(self) -> "KeyState":
        out = KeyState()
        out.merge(self)
        return out

    def snapshot(self, histograms: bool = True) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rows": self.rows,
            "metrics": {n: m.snapshot() for n, m in sorted(self.moments.items())},
        }
        if histograms:
            out["histograms"] = {
                n: h.snapshot() for n, h in sorted(self.hists.items())
            }
        return out

    def to_state(self) -> Dict[str, object]:
        return {
            "rows": self.rows,
            "moments": {n: m.to_state() for n, m in sorted(self.moments.items())},
            "hists": {n: h.to_state() for n, h in sorted(self.hists.items())},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "KeyState":
        out = cls()
        out.rows = int(state["rows"])
        for name, mstate in state["moments"].items():
            out.moments[name] = MomentState.from_state(mstate)
        for name, hstate in state["hists"].items():
            out.hists[name] = Histogram.from_state(hstate, name)
        return out


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

    Rows land in per-day :class:`KeyState` buckets; windows are assembled
    by merging day buckets, which is exact, so **any** chunking of the
    same rows produces byte-identical window snapshots.  Day buckets
    older than the retention horizon are folded into the compacted
    baseline (when inside the baseline period) or dropped — the live
    daemon's memory footprint is bounded by ``retain_days × scopes``,
    not by stream length.
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
        floats; NaNs are skipped per metric.
        """
        day = int(day)
        bucket = self.days.setdefault(day, {})
        for key, rows in zip(scopes, scope_rows):
            state = bucket.get(key.label())
            if state is None:
                state = bucket[key.label()] = KeyState()
            for i in rows:
                state.update(float(tput[i]), float(rtt[i]), float(loss[i]))
                self.rows_ingested += 1
        if self.last_day is None or day > self.last_day:
            self.last_day = day

    def close_day(self, day: int) -> None:
        """Advance the horizon past ``day``: evict/compact stale buckets."""
        day = int(day)
        if self.last_day is None or day > self.last_day:
            self.last_day = day
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
    def _merge_days(self, ordinals: Iterable[int]) -> Dict[str, KeyState]:
        out: Dict[str, KeyState] = {}
        for d in sorted(ordinals):
            bucket = self.days.get(d)
            if not bucket:
                continue
            for label, state in bucket.items():
                target = out.get(label)
                if target is None:
                    out[label] = state.copy()
                else:
                    target.merge(state)
        return out

    def window_state(self, day: int, days: Optional[int] = None) -> Dict[str, KeyState]:
        """Merged per-scope state of the ``days`` (default config) ending at ``day``."""
        n = self.config.window_days if days is None else int(days)
        lo = day - n + 1
        return self._merge_days(range(lo, day + 1))

    def day_state(self, day: int) -> Dict[str, KeyState]:
        """The single-day bucket (empty dict when the day saw no rows)."""
        return self.days.get(int(day), {})

    def baseline_state(self) -> Dict[str, KeyState]:
        """Merged prewar-baseline state: compacted head + retained tail."""
        tail = [d for d in self.days if d in self.config.baseline_ordinals]
        merged = self._merge_days(tail)
        for label, state in self.baseline_compact.items():
            target = merged.get(label)
            if target is None:
                merged[label] = state.copy()
            else:
                target.merge(state)
        return merged

    def baseline_daily_counts(self) -> Dict[str, float]:
        """Mean rows/day per scope over the baseline period seen so far."""
        n_days = self.baseline_days_compacted + len(
            [d for d in self.days if d in self.config.baseline_ordinals]
        )
        if n_days == 0:
            return {}
        totals: Dict[str, int] = {}
        for label, state in self.baseline_state().items():
            totals[label] = state.rows
        return {label: rows / n_days for label, rows in totals.items()}

    def recent_state(self, day: int) -> Dict[str, KeyState]:
        """Trailing ``recent_days`` window *excluding* ``day`` itself."""
        lo = day - self.config.recent_days
        return self._merge_days(range(lo, day))

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

    # -- snapshots / checkpoints ---------------------------------------------
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
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SlidingWindowAggregator":
        cfg = state["config"]
        out = cls(
            WindowConfig(
                window_days=int(cfg["window_days"]),
                recent_days=int(cfg["recent_days"]),
                baseline_start=cfg["baseline_start"],
                baseline_end=cfg["baseline_end"],
            )
        )
        for d, bucket in state["days"].items():
            out.days[int(d)] = {
                label: KeyState.from_state(s) for label, s in bucket.items()
            }
        out.baseline_compact = {
            label: KeyState.from_state(s)
            for label, s in state["baseline_compact"].items()
        }
        out.baseline_days_compacted = int(state["baseline_days_compacted"])
        out.rows_ingested = int(state["rows_ingested"])
        out.last_day = state["last_day"]
        if out.last_day is not None:
            out.last_day = int(out.last_day)
        return out
