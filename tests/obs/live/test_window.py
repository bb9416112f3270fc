"""Mergeable-aggregate laws: exact sums, chunking invariance, batch parity.

The tentpole claim of ``repro.obs.live.window`` is that streaming
ingestion is *algebraically* equivalent to the batch kernels — not
approximately, bit for bit.  The hypothesis properties here pin the laws
that make that true (an ExactSum's partials are one canonical form of
the exact sum, whatever the order, chunking or merge order; its value
is the correctly rounded sum; concatenated partials stay exact), the
parity tests check the batch kernel against a ``math.fsum`` oracle and
against a copy of the per-row algorithm the aggregator used before it
ingested whole batches, and the window-assembly property checks every
memoized window against merging the same day buckets one by one.
"""

import json
import math
import random
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live.window import (
    RAW_METRICS,
    STREAMS,
    KeyState,
    MomentState,
    ScopeKey,
    SlidingWindowAggregator,
    StaleViewError,
    WindowConfig,
    batch_states,
    log_transform,
    moments_from_sums,
)
from repro.obs.metrics import ExactSum, Histogram
from repro.tables.kernels import group_moments_exact
from repro.util.errors import NumericsError, ReproError
from repro.util.timeutil import Day

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
float_lists = st.lists(finite, max_size=30)
#: Finite doubles over the whole exponent range, subnormals included;
#: 40 of them cannot overflow a sum.
wide = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
)


def exact_of(values):
    s = ExactSum()
    for v in values:
        s.add(v)
    return s


def moment_of(values):
    """One MomentState of ``values`` through the batch kernel."""
    gm = group_moments_exact(
        np.asarray(values, dtype=np.float64), np.arange(len(values)), np.array([0])
    )
    return MomentState.of(
        int(gm.counts[0]), gm.sums[0], gm.sumsqs[0],
        float(gm.mins[0]), float(gm.maxs[0]),
    )


class TestExactSum:
    @given(float_lists)
    @settings(max_examples=200, deadline=None)
    def test_value_is_correctly_rounded_sum(self, values):
        assert exact_of(values).value() == math.fsum(values)

    @given(float_lists, float_lists)
    @settings(max_examples=200, deadline=None)
    def test_merge_is_commutative(self, a, b):
        ab = exact_of(a)
        ab.merge(exact_of(b))
        ba = exact_of(b)
        ba.merge(exact_of(a))
        assert ab.value() == ba.value()

    @given(float_lists, float_lists, float_lists)
    @settings(max_examples=200, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = exact_of(a)
        left.merge(exact_of(b))
        left.merge(exact_of(c))
        bc = exact_of(b)
        bc.merge(exact_of(c))
        right = exact_of(a)
        right.merge(bc)
        assert left.value() == right.value()

    @given(st.lists(float_lists, max_size=5), finite, float_lists)
    @settings(max_examples=200, deadline=None)
    def test_concatenated_partials_stay_exact(self, lists, x, more):
        sums = [exact_of(values) for values in lists]
        before = [list(s.partials) for s in sums]
        everything = [v for values in lists for v in values]
        folded = ExactSum.of(sums)
        assert folded.value() == math.fsum(everything)
        folded.add(x)
        assert folded.value() == math.fsum(everything + [x])
        folded.merge(exact_of(more))
        assert folded.value() == math.fsum(everything + [x] + more)
        assert [s.partials for s in sums] == before


class TestCanonicalPartials:
    """One canonical form: the ``math.fsum`` residual chain of the exact sum."""

    @given(st.lists(wide, max_size=40), st.randoms(use_true_random=False),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=300, deadline=None)
    def test_any_order_chunking_or_merge_order_gives_the_same_partials(
        self, values, rnd, chunk
    ):
        whole = ExactSum.from_values(list(values))
        shuffled = list(values)
        rnd.shuffle(shuffled)
        added = exact_of(shuffled)
        parts = [
            ExactSum.from_values(shuffled[lo:lo + chunk])
            for lo in range(0, len(shuffled), chunk)
        ]
        rnd.shuffle(parts)
        merged = ExactSum()
        for part in parts:
            merged.merge(part)
        tree = list(parts)
        while len(tree) > 1:
            a, b = tree.pop(rnd.randrange(len(tree))), tree.pop()
            a.merge(b)
            tree.append(a)
        assert added.partials == whole.partials
        assert merged.partials == whole.partials
        if tree:
            assert tree[0].partials == whole.partials
        assert whole.value() == math.fsum(values)

    @staticmethod
    def _spanning(n, seed):
        rng = random.Random(seed)
        return [
            rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-300, 300)
            for _ in range(n)
        ]

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.0, -0.0, 0.0],
            [-0.0],
            [1e308, -1e308],
            [1e308, 1.0, -1e308, 2.0**-1074],
            [1e308, -1e308, 1e308, -1e308, 1e-300],
            [5e-324] * 7 + [-5e-324] * 3,
            [2.0**-1074, 2.0**-1022, -(2.0**-1023), 1e-310],
            [1.0, 1e-16, 1e-32, 1e-48, -1.0],
            "spanning",
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_exact_and_terminates(self, values):
        if values == "spanning":
            values = self._spanning(2000, seed=3)
        exact = sum(map(Fraction, values), Fraction(0))
        s = ExactSum.from_values(list(values))
        # Exact: the partials add up to the values' sum, with nothing lost.
        assert sum(map(Fraction, s.partials), Fraction(0)) == exact
        # Canonical: each partial is the rounded residual of the ones before.
        for k, p in enumerate(s.partials):
            assert p != 0.0
            assert p == float(exact - sum(map(Fraction, s.partials[:k]), Fraction(0)))
        # Each residual shrinks by ~2**52 over 2**-1074..2**1024.
        assert len(s.partials) <= 41
        assert s.value() == math.fsum(values)
        assert exact != 0 or s.partials == []

    def test_non_finite_values_raise_a_typed_error(self):
        for values in ([math.inf], [1.0, -math.inf], [math.inf, -math.inf], [math.nan]):
            with pytest.raises(NumericsError):
                ExactSum.from_values(list(values))
        s = exact_of([1.0, 2.0])
        with pytest.raises(NumericsError):
            s.add(math.inf)
        assert s.partials == [3.0]

    def test_overflow_raises_a_typed_error(self):
        big = ExactSum.from_values([1e308])
        with pytest.raises(NumericsError):
            big.merge(ExactSum.from_values([1e308]))
        assert big.partials == [1e308]
        with pytest.raises(NumericsError):
            group_moments_exact(np.array([1e200]), np.array([0]), np.array([0]))

    def test_non_finite_rows_stop_ingest_before_any_state_changes(self):
        agg = SlidingWindowAggregator(WindowConfig())
        scope = ScopeKey("national", "")
        agg.ingest(738000, (scope,), [1.0], [2.0], [0.0], ([0],))
        before = json.dumps(agg.to_state(), sort_keys=True)
        with pytest.raises(NumericsError):
            agg.ingest(738000, (scope,), [math.inf], [2.0], [0.0], ([0],))
        assert json.dumps(agg.to_state(), sort_keys=True) == before


class TestMomentStateChunking:
    @given(float_lists, st.integers(min_value=1, max_value=7))
    @settings(max_examples=150, deadline=None)
    def test_any_chunking_merges_to_the_bulk_state(self, values, chunk):
        bulk = moment_of(values)
        merged = MomentState()
        for lo in range(0, len(values), chunk):
            merged.merge(moment_of(values[lo:lo + chunk]))
        assert merged.snapshot() == bulk.snapshot()
        assert merged.to_state() == bulk.to_state()

    def test_nan_values_are_skipped(self):
        snap = moment_of([1.0, float("nan"), 3.0]).snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == 4.0


class TestBatchParity:
    """``group_moments_exact`` == a ``math.fsum`` oracle, bit for bit."""

    def test_grouped_streaming_matches_kernel(self):
        rng = np.random.Generator(np.random.PCG64(7))
        n = 500
        groups = rng.integers(0, 5, n)
        values = rng.normal(50.0, 20.0, n)
        values[rng.random(n) < 0.1] = np.nan

        order = np.argsort(groups, kind="stable")
        sorted_groups = groups[order]
        starts = np.flatnonzero(
            np.diff(sorted_groups, prepend=sorted_groups[0] - 1)
        )
        gm = group_moments_exact(values, order, starts)

        for g in range(5):
            seg = [float(v) for v in values[groups == g] if not math.isnan(v)]
            assert int(gm.counts[g]) == len(seg)
            assert gm.sums[g].value() == math.fsum(seg)
            assert gm.sumsqs[g].value() == math.fsum(v * v for v in seg)
            assert float(gm.mins[g]) == min(seg)
            assert float(gm.maxs[g]) == max(seg)
            snap = moment_of(seg).snapshot()
            mean, var = moments_from_sums(len(seg), math.fsum(seg),
                                          math.fsum(v * v for v in seg))
            assert snap["mean"] == mean
            assert snap["var"] == var

    def test_empty_groups_are_merge_identities(self):
        gm = group_moments_exact(
            np.array([np.nan, 2.0]), np.array([0, 1, 0]), np.array([0, 1, 3])
        )
        assert gm.counts.tolist() == [0, 1, 0]
        assert gm.mins.tolist() == [math.inf, 2.0, math.inf]
        assert gm.maxs.tolist() == [-math.inf, 2.0, -math.inf]
        assert [s.partials for s in gm.sums] == [[], [2.0], []]

    def test_bucket_counts_follow_bisect_left(self):
        bounds = (0.0, 1.0, 10.0)
        vals = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 10.0, 11.0, np.nan])
        gm = group_moments_exact(vals, np.arange(len(vals)), np.array([0]), bounds)
        expected = [0] * (len(bounds) + 1)
        for v in vals[~np.isnan(vals)]:
            expected[bisect_left(bounds, float(v))] += 1
        assert gm.buckets.tolist() == [expected]


class _RowSum:
    """The grow-expansion sum the aggregator used to update row by row."""

    def __init__(self):
        self.partials = []

    def add(self, x):
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


class _RowMoments:
    """The per-row ``MomentState.update`` the batch kernel replaced."""

    def __init__(self):
        self.n, self.vmin, self.vmax = 0, math.inf, -math.inf
        self.sum, self.sumsq = _RowSum(), _RowSum()

    def update(self, v):
        if math.isnan(v):
            return
        self.n += 1
        self.sum.add(v)
        self.sumsq.add(v * v)
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    def snapshot(self):
        s1, s2 = math.fsum(self.sum.partials), math.fsum(self.sumsq.partials)
        mean, var = moments_from_sums(self.n, s1, s2)
        return {
            "count": self.n, "sum": s1, "sumsq": s2,
            "mean": mean if self.n else None,
            "var": var if self.n >= 2 else None,
            "min": self.vmin if self.n else None,
            "max": self.vmax if self.n else None,
        }


def _row_snapshot(rows):
    """Snapshot of ``(tput, rtt, loss)`` rows, one row at a time."""
    moments = {name: _RowMoments() for name in STREAMS}
    buckets = {name: [0] * (len(b) + 1) for name, b in RAW_METRICS}
    for tput, rtt, loss in rows:
        for name, v in (
            ("tput_mbps", tput), ("min_rtt_ms", rtt), ("loss_rate", loss),
            ("log_tput_mbps", log_transform(tput)),
            ("log_min_rtt_ms", log_transform(rtt)),
        ):
            moments[name].update(v)
        for (name, bounds), v in zip(RAW_METRICS, (tput, rtt, loss)):
            if not math.isnan(v):
                buckets[name][bisect_left(bounds, v)] += 1
    hists = {}
    for name, bounds in RAW_METRICS:
        m = moments[name].snapshot()
        labels = {f"le_{b:g}": n for b, n in zip(bounds, buckets[name])}
        labels["overflow"] = buckets[name][-1]
        hists[name] = {"count": m["count"], "sum": m["sum"], "min": m["min"],
                       "max": m["max"], "buckets": labels}
    return {
        "rows": len(rows),
        "metrics": {name: moments[name].snapshot() for name in sorted(moments)},
        "histograms": hists,
    }


#: Values that stress the kernel: NaNs, signed zeros, bucket edges.
tricky = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, 1.0, 0.001, 0.5, 2.5, 1e-7]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
#: (tput, rtt, loss, membership in scopes A, B, C)
parity_row = st.tuples(tricky, tricky, tricky,
                       st.lists(st.booleans(), min_size=3, max_size=3))


class TestPerRowParity:
    """Batch ingest == the old per-row algorithm, over random scope partitions."""

    SCOPES = (ScopeKey("national", ""), ScopeKey("oblast", "A"),
              ScopeKey("city", "B"), ScopeKey("asn", "C"))

    @given(st.lists(st.lists(parity_row, max_size=12), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_day_buckets_match_the_per_row_snapshot(self, batches):
        day = 738000
        agg = SlidingWindowAggregator(WindowConfig())
        seen = {label: [] for label in (k.label() for k in self.SCOPES)}
        for rows in batches:
            scopes, scope_rows = [self.SCOPES[0]], [list(range(len(rows)))]
            seen["national"] += [r[:3] for r in rows]
            for k, scope in enumerate(self.SCOPES[1:]):
                idx = [i for i, r in enumerate(rows) if r[3][k]]
                if idx:
                    scopes.append(scope)
                    scope_rows.append(idx)
                    seen[scope.label()] += [rows[i][:3] for i in idx]
            agg.ingest(day, scopes, [r[0] for r in rows], [r[1] for r in rows],
                       [r[2] for r in rows], scope_rows)
        bucket = agg.day_state(day)
        for label, rows in seen.items():
            if label not in bucket:
                assert not rows
                continue
            assert json.dumps(bucket[label].snapshot(), sort_keys=True) == json.dumps(
                _row_snapshot(rows), sort_keys=True
            )

    def test_first_signed_zero_wins_the_extremes(self):
        states = dict(batch_states(
            self.SCOPES[:2], [0.0, -0.0, -0.0, 0.0], [1.0] * 4, [0.0] * 4,
            ([0, 1, 2, 3], [2, 3]),
        ))
        for label, first in (("national", "0.0"), ("oblast:A", "-0.0")):
            m = states[label].moments["tput_mbps"]
            assert repr(m.vmin) == repr(m.vmax) == first


class TestMergeableHistogram:
    """The one histogram (``obs.metrics.Histogram``), whose JSON form the
    live state's bucket counts share."""

    def test_bucketing(self):
        h = Histogram("h", (1.0, 10.0))
        for v in (0.5, 5.0, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"le_1": 1, "le_10": 2, "overflow": 1}

    def test_nan_is_skipped(self):
        h = Histogram("h", (0.1, 10.0))
        h.observe(3.0)
        before = h.snapshot()
        h.observe(float("nan"))
        assert h.snapshot() == before
        assert before["count"] == 1 and before["sum"] == 3.0
        assert before["buckets"] == {"le_0.1": 0, "le_10": 1, "overflow": 0}

    def test_sum_is_exact(self):
        h = Histogram("h", (1.0,))
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        assert h.snapshot()["sum"] == 0.6


class TestAggregatorChunking:
    """Ingesting the same rows in any batching yields identical bytes."""

    def _ingest(self, agg, day, tput, rtt, loss, chunk):
        n = len(tput)
        scope = ScopeKey("national", "")
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            idx = np.arange(lo, hi)
            agg.ingest(day, (scope,), tput, rtt, loss, (idx,))
        agg.close_day(day)

    def test_batch_size_invariance(self):
        rng = np.random.Generator(np.random.PCG64(11))
        day = 738000
        tput = rng.lognormal(3.0, 1.0, 97)
        rtt = rng.lognormal(3.0, 0.5, 97)
        loss = rng.random(97) * 0.05
        snaps = []
        for chunk in (1, 7, 97):
            agg = SlidingWindowAggregator(WindowConfig())
            self._ingest(agg, day, tput, rtt, loss, chunk)
            snaps.append(
                json.dumps(agg.snapshot(day), sort_keys=True)
            )
        assert snaps[0] == snaps[1] == snaps[2]


#: A ten-day baseline, so a stream of 10+ days compacts baseline days
#: (``retain_days`` is 8) and a stream of 19+ days drops later ones.
BASELINE_START = Day.of("2022-01-01").ordinal
ASSEMBLY_CONFIG = WindowConfig(
    window_days=3,
    recent_days=7,
    baseline_start="2022-01-01",
    baseline_end=Day(BASELINE_START + 9).iso(),
)
ASSEMBLY_SCOPES = (
    ScopeKey("national", ""),
    ScopeKey("oblast", "A"),
    ScopeKey("oblast", "B"),
    ScopeKey("city", "X"),
)
metric_value = st.one_of(
    st.just(float("nan")),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
#: (scope mask over the non-national scopes, tput, rtt, loss)
assembly_row = st.tuples(
    st.lists(st.booleans(), min_size=3, max_size=3),
    metric_value,
    metric_value,
    metric_value,
)
#: (rows, read the windows after this batch?)
assembly_batch = st.tuples(st.lists(assembly_row, max_size=4), st.booleans())
#: Batches per day; the first day has one, so a baseline day compacts.
assembly_stream = st.tuples(
    st.lists(assembly_batch, min_size=1, max_size=3),
    st.lists(st.lists(assembly_batch, max_size=3), min_size=9, max_size=19),
).map(lambda first_rest: [first_rest[0]] + first_rest[1])


def _ingest_batch(agg, day, rows):
    tput = [r[1] for r in rows]
    rtt = [r[2] for r in rows]
    loss = [r[3] for r in rows]
    scopes, scope_rows = [ASSEMBLY_SCOPES[0]], [list(range(len(rows)))]
    for k, scope in enumerate(ASSEMBLY_SCOPES[1:]):
        idx = [i for i, r in enumerate(rows) if r[0][k]]
        if idx:
            scopes.append(scope)
            scope_rows.append(idx)
    agg.ingest(day, scopes, tput, rtt, loss, scope_rows)


def _merged(buckets):
    """Today's reference: a fresh KeyState per scope, merged in order."""
    out = {}
    for bucket in buckets:
        for label, state in bucket.items():
            out.setdefault(label, KeyState()).merge(state)
    return out


def _view_bytes(view):
    return json.dumps(
        [(label, state.snapshot()) for label, state in view.items()],
        sort_keys=True,
    )


def _check_views(agg, day):
    days = agg.days
    baseline = agg.config.baseline_ordinals
    for n in (1, 3, 7):
        ref = _merged(days[d] for d in range(day - n + 1, day + 1) if d in days)
        assert _view_bytes(agg.window_state(day, n)) == _view_bytes(ref)
    ref = _merged(days[d] for d in range(day - 7, day) if d in days)
    assert _view_bytes(agg.recent_state(day)) == _view_bytes(ref)
    tail = [days[d] for d in sorted(days) if d in baseline]
    ref = _merged(tail + [agg.baseline_compact])
    assert _view_bytes(agg.baseline_state()) == _view_bytes(ref)
    n_days = agg.baseline_days_compacted + len(tail)
    expected = (
        {label: state.rows / n_days for label, state in ref.items()}
        if n_days
        else {}
    )
    assert agg.baseline_daily_counts() == expected


class TestWindowAssembly:
    """Memoized window folds == merging the same day buckets one by one."""

    @given(assembly_stream)
    @settings(max_examples=60, deadline=None)
    def test_windows_match_merge_under_interleaved_reads(self, stream):
        read = SlidingWindowAggregator(ASSEMBLY_CONFIG)
        quiet = SlidingWindowAggregator(ASSEMBLY_CONFIG)
        for offset, batches in enumerate(stream):
            day = BASELINE_START + offset
            for rows, read_after in batches:
                _ingest_batch(read, day, rows)
                _ingest_batch(quiet, day, rows)
                if read_after:
                    _check_views(read, day)
            read.close_day(day)
            quiet.close_day(day)
            _check_views(read, day)
        assert read.baseline_days_compacted > 0
        assert json.dumps(read.to_state(), sort_keys=True) == json.dumps(
            quiet.to_state(), sort_keys=True
        )

    def test_read_between_batches_sees_the_second_batch(self):
        agg = SlidingWindowAggregator(ASSEMBLY_CONFIG)
        day = BASELINE_START
        _ingest_batch(agg, day, [([False] * 3, 1.0, 10.0, 0.0)])
        assert agg.window_state(day, 1)["national"].rows == 1
        _ingest_batch(agg, day, [([True] * 3, 2.0, 20.0, 0.0)])
        assert agg.window_state(day, 1)["national"].rows == 2
        assert agg.baseline_state()["oblast:A"].rows == 1


class TestClosedDays:
    """A closed day is final, so views over closed days never go stale."""

    @staticmethod
    def _closed(agg, offsets):
        for offset in offsets:
            day = BASELINE_START + offset
            _ingest_batch(agg, day, [([True, offset % 2 == 0, True],
                                      1.0 + offset, 10.0 * offset, 0.001)])
            agg.close_day(day)

    def test_ingesting_a_closed_day_raises(self):
        agg = SlidingWindowAggregator(ASSEMBLY_CONFIG)
        self._closed(agg, range(2))
        before = json.dumps(agg.to_state(), sort_keys=True)
        for offset in (0, 1):
            with pytest.raises(ReproError, match="a closed day is final"):
                _ingest_batch(agg, BASELINE_START + offset,
                              [([True] * 3, 5.0, 5.0, 0.0)])
        assert json.dumps(agg.to_state(), sort_keys=True) == before
        _ingest_batch(agg, BASELINE_START + 2, [([True] * 3, 5.0, 5.0, 0.0)])
        assert agg.day_state(BASELINE_START + 2)["national"].rows == 1

    def test_a_late_row_for_a_compacted_baseline_day_is_refused(self):
        # Closing ten days compacts the first two (8 are retained).  A late
        # row for the first day once re-created its bucket, and the next
        # close compacted that day a second time: 4 counted, 3 distinct.
        agg = SlidingWindowAggregator(ASSEMBLY_CONFIG)
        self._closed(agg, range(10))
        assert agg.baseline_days_compacted == 2
        rows = agg.baseline_compact["national"].rows
        with pytest.raises(ReproError):
            _ingest_batch(agg, BASELINE_START, [([True] * 3, 5.0, 5.0, 0.0)])
        self._closed(agg, [10])
        assert agg.baseline_days_compacted == 3
        assert agg.baseline_compact["national"].rows == rows + 1

    def test_a_view_of_closed_days_outlives_later_changes(self):
        agg = SlidingWindowAggregator(ASSEMBLY_CONFIG)
        self._closed(agg, range(5))
        day = BASELINE_START + 4
        window, recent = agg.window_state(day), agg.recent_state(day)
        buckets = {
            "window": [agg.days[d] for d in range(day - 2, day + 1)],
            "recent": [agg.days[d] for d in range(day - 7, day) if d in agg.days],
        }
        # Eleven more closes evict and compact every day these views cover.
        self._closed(agg, range(5, 16))
        assert not set(agg.days) & set(range(day - 7, day + 1))
        assert _view_bytes(window) == _view_bytes(_merged(buckets["window"]))
        assert _view_bytes(recent) == _view_bytes(_merged(buckets["recent"]))
        assert window.rows("national") == 3


class TestLazyViews:
    """Views fold a scope on first read and go stale when the state changes."""

    @staticmethod
    def _two_days():
        agg = SlidingWindowAggregator(ASSEMBLY_CONFIG)
        for offset in range(2):
            _ingest_batch(agg, BASELINE_START + offset,
                          [([True, False, False], 1.0 + offset, 10.0, 0.0)])
        return agg, BASELINE_START + 1

    def test_reading_a_view_after_the_next_ingest_raises(self):
        agg, day = self._two_days()
        view = agg.window_state(day, 3)
        assert view["national"].rows == 2
        _ingest_batch(agg, day, [([True] * 3, 2.0, 20.0, 0.0)])
        reads = (
            lambda: view["national"], lambda: view.get("national"),
            lambda: view.rows("national"), lambda: list(view),
            lambda: "national" in view, lambda: len(view),
        )
        for read in reads:
            with pytest.raises(StaleViewError):
                read()
        assert agg.window_state(day, 3)["national"].rows == 3

    def test_reading_a_view_after_close_day_raises(self):
        agg, day = self._two_days()
        view = agg.baseline_state()
        agg.close_day(day)
        with pytest.raises(StaleViewError):
            view["national"]

    def test_only_reading_a_state_folds_it(self):
        from repro import obs

        obs.reset()
        obs.enable(trace=False, metrics=True)
        try:
            agg, day = self._two_days()
            view = agg.window_state(day, 3)

            def folds():
                return obs.metrics_snapshot()["counters"].get("live.window.folds", 0)

            assert view.rows("national") == 2 and view.rows("city:X") == 0
            assert sorted(view) == ["national", "oblast:A"] and "oblast:A" in view
            assert agg.baseline_daily_counts() == {"national": 1.0, "oblast:A": 1.0}
            assert folds() == 0
            assert view["national"] is view["national"]
            assert folds() == 1
            # One day state: read as is, no fold.
            assert agg.window_state(day, 1)["national"] is agg.day_state(day)["national"]
            assert folds() == 1
            counters = obs.metrics_snapshot()["counters"]
            assert counters["live.window.views"] == 3
        finally:
            obs.reset()
