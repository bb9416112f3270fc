"""Mergeable-aggregate laws: exact sums, chunking invariance, batch parity.

The tentpole claim of ``repro.obs.live.window`` is that streaming
ingestion is *algebraically* equivalent to the batch kernels — not
approximately, bit for bit.  The hypothesis properties here pin the laws
that make that true (ExactSum merge is associative and commutative, its
value is the correctly rounded sum, concatenated partials stay exact),
the parity tests check the streaming moments against
``group_moments_exact`` on real generated data, and the window-assembly
property checks every memoized window against merging the same day
buckets one by one.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live.window import (
    KeyState,
    MomentState,
    ScopeKey,
    SlidingWindowAggregator,
    WindowConfig,
    moments_from_sums,
)
from repro.obs.metrics import ExactSum, Histogram
from repro.tables.kernels import group_moments_exact
from repro.util.timeutil import Day

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
float_lists = st.lists(finite, max_size=30)


def exact_of(values):
    s = ExactSum()
    for v in values:
        s.add(v)
    return s


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

    @given(float_lists)
    @settings(max_examples=100, deadline=None)
    def test_state_round_trip(self, values):
        s = exact_of(values)
        assert ExactSum.from_state(s.to_state()).value() == s.value()


class TestMomentStateChunking:
    @given(float_lists, st.integers(min_value=1, max_value=7))
    @settings(max_examples=150, deadline=None)
    def test_any_chunking_merges_to_the_bulk_state(self, values, chunk):
        bulk = MomentState()
        for v in values:
            bulk.update(v)
        merged = MomentState()
        for lo in range(0, len(values), chunk):
            part = MomentState()
            for v in values[lo:lo + chunk]:
                part.update(v)
            merged.merge(part)
        assert merged.snapshot() == bulk.snapshot()

    def test_nan_values_are_skipped(self):
        m = MomentState()
        m.update(1.0)
        m.update(float("nan"))
        m.update(3.0)
        snap = m.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == 4.0


class TestBatchParity:
    """Streaming moments == ``group_moments_exact`` bit for bit."""

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
        counts, sums, sumsqs, mins, maxs = group_moments_exact(
            values, order, starts
        )

        for g in range(5):
            m = MomentState()
            for v in values[groups == g]:
                m.update(float(v))
            snap = m.snapshot()
            assert snap["count"] == int(counts[g])
            assert snap["sum"] == sums[g]
            assert snap["sumsq"] == sumsqs[g]
            assert snap["min"] == mins[g]
            assert snap["max"] == maxs[g]
            mean, var = moments_from_sums(
                int(counts[g]), sums[g], sumsqs[g]
            )
            assert snap["mean"] == mean
            assert snap["var"] == var


class TestMergeableHistogram:
    """The one histogram (``obs.metrics.Histogram``) the live state merges."""

    def test_bucketing_and_merge(self):
        a = Histogram("a", (1.0, 10.0))
        b = Histogram("b", (1.0, 10.0))
        for v in (0.5, 5.0):
            a.observe(v)
        for v in (5.0, 50.0):
            b.observe(v)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"le_1": 1, "le_10": 2, "overflow": 1}

    def test_mismatched_bounds_refuse_to_merge(self):
        a = Histogram("a", (1.0, 10.0))
        b = Histogram("b", (1.0, 100.0))
        with pytest.raises(ValueError, match="different bounds"):
            a.merge(b)
        with pytest.raises(ValueError, match="different bounds"):
            Histogram.fold([a, b])

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

    def test_state_round_trips(self):
        h = Histogram("h", (1.0, 10.0))
        for v in (0.1, 0.2, 0.3, 50.0):
            h.observe(v)
        state = h.to_state()
        assert sorted(state) == [
            "bounds", "bucket_counts", "count", "max", "min", "total",
        ]
        back = Histogram.from_state(json.loads(json.dumps(state)), "h")
        assert back.snapshot() == h.snapshot()
        assert back.to_state() == state


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

    def test_state_round_trip_is_byte_stable(self):
        rng = np.random.Generator(np.random.PCG64(13))
        agg = SlidingWindowAggregator(WindowConfig())
        for day in (738000, 738001):
            self._ingest(
                agg, day,
                rng.lognormal(3.0, 1.0, 40),
                rng.lognormal(3.0, 0.5, 40),
                rng.random(40) * 0.05,
                chunk=9,
            )
        state = agg.to_state()
        clone = SlidingWindowAggregator.from_state(state)
        assert json.dumps(clone.to_state(), sort_keys=True) == json.dumps(
            state, sort_keys=True
        )


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
