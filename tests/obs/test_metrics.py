"""The metrics pillar: counters, gauges, histograms, snapshots, diffs."""

import itertools
import json
import math
import sys
import threading

import pytest

from repro import obs
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    percentile_from_snapshot,
    snapshot_to_json,
)


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)

    def test_gauge_sets_and_moves_both_ways(self):
        g = Gauge("x")
        g.set(10)
        g.inc(-3)
        assert g.value == 7


class TestHistogram:
    def test_bucketing_inclusive_upper_edge(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        for v in (0.5, 1.0, 5.0, 10.0, 99.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == {"le_1": 2, "le_10": 2, "overflow": 1}
        assert snap["count"] == 5
        assert snap["min"] == 0.5
        assert snap["max"] == 99.0
        assert snap["sum"] == pytest.approx(115.5)

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h", bounds=[1.0]).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_default_buckets_cover_ms_range(self):
        h = Histogram("h")
        assert h.bounds == DEFAULT_MS_BUCKETS
        assert h.bounds[0] == 0.1 and h.bounds[-1] == 60000.0

    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError, match="at least one bound"):
            Histogram("h", bounds=[])


class TestPercentile:
    def test_empty_is_nan_not_zero(self):
        # call sites used to improvise zeros for empty histograms
        h = Histogram("h", bounds=[1.0])
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.mean)

    def test_single_sample_is_the_sample(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        h.observe(3.7)
        for q in (0, 50, 95, 100):
            assert h.percentile(q) == 3.7

    def test_interpolates_within_bucket(self):
        h = Histogram("h", bounds=[10.0, 20.0])
        for v in (2.0, 4.0, 12.0, 14.0):
            h.observe(v)
        p50 = h.percentile(50)
        assert 2.0 <= p50 <= 10.0  # rank 2 falls in the first bucket

    def test_clamped_to_observed_range(self):
        h = Histogram("h", bounds=[100.0])
        h.observe(3.0)
        h.observe(5.0)
        for q in (0, 1, 99, 100):
            assert 3.0 <= h.percentile(q) <= 5.0

    def test_rejects_out_of_range_q(self):
        h = Histogram("h", bounds=[1.0])
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            h.percentile(101)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            h.percentile(-0.1)

    def test_snapshot_parity_with_live_histogram(self):
        h = Histogram("h", bounds=[1.0, 10.0, 100.0])
        for v in (0.5, 2.0, 3.0, 15.0, 40.0, 120.0):
            h.observe(v)
        snap = h.snapshot()
        for q in (5, 25, 50, 75, 95):
            assert percentile_from_snapshot(snap, q) == pytest.approx(
                h.percentile(q)
            )

    def test_snapshot_degenerate_cases(self):
        assert math.isnan(
            percentile_from_snapshot({"count": 0, "buckets": {}}, 50)
        )
        one = {"count": 1, "min": 7.0, "max": 7.0, "buckets": {"le_10": 1}}
        assert percentile_from_snapshot(one, 95) == 7.0
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile_from_snapshot(one, 200)

    def test_null_metric_percentile_is_nan(self):
        assert math.isnan(NULL_METRIC.percentile(50))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_cross_type_name_conflict(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.gauge("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MetricsRegistry().counter("")

    def test_snapshot_shape_and_sorting(self):
        reg = MetricsRegistry()
        reg.counter("z.late").inc()
        reg.counter("a.early").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=[1.0]).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a.early", "z.late"]
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1


class TestJsonRoundTrip:
    def test_encode_decode_encode_is_byte_identical(self):
        reg = MetricsRegistry()
        reg.counter("ingest.rows_quarantined").inc(7)
        reg.histogram("kernel.groupby_ms").observe(3.25)
        text = reg.to_json()
        again = snapshot_to_json(json.loads(text))
        assert again == text

    def test_trailing_newline_and_no_spaces(self):
        text = snapshot_to_json(MetricsRegistry().snapshot())
        assert text.endswith("\n")
        assert ": " not in text


class TestDiff:
    def test_counter_and_gauge_deltas(self):
        before = {"counters": {"a": 1, "same": 5}, "gauges": {"g": 2.0},
                  "histograms": {}}
        after = {"counters": {"a": 4, "same": 5}, "gauges": {"g": 1.0},
                 "histograms": {}}
        d = diff_snapshots(before, after)
        assert d["counters"] == {"a": {"before": 1, "after": 4, "delta": 3}}
        assert d["gauges"]["g"]["delta"] == -1.0
        assert d["added"] == [] and d["removed"] == []

    def test_added_and_removed_metrics(self):
        before = {"counters": {"gone": 1}, "gauges": {}, "histograms": {}}
        after = {"counters": {}, "gauges": {},
                 "histograms": {"h": {"count": 1, "sum": 2.0, "buckets": {}}}}
        d = diff_snapshots(before, after)
        assert d["removed"] == ["counters.gone"]
        assert d["added"] == ["histograms.h"]

    def test_histogram_count_sum_deltas(self):
        h0 = {"count": 2, "sum": 10.0}
        h1 = {"count": 5, "sum": 16.0}
        d = diff_snapshots({"histograms": {"h": h0}}, {"histograms": {"h": h1}})
        assert d["histograms"]["h"] == {"count_delta": 3, "sum_delta": 6.0}


class TestConcurrentObserve:
    def test_span_fed_histogram_survives_many_threads(self):
        # The health service times every request into one registry
        # histogram from its handler threads; the exact sum is not atomic.
        # A clock whose readings span many magnitudes keeps the sum's
        # partials list long, which is where unserialized updates collide.
        ticks = itertools.count()

        def clock():
            k = next(ticks)
            return math.sin(k) * 10.0 ** (k % 13 - 6)

        obs.enable(trace=False, metrics=True, clock=clock)
        errors = []

        def work():
            try:
                for _ in range(2000):
                    with obs.span("t", metric="test.request_ms"):
                        pass
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often to expose races
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        hist = obs.metrics_registry().histogram("test.request_ms")
        assert hist.count == 16000
