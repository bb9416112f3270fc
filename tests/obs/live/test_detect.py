"""Alert-engine unit tests: rule gates, lifecycle, schema, state."""

import json

import pytest

from repro.obs.live.detect import (
    AlertEngine,
    DetectorConfig,
    MetricRule,
    VolumeRule,
    build_alerts_doc,
    validate_alerts_doc,
)
from repro.obs.live.window import ScopeKey, batch_states
from repro.util.errors import ReproError
from repro.util.timeutil import Day


def keystate(tputs, rtt=20.0, loss=0.0):
    n = len(tputs)
    [(_, state)] = batch_states(
        (ScopeKey("national", ""),), tputs, [rtt] * n, [loss] * n, (range(n),)
    )
    return state


def varied(center, n, spread=0.2):
    """n values around center with nonzero variance (t-test needs it)."""
    return [center * (1.0 + spread * (1 if i % 2 else -1)) for i in range(n)]


class TestMetricRule:
    RULE = MetricRule(
        "throughput-degradation", "log_tput_mbps", "drop",
        min_count=25, min_baseline_count=100,
    )

    def test_fires_on_clear_drop(self):
        base = keystate(varied(50.0, 200))
        win = keystate(varied(30.0, 50))
        evidence = self.RULE.evaluate(win, base)
        assert evidence is not None
        assert evidence["p_value"] < 0.05
        assert evidence["effect"] < -0.10
        assert evidence["direction"] == "drop"

    def test_direction_gate(self):
        base = keystate(varied(50.0, 200))
        win = keystate(varied(80.0, 50))  # improvement, not degradation
        assert self.RULE.evaluate(win, base) is None

    def test_min_count_gate(self):
        base = keystate(varied(50.0, 200))
        win = keystate(varied(30.0, 10))  # under min_count=25
        assert self.RULE.evaluate(win, base) is None

    def test_no_fire_without_shift(self):
        base = keystate(varied(50.0, 200))
        win = keystate(varied(50.0, 50))
        assert self.RULE.evaluate(win, base) is None

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            MetricRule("x", "log_tput_mbps", "sideways")


class TestVolumeRule:
    SURGE = VolumeRule(
        "outage-surge", "surge", count_factor=1.5, tput_factor=0.75,
        min_reference_daily=30.0,
    )
    COLLAPSE = VolumeRule(
        "volume-collapse", "collapse", count_factor=0.35,
        min_reference_weekly=5.0,
    )

    def test_surge_fires_on_count_spike_with_tput_dip(self):
        day = keystate(varied(20.0, 90))  # 90 rows, depressed throughput
        recent = keystate(varied(50.0, 350))
        evidence = self.SURGE.evaluate_surge(day, recent, 50.0)
        assert evidence is not None
        assert evidence["count_ratio"] >= 1.5
        assert evidence["tput_ratio"] <= 0.75

    def test_surge_needs_the_tput_dip_too(self):
        day = keystate(varied(50.0, 90))  # spike without degradation
        recent = keystate(varied(50.0, 350))
        assert self.SURGE.evaluate_surge(day, recent, 50.0) is None

    def test_surge_min_daily_gate(self):
        day = keystate(varied(20.0, 9))
        recent = keystate(varied(50.0, 35))
        assert self.SURGE.evaluate_surge(day, recent, 5.0) is None

    def test_collapse_fires_when_volume_vanishes(self):
        evidence = self.COLLAPSE.evaluate_collapse(3, 7, 10.0)
        assert evidence is not None
        assert evidence["count_ratio"] <= 0.35

    def test_collapse_respects_weekly_floor(self):
        assert self.COLLAPSE.evaluate_collapse(0, 7, 0.5) is None

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            VolumeRule("x", "dip", count_factor=1.0)


class TestLifecycle:
    DAY0 = Day.of("2022-02-24").ordinal

    def _engine(self):
        return AlertEngine(DetectorConfig(clear_days=2))

    def _fire(self, engine, day, keys):
        rule = engine.metric_rules[0]
        fired = {f"{rule.rule_id}:{key}": (rule, {"effect": -0.2}) for key in keys}
        return engine._apply(day, fired)

    def test_raise_then_hysteresis_then_resolve(self):
        engine = self._engine()
        changed = self._fire(engine, self.DAY0, ["national"])
        assert len(changed) == 1
        alert = changed[0]
        assert alert.id == "throughput-degradation:national:2022-02-24"
        assert alert.status == "active"

        # One quiet day is not enough to resolve (clear_days=2)...
        assert self._fire(engine, self.DAY0 + 1, []) == []
        assert alert.clear_streak == 1
        # ...and a re-fire resets the streak.
        assert self._fire(engine, self.DAY0 + 2, ["national"]) == []
        assert alert.clear_streak == 0
        # Two consecutive quiet days resolve it.
        assert self._fire(engine, self.DAY0 + 3, []) == []
        changed = self._fire(engine, self.DAY0 + 4, [])
        assert changed == [alert]
        assert alert.status == "resolved"
        assert alert.resolved == Day(self.DAY0 + 4).iso()

    def test_recurrence_is_a_new_alert(self):
        engine = self._engine()
        first = self._fire(engine, self.DAY0, ["national"])[0]
        self._fire(engine, self.DAY0 + 1, [])
        self._fire(engine, self.DAY0 + 2, [])
        second = self._fire(engine, self.DAY0 + 3, ["national"])[0]
        assert first.id != second.id
        assert len(engine.history) == 2

    def test_out_of_order_evaluation_is_an_error(self):
        from repro.obs.live.window import SlidingWindowAggregator, WindowConfig

        engine = self._engine()
        agg = SlidingWindowAggregator(WindowConfig())
        engine.evaluate_day(agg, self.DAY0)
        with pytest.raises(ReproError):
            engine.evaluate_day(agg, self.DAY0)

    def test_state_round_trip(self):
        engine = self._engine()
        self._fire(engine, self.DAY0, ["national", "oblast:Kharkiv"])
        self._fire(engine, self.DAY0 + 1, ["national"])
        engine.last_evaluated = self.DAY0 + 1
        state = json.loads(json.dumps(engine.to_state()))
        clone = AlertEngine.from_state(state)
        assert clone.to_state() == engine.to_state()
        assert sorted(clone.active) == sorted(engine.active)


class TestAlertsDoc:
    def test_empty_doc_is_schema_valid(self):
        doc = build_alerts_doc(AlertEngine(DetectorConfig()))
        assert validate_alerts_doc(doc) == []

    def test_populated_doc_is_schema_valid_and_sorted(self):
        engine = AlertEngine(DetectorConfig())
        day = Day.of("2022-02-24").ordinal
        rule = engine.metric_rules[0]
        engine._apply(day, {
            f"{rule.rule_id}:oblast:Kharkiv": (rule, {"effect": -0.3}),
            f"{rule.rule_id}:national": (rule, {"effect": -0.2}),
        })
        doc = build_alerts_doc(engine)
        assert validate_alerts_doc(doc) == []
        ids = [a["id"] for a in doc["alerts"]]
        assert ids == sorted(ids)

    def test_schema_rejects_bad_documents(self):
        doc = build_alerts_doc(AlertEngine(DetectorConfig()))
        doc["alerts"] = [{"id": "x"}]  # missing required alert fields
        assert validate_alerts_doc(doc) != []
        assert validate_alerts_doc({"schema_version": 1}) != []


class TestRetention:
    def test_required_retention_is_longest_rule_window(self):
        config = DetectorConfig(rtt_window_days=9)
        assert AlertEngine(config).required_retention() == 9

    def test_daemon_rejects_underprovisioned_window(self, live_table):
        from repro.obs.live.daemon import LiveDaemon
        from repro.obs.live.source import ReplaySource
        from repro.obs.live.window import WindowConfig

        source = ReplaySource(live_table, "2022-01-01", "2022-01-10")
        with pytest.raises(ReproError):
            LiveDaemon(
                source,
                window_config=WindowConfig(window_days=1, recent_days=2),
                detector_config=DetectorConfig(rtt_window_days=7),
            )
