"""Online degradation detection: deterministic change-point alerting.

The engine runs once per simulated day close, over the exact window
aggregates (:mod:`repro.obs.live.window`).  Two rule families:

* :class:`MetricRule` — a sliding Welch's t-test
  (:func:`repro.stats.welch.welch_t_from_moments`, moments only — the
  detector never holds raw samples) comparing the detection window
  ending at the current day against the rolling prewar baseline.  The
  throughput/RTT rules test the *log* streams: NDT per-test throughput
  is heavy-tailed, and in log space the invasion-day level shift is a
  clean mean shift with a direct reading as a geometric-mean change
  (``exp(Δ) − 1``).
* :class:`VolumeRule` — the outage signatures the t-test cannot see.
  The 2022-03-10 national outage presents as a *surge* of tests (users
  probing a broken network) at collapsed throughput, judged against the
  trailing ``recent_days`` window because wartime levels are already
  depressed; a regional blackout (Mariupol) presents as the trailing
  week's volume collapsing against the prewar norm.

Alerts carry stable IDs (``rule:scope:raised-day``), a raise/resolve
lifecycle with hysteresis (``clear_days`` consecutive quiet days to
resolve), and serialize to a canonical ``alerts.json`` validated
against ``docs/alerts.schema.json``.  Because evaluation happens only
at day boundaries over exact sums, the document is byte-identical
across runs *and* across batch chunkings of the same stream.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.live.window import KeyState, ScopeKey, SlidingWindowAggregator
from repro.stats.welch import welch_t_from_moments
from repro.util.errors import ReproError
from repro.util.timeutil import Day

__all__ = [
    "Alert",
    "AlertEngine",
    "DetectorConfig",
    "MetricRule",
    "VolumeRule",
    "build_alerts_doc",
    "validate_alerts_doc",
]


@dataclass(frozen=True)
class MetricRule:
    """Welch's-t change rule for one moment stream.

    Fires when the detection window differs from the prewar baseline at
    ``alpha`` significance *and* the effect size clears ``min_effect``
    in ``direction`` — significance alone would page on tiny shifts once
    windows grow large.  For ``log_*`` streams the effect is the
    geometric change ``exp(mean_delta) - 1``; for raw streams it is the
    relative change against the baseline mean.
    """

    rule_id: str
    metric: str
    direction: str  # "drop" | "rise"
    severity: str = "critical"
    alpha: float = 0.05
    min_effect: float = 0.10
    min_count: int = 25
    min_baseline_count: int = 100
    #: Detection window in days.  1 = react the day a shift lands (the
    #: invasion-day timing requirement); longer windows trade latency
    #: for the sample size regional scopes need to reach significance.
    window_days: int = 1
    scope_kinds: Tuple[str, ...] = ("national", "oblast")

    def __post_init__(self) -> None:
        if self.direction not in ("drop", "rise"):
            raise ValueError(f"direction must be drop|rise, got {self.direction!r}")

    def evaluate(
        self, window: KeyState, baseline: KeyState
    ) -> Optional[Dict[str, object]]:
        """Evidence dict when firing for this scope today, else None."""
        win = window.moments.get(self.metric)
        base = baseline.moments.get(self.metric)
        if win is None or base is None:
            return None
        if win.n < self.min_count or base.n < self.min_baseline_count:
            return None
        win_mean, win_var = win.mean, win.variance
        base_mean, base_var = base.mean, base.variance
        if math.isnan(win_var) or math.isnan(base_var):
            return None
        if win_var + base_var == 0.0:
            return None
        result = welch_t_from_moments(
            base.n, base_mean, base_var, win.n, win_mean, win_var
        )
        delta = win_mean - base_mean
        if self.metric.startswith("log_"):
            effect = math.expm1(delta)
        elif base_mean != 0.0:
            effect = delta / abs(base_mean)
        else:
            return None
        fired = result.p_value < self.alpha and (
            effect <= -self.min_effect
            if self.direction == "drop"
            else effect >= self.min_effect
        )
        if not fired:
            return None
        return {
            "metric": self.metric,
            "direction": self.direction,
            "p_value": result.p_value,
            "t": result.statistic,
            "df": result.df,
            "effect": effect,
            "window_count": win.n,
            "window_mean": win_mean,
            "baseline_count": base.n,
            "baseline_mean": base_mean,
        }


@dataclass(frozen=True)
class VolumeRule:
    """Test-volume rule: outage surge or blackout collapse.

    ``kind="surge"``: today's row count is at least ``count_factor``
    times the trailing daily mean *and* today's mean throughput is at
    most ``tput_factor`` of the trailing mean — the paper's 03-10
    signature (retry storm over a broken network).  ``kind="collapse"``:
    the trailing week's volume (including today) fell to at most
    ``count_factor`` of the prewar weekly norm — a region going dark.
    """

    rule_id: str
    kind: str  # "surge" | "collapse"
    count_factor: float
    tput_factor: Optional[float] = None
    severity: str = "critical"
    min_reference_daily: float = 1.0
    min_reference_weekly: float = 5.0
    scope_kinds: Tuple[str, ...] = ("national", "oblast")

    def __post_init__(self) -> None:
        if self.kind not in ("surge", "collapse"):
            raise ValueError(f"kind must be surge|collapse, got {self.kind!r}")

    def surge_volume(
        self, day_rows: int, recent_daily_mean: Optional[float]
    ) -> bool:
        """Whether today's row count alone clears the surge gate.

        Row counts need no folded window, so the engine asks this before
        it reads the trailing window's state.
        """
        if not recent_daily_mean or recent_daily_mean < self.min_reference_daily:
            return False
        return day_rows / recent_daily_mean >= self.count_factor

    def evaluate_surge(
        self,
        day_state: Optional[KeyState],
        recent_state: Optional[KeyState],
        recent_daily_mean: Optional[float],
    ) -> Optional[Dict[str, object]]:
        if day_state is None or recent_state is None:
            return None
        if not self.surge_volume(day_state.rows, recent_daily_mean):
            return None
        evidence: Dict[str, object] = {
            "day_rows": day_state.rows,
            "recent_daily_mean": recent_daily_mean,
            "count_ratio": day_state.rows / recent_daily_mean,
        }
        if self.tput_factor is not None:
            day_t = day_state.moments["tput_mbps"]
            rec_t = recent_state.moments["tput_mbps"]
            if day_t.n == 0 or rec_t.n == 0:
                return None
            day_mean, rec_mean = day_t.mean, rec_t.mean
            if rec_mean <= 0.0:
                return None
            tput_ratio = day_mean / rec_mean
            if tput_ratio > self.tput_factor:
                return None
            evidence.update(
                {
                    "day_tput_mean": day_mean,
                    "recent_tput_mean": rec_mean,
                    "tput_ratio": tput_ratio,
                }
            )
        return evidence

    def evaluate_collapse(
        self,
        week_rows: int,
        week_days: int,
        baseline_daily_mean: Optional[float],
    ) -> Optional[Dict[str, object]]:
        if not baseline_daily_mean:
            return None
        expected = baseline_daily_mean * week_days
        if expected < self.min_reference_weekly:
            return None
        ratio = week_rows / expected
        if ratio > self.count_factor:
            return None
        return {
            "week_rows": week_rows,
            "week_days": week_days,
            "baseline_weekly_mean": expected,
            "count_ratio": ratio,
        }


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs shared by the default rule set.

    The defaults are calibrated against the synthetic timeline at the
    benchmark scale so the invasion-day throughput shift and the 03-10
    outage both fire on their own day (``docs/OBSERVABILITY.md``).
    """

    clear_days: int = 2
    alpha: float = 0.05
    tput_min_effect: float = 0.10
    tput_window_days: int = 1
    rtt_min_effect: float = 0.15
    rtt_window_days: int = 7
    loss_min_effect: float = 0.50
    loss_window_days: int = 3
    surge_count_factor: float = 1.5
    surge_tput_factor: float = 0.75
    surge_min_daily: float = 30.0
    collapse_count_factor: float = 0.35
    collapse_min_weekly: float = 5.0

    def rules(self) -> Tuple[Tuple[MetricRule, ...], Tuple[VolumeRule, ...]]:
        metric = (
            MetricRule(
                "throughput-degradation",
                "log_tput_mbps",
                "drop",
                severity="critical",
                alpha=self.alpha,
                min_effect=self.tput_min_effect,
                window_days=self.tput_window_days,
            ),
            MetricRule(
                "rtt-degradation",
                "log_min_rtt_ms",
                "rise",
                severity="warning",
                alpha=self.alpha,
                min_effect=self.rtt_min_effect,
                window_days=self.rtt_window_days,
            ),
            MetricRule(
                "loss-degradation",
                "loss_rate",
                "rise",
                severity="warning",
                alpha=self.alpha,
                min_effect=self.loss_min_effect,
                window_days=self.loss_window_days,
            ),
        )
        volume = (
            VolumeRule(
                "outage-surge",
                "surge",
                count_factor=self.surge_count_factor,
                tput_factor=self.surge_tput_factor,
                severity="critical",
                # Below ~30 rows/day a 1.5x day is Poisson noise, not an
                # outage signature; the gate keeps the rule on scopes
                # with enough volume to mean something.
                min_reference_daily=self.surge_min_daily,
                scope_kinds=("national", "oblast"),
            ),
            VolumeRule(
                "volume-collapse",
                "collapse",
                count_factor=self.collapse_count_factor,
                severity="critical",
                min_reference_weekly=self.collapse_min_weekly,
                scope_kinds=("national", "oblast", "city"),
            ),
        )
        return metric, volume


_RULE_KINDS = {
    "throughput-degradation": "degradation",
    "rtt-degradation": "degradation",
    "loss-degradation": "degradation",
    "outage-surge": "outage",
    "volume-collapse": "volume",
}


@dataclass
class Alert:
    """One raise of one rule on one scope; resolves with hysteresis."""

    id: str
    rule: str
    kind: str
    severity: str
    scope: str
    metric: Optional[str]
    raised: str  # ISO day
    resolved: Optional[str] = None
    evidence: Dict[str, object] = field(default_factory=dict)
    clear_streak: int = 0  # consecutive quiet days while active

    @property
    def status(self) -> str:
        return "resolved" if self.resolved is not None else "active"

    def to_doc(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "rule": self.rule,
            "kind": self.kind,
            "severity": self.severity,
            "scope": self.scope,
            "metric": self.metric,
            "raised": self.raised,
            "resolved": self.resolved,
            "status": self.status,
            "evidence": dict(sorted(self.evidence.items())),
        }

    def to_state(self) -> Dict[str, object]:
        state = self.to_doc()
        del state["status"]
        state["clear_streak"] = self.clear_streak
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Alert":
        return cls(
            id=state["id"],
            rule=state["rule"],
            kind=state["kind"],
            severity=state["severity"],
            scope=state["scope"],
            metric=state["metric"],
            raised=state["raised"],
            resolved=state["resolved"],
            evidence=dict(state["evidence"]),
            clear_streak=int(state["clear_streak"]),
        )


class AlertEngine:
    """Day-close evaluation of every rule on every eligible scope.

    Detection starts the day after the baseline window ends (the
    baseline itself is never judged against itself).  Active alerts
    resolve after ``clear_days`` consecutive days without their
    condition; a later recurrence raises a *new* alert (new stable ID),
    keeping the full history replayable.
    """

    def __init__(self, config: DetectorConfig = DetectorConfig()):
        self.config = config
        self.metric_rules, self.volume_rules = config.rules()
        self.active: Dict[str, Alert] = {}  # "rule:scope" -> alert
        self.history: List[Alert] = []  # every raise, in raise order
        self.last_evaluated: Optional[int] = None

    # -- evaluation ----------------------------------------------------------
    def required_retention(self) -> int:
        """Day-states the aggregator must retain for the rules to see."""
        return max(rule.window_days for rule in self.metric_rules)

    def _scope_kind(self, label: str) -> str:
        return ScopeKey.from_label(label).kind

    def evaluate_day(self, agg: SlidingWindowAggregator, day: int) -> List[Alert]:
        """Run all rules for one just-closed day; returns state changes.

        Must be called once per day in ascending order; the returned
        list holds alerts that were raised or resolved today.
        """
        day = int(day)
        if self.last_evaluated is not None and day <= self.last_evaluated:
            raise ReproError(
                f"alert engine evaluated out of order: day {day} after "
                f"{self.last_evaluated}"
            )
        self.last_evaluated = day
        if day <= agg.config.baseline_ordinals[-1]:
            return []

        # Views fold a scope only when it is read, so every loop filters
        # labels by the rule's scope kinds first and reads row counts
        # without folding where counts are all a rule needs.
        fired: Dict[str, Tuple[object, Dict[str, object]]] = {}
        baseline = agg.baseline_state()
        for rule in self.metric_rules:
            window = agg.window_state(day, days=rule.window_days)
            for label in window:
                if self._scope_kind(label) not in rule.scope_kinds:
                    continue
                base = baseline.get(label)
                if base is None:
                    continue
                evidence = rule.evaluate(window[label], base)
                if evidence is not None:
                    fired[f"{rule.rule_id}:{label}"] = (rule, evidence)

        day_state = agg.day_state(day)
        recent = agg.recent_state(day)
        recent_counts = agg.recent_daily_counts(day)
        baseline_counts = agg.baseline_daily_counts()
        week = agg.window_state(day, days=agg.config.recent_days)
        for vrule in self.volume_rules:
            if vrule.kind == "surge":
                for label, state in day_state.items():
                    if self._scope_kind(label) not in vrule.scope_kinds:
                        continue
                    mean = recent_counts.get(label)
                    if not vrule.surge_volume(state.rows, mean):
                        continue
                    evidence = vrule.evaluate_surge(state, recent.get(label), mean)
                    if evidence is not None:
                        fired[f"{vrule.rule_id}:{label}"] = (vrule, evidence)
            else:
                # A collapsed scope may be absent from today's states
                # entirely — its absence is the signal — so iterate the
                # scopes the *baseline* knows about.
                for label, base_mean in baseline_counts.items():
                    if self._scope_kind(label) not in vrule.scope_kinds:
                        continue
                    evidence = vrule.evaluate_collapse(
                        week.rows(label), agg.config.recent_days, base_mean
                    )
                    if evidence is not None:
                        fired[f"{vrule.rule_id}:{label}"] = (vrule, evidence)

        return self._apply(day, fired)

    def _apply(
        self, day: int, fired: Dict[str, Tuple[object, Dict[str, object]]]
    ) -> List[Alert]:
        iso = Day(day).iso()
        changed: List[Alert] = []
        for key in sorted(fired):
            rule, evidence = fired[key]
            alert = self.active.get(key)
            if alert is not None:
                alert.clear_streak = 0
                continue
            alert = Alert(
                id=f"{key}:{iso}",
                rule=rule.rule_id,
                kind=_RULE_KINDS.get(rule.rule_id, "degradation"),
                severity=rule.severity,
                scope=key.split(":", 1)[1],
                metric=getattr(rule, "metric", None),
                raised=iso,
                evidence=evidence,
            )
            self.active[key] = alert
            self.history.append(alert)
            changed.append(alert)
        for key in sorted(self.active):
            if key in fired:
                continue
            alert = self.active[key]
            alert.clear_streak += 1
            if alert.clear_streak >= self.config.clear_days:
                alert.resolved = iso
                del self.active[key]
                changed.append(alert)
        return changed

    # -- checkpointing -------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        return {
            "config": dataclasses.asdict(self.config),
            "history": [a.to_state() for a in self.history],
            "active": sorted(
                key for key in self.active
            ),  # alerts themselves live in history
            "last_evaluated": self.last_evaluated,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "AlertEngine":
        out = cls(DetectorConfig(**state["config"]))
        out.history = [Alert.from_state(a) for a in state["history"]]
        by_key = {f"{a.rule}:{a.scope}": a for a in out.history}
        out.active = {key: by_key[key] for key in state["active"]}
        out.last_evaluated = state["last_evaluated"]
        if out.last_evaluated is not None:
            out.last_evaluated = int(out.last_evaluated)
        return out


# -- alerts.json -------------------------------------------------------------
def build_alerts_doc(
    engine: AlertEngine, agg: Optional[SlidingWindowAggregator] = None
) -> Dict[str, object]:
    """The canonical alert document (schema: ``docs/alerts.schema.json``).

    Deterministic by construction: alerts sort by (raised, id), floats
    are the exact values the exact aggregation produced, and nothing
    wall-clock-dependent is included.
    """
    alerts = sorted(engine.history, key=lambda a: (a.raised, a.id))
    doc: Dict[str, object] = {
        "schema_version": 1,
        "evaluated_through": (
            Day(engine.last_evaluated).iso()
            if engine.last_evaluated is not None
            else None
        ),
        "counts": {
            "total": len(alerts),
            "active": sum(1 for a in alerts if a.resolved is None),
            "resolved": sum(1 for a in alerts if a.resolved is not None),
        },
        "alerts": [a.to_doc() for a in alerts],
    }
    if agg is not None:
        doc["baseline"] = {
            "start": agg.config.baseline_start,
            "end": agg.config.baseline_end,
        }
        doc["rows_ingested"] = agg.rows_ingested
    return doc


def validate_alerts_doc(
    doc: Dict[str, object], schema: Optional[Dict[str, object]] = None
) -> List[str]:
    """Check an alerts document against ``docs/alerts.schema.json``."""
    from repro.obs.report import load_schema, validate_against_schema

    if schema is None:
        schema = load_schema("alerts.schema.json")
    return validate_against_schema(doc, schema)
