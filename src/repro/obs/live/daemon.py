"""The clock-driven ingest loop: replay, aggregate, detect, checkpoint.

One :class:`LiveDaemon` owns a :class:`~repro.obs.live.source.ReplaySource`,
a :class:`~repro.obs.live.window.SlidingWindowAggregator`, and an
:class:`~repro.obs.live.detect.AlertEngine`, and advances a
:class:`SimulatedClock` one day per tick: ingest the day's batches,
close the day, evaluate the alert rules, notify subscribers (the health
service), checkpoint.  A checkpoint holds the stream position and the
alert engine, not the aggregator: the replay source fixes every row, and
exact sums make the aggregator a function of its rows, so a resume
rebuilds it by re-ingesting the days before the position.  Checkpoints
go through :class:`repro.runtime.checkpoint.CheckpointStore` with the
JSON codec — atomic, checksummed, generation-kept — so a kill at *any*
announced crash point (``repro chaos`` style) resumes from the last
committed day boundary and replays forward to byte-identical aggregates
and alerts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.faults.crashpoints import crash_point
from repro.obs.live.detect import (
    Alert,
    AlertEngine,
    DetectorConfig,
    build_alerts_doc,
)
from repro.obs.live.source import ReplaySource
from repro.obs.live.window import SlidingWindowAggregator, WindowConfig
from repro.runtime.checkpoint import CheckpointStore, config_key
from repro.util.errors import ReproError
from repro.util.timeutil import Day

__all__ = ["LiveDaemon", "SimulatedClock", "StateVersionError"]

#: Checkpoint stage name (crash points: ``checkpoint.live.state:*``).
STATE_STAGE = "live.state"

#: Version of :meth:`LiveDaemon.to_state`.  3: the stream position and
#: the alert engine only; the aggregator is rebuilt from the source.  It
#: is part of the checkpoint key, so a state of another version is never
#: found, and :meth:`LiveDaemon.restore` refuses one.
STATE_SCHEMA = 3


class StateVersionError(ReproError):
    """A checkpointed live state has a schema version this code cannot read."""


class SimulatedClock:
    """A day-granular simulated clock; the daemon's only notion of time."""

    def __init__(self, start_ordinal: int):
        self._ordinal = int(start_ordinal)

    @property
    def ordinal(self) -> int:
        return self._ordinal

    def today(self) -> Day:
        return Day(self._ordinal)

    def advance(self) -> int:
        """Tick to the next day; returns the new ordinal."""
        self._ordinal += 1
        return self._ordinal


class LiveDaemon:
    """Replays the study window day by day with checkpointed state.

    ``checkpoint_dir=None`` runs fully in memory (tests, smoke);
    otherwise every ``checkpoint_every`` closed days commit the stream
    position and the alert engine, and :meth:`resume` restores them and
    rebuilds the aggregator from the source.  The checkpoint key covers
    the configs, the replay window and a fingerprint of the streamed
    columns, so a checkpoint is resumed only against the rows it saw.
    Subscribers registered via :meth:`subscribe` see every day close
    with the day's alert-state changes — that is the service's feed.
    """

    def __init__(
        self,
        source: ReplaySource,
        window_config: Optional[WindowConfig] = None,
        detector_config: Optional[DetectorConfig] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 7,
    ):
        self.source = source
        self.agg = SlidingWindowAggregator(window_config or WindowConfig())
        self.engine = AlertEngine(detector_config or DetectorConfig())
        needed = self.engine.required_retention()
        if self.agg.config.retain_days() < needed:
            raise ReproError(
                f"window config retains {self.agg.config.retain_days()} days "
                f"but the detector's longest rule window needs {needed}"
            )
        if checkpoint_every < 1:
            raise ReproError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.clock = SimulatedClock(source.start)
        self.checkpoint_every = checkpoint_every
        self.store = (
            CheckpointStore(checkpoint_dir, codec="json") if checkpoint_dir else None
        )
        self.key = config_key(
            {
                "schema_version": STATE_SCHEMA,
                "window": self.agg.config.__dict__,
                "detector": self.engine.config.__dict__,
                "replay": {
                    "start": source.start,
                    "end": source.end,
                    "batch_rows": source.batch_rows,
                    "n_rows": source.n_rows,
                    "fingerprint": source.fingerprint,
                },
            }
        )
        self.days_processed = 0
        self._subscribers: List[Callable[[int, List[Alert]], None]] = []

    # -- wiring --------------------------------------------------------------
    def subscribe(self, callback: Callable[[int, List[Alert]], None]) -> None:
        """Register a day-close listener ``(day_ordinal, changed_alerts)``."""
        self._subscribers.append(callback)

    # -- checkpointing -------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        return {
            "schema_version": STATE_SCHEMA,
            "next_day": self.clock.ordinal,
            "days_processed": self.days_processed,
            "engine": self.engine.to_state(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Load the engine and position; rebuild the aggregator up to it.

        Every day from the source's start to the position is ingested
        and closed again, without detection, subscribers or checkpoints.
        """
        version = state.get("schema_version")
        if version != STATE_SCHEMA:
            raise StateVersionError(
                f"live state has schema_version {version!r}; this code reads "
                f"{STATE_SCHEMA} only"
            )
        next_day = int(state["next_day"])
        if not self.source.start <= next_day <= self.source.end + 1:
            raise ReproError(
                f"live state resumes at {Day(next_day).iso()}, outside the "
                f"replay window {Day(self.source.start).iso()}.."
                f"{Day(self.source.end).iso()}"
            )
        self.engine = AlertEngine.from_state(state["engine"])
        self.agg = SlidingWindowAggregator(self.agg.config)
        rebuilt = next_day - self.source.start
        with obs.span("live.resume", days=rebuilt):
            for day in range(self.source.start, next_day):
                self._ingest_day(day)
        obs.counter("live.resume.days").inc(rebuilt)
        self.clock = SimulatedClock(next_day)
        self.days_processed = int(state["days_processed"])

    def checkpoint(self) -> Optional[str]:
        if self.store is None:
            return None
        path = self.store.save(self.key, STATE_STAGE, self.to_state())
        obs.counter("live.checkpoints").inc()
        return path

    def resume(self) -> bool:
        """Restore the newest intact checkpoint; False when none exists."""
        if self.store is None or not self.store.has(self.key, STATE_STAGE):
            return False
        self.restore(self.store.load(self.key, STATE_STAGE))
        obs.counter("live.resumes").inc()
        return True

    # -- the loop ------------------------------------------------------------
    def _ingest_day(self, day: int) -> Tuple[int, int]:
        """Ingest the day's batches and close it; returns (rows, batches).

        The one ingest-and-close path: :meth:`run_day` and the rebuild in
        :meth:`restore` both go through it.
        """
        rows = batches = 0
        for batch in self.source.batches_for_day(day):
            self.agg.ingest(
                batch.day,
                batch.scopes,
                batch.tput,
                batch.rtt,
                batch.loss,
                batch.scope_rows,
            )
            rows += batch.n_rows
            batches += 1
        self.agg.close_day(day)
        return rows, batches

    def run_day(self, day: int) -> List[Alert]:
        """Ingest and close one day; returns the day's alert changes.

        The day counts in ``days_processed`` before the subscribers see
        its close, so the service publishes it with the day.
        """
        with obs.span("live.day", metric="live.day_ms", day=Day(day).iso()):
            rows, batches = self._ingest_day(day)
            obs.counter("live.batches").inc(batches)
            obs.counter("live.rows").inc(rows)
            crash_point(f"live.day.{Day(day).iso()}:closed")
            changes = self.engine.evaluate_day(self.agg, day)
            for alert in changes:
                obs.counter(
                    "live.alerts.raised"
                    if alert.resolved is None
                    else "live.alerts.resolved"
                ).inc()
        self.days_processed += 1
        for callback in self._subscribers:
            callback(day, changes)
        return changes

    def run(self, until: Optional[str] = None) -> int:
        """Tick from the clock's position to ``until`` (default: replay end).

        Returns the number of days processed this call.  Safe to call
        after :meth:`resume`: the clock restarts at the first day the
        last checkpoint had not yet committed.
        """
        last = self.source.end if until is None else Day.of(until).ordinal
        processed = 0
        while self.clock.ordinal <= last:
            day = self.clock.ordinal
            self.run_day(day)
            processed += 1
            self.clock.advance()
            if (
                self.days_processed % self.checkpoint_every == 0
                or self.clock.ordinal > last
            ):
                self.checkpoint()
        return processed

    # -- views ---------------------------------------------------------------
    def alerts_doc(self) -> Dict[str, object]:
        return build_alerts_doc(self.engine, self.agg)

    def window_snapshot(self) -> Dict[str, object]:
        day = self.agg.last_day
        return self.agg.snapshot(day)
