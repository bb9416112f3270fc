"""``repro.obs.live`` — streaming observability: aggregate, detect, serve.

The batch pipeline answers *what happened* after the fact; this package
answers *what is happening* while tests stream in.  Four pieces, layered
so each is independently testable (see ``docs/OBSERVABILITY.md``):

* **mergeable aggregates** (:mod:`~repro.obs.live.window`) — per-(scope,
  metric) sliding-window state built on exact (Shewchuk-expansion)
  sums, so ``merge`` is associative and commutative *bit-for-bit* and
  any chunking of the same rows produces byte-identical snapshots;
* **online degradation detection** (:mod:`~repro.obs.live.detect`) — a
  deterministic change-point engine: sliding Welch's t against a
  prewar baseline (``repro.stats.welch`` on summary moments) plus
  volume rules for the outage signature, raising typed, stable-ID
  alerts with a raise/resolve lifecycle into a schema-validated
  ``alerts.json`` (``docs/alerts.schema.json``);
* **the ingest daemon** (:mod:`~repro.obs.live.daemon` +
  :mod:`~repro.obs.live.source`) — a simulated-clock loop replaying the
  synthetic NDT stream day by day, checkpointing its window state
  through :mod:`repro.storage` so ``repro chaos``-style kills resume
  byte-identically;
* **the health service** (:mod:`~repro.obs.live.service`) — a
  stdlib-only threaded HTTP API (``repro live serve``) with
  snapshot-isolated reads: every tick publishes immutable pre-rendered
  views, so thousands of concurrent readers never block the aggregator
  and never observe a half-updated window.

This package is the repo's one sanctioned **network** seam: the flow
lint (``unsanctioned-network``) flags socket/HTTP use anywhere else in
``src/``.
"""

from repro.obs.live.detect import (
    Alert,
    AlertEngine,
    DetectorConfig,
    MetricRule,
    VolumeRule,
    build_alerts_doc,
    validate_alerts_doc,
)
from repro.obs.live.daemon import LiveDaemon, SimulatedClock
from repro.obs.live.service import HealthService
from repro.obs.live.source import Batch, ReplaySource
from repro.obs.live.window import (
    MomentState,
    ScopeKey,
    SlidingWindowAggregator,
    WindowConfig,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "Batch",
    "DetectorConfig",
    "HealthService",
    "LiveDaemon",
    "MetricRule",
    "MomentState",
    "ReplaySource",
    "ScopeKey",
    "SimulatedClock",
    "SlidingWindowAggregator",
    "VolumeRule",
    "WindowConfig",
    "build_alerts_doc",
    "validate_alerts_doc",
]
