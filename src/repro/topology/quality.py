"""Per-link, per-day quality in (0, 1] combining war damage and schedules.

Quality is the single scalar routing and the NDT metric model share:
``1.0`` is a healthy link; lower values raise loss/RTT on traffic crossing
the link *and* make the route selector steer away from it.  Two sources
reduce quality:

* city-tagged links feel that city's edge-damage severity;
* explicit :class:`DegradationSchedule` entries model specific upstream
  problems — the Figure-6 case study (foreign AS 6663 degrading, pushing
  AS 199995's inbound traffic onto Hurricane Electric) is configured this
  way by the topology builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.conflict.damage import EdgeDamageModel
from repro.topology.asgraph import Link
from repro.util.timeutil import Day
from repro.util.validation import check_fraction

__all__ = ["DegradationSchedule", "LinkQualityModel"]

LinkKey = Tuple[int, int]

_QUALITY_FLOOR = 0.05


@dataclass(frozen=True)
class DegradationSchedule:
    """A planned quality ramp for one link.

    Quality falls linearly from 1.0 at ``start`` to ``floor`` at ``end`` and
    stays at ``floor`` afterwards.

    ``affects_performance`` distinguishes two failure modes: a *congested or
    lossy* carrier (True — traffic crossing it suffers extra RTT/loss, the
    Figure-6 AS6663 case) versus *capacity withdrawal / depeering* (False —
    routes move away but surviving traffic is unharmed, the Figure-5 Cogent
    decline).
    """

    link_key: LinkKey
    start: Day
    end: Day
    floor: float
    affects_performance: bool = True

    def __post_init__(self) -> None:
        check_fraction("floor", self.floor)
        if self.floor < _QUALITY_FLOOR:
            raise ValueError(f"floor must be >= {_QUALITY_FLOOR}, got {self.floor}")
        if self.end < self.start:
            raise ValueError("schedule end precedes start")

    def quality_on(self, day_ordinal: int) -> float:
        if day_ordinal < self.start.ordinal:
            return 1.0
        if day_ordinal >= self.end.ordinal:
            return self.floor
        span = self.end.ordinal - self.start.ordinal
        progress = (day_ordinal - self.start.ordinal) / span
        return 1.0 - (1.0 - self.floor) * progress


class LinkQualityModel:
    """Combines edge damage and degradation schedules into link quality."""

    def __init__(
        self,
        edge_damage: Optional[EdgeDamageModel],
        schedules: Sequence[DegradationSchedule] = (),
        city_weight: float = 0.6,
    ):
        check_fraction("city_weight", city_weight)
        self._edge_damage = edge_damage
        self._city_weight = city_weight
        self._schedules: Dict[LinkKey, DegradationSchedule] = {}
        for sched in schedules:
            if sched.link_key in self._schedules:
                raise ValueError(f"duplicate schedule for link {sched.link_key}")
            self._schedules[sched.link_key] = sched
        # A quality reads only the link's key and city and the day.
        self._qualities: Dict[Tuple[LinkKey, Optional[str], int], float] = {}

    def quality(self, link: Link, day_ordinal: int) -> float:
        """Quality of ``link`` on the given day, clamped to [floor, 1]."""
        link_key = link.key
        key = (link_key, link.city, day_ordinal)
        quality = self._qualities.get(key)
        if quality is None:
            quality = 1.0
            sched = self._schedules.get(link_key)
            if sched is not None:
                quality = sched.quality_on(day_ordinal)
            if link.city is not None and self._edge_damage is not None:
                severity = self._edge_damage.severity(link.city, Day(day_ordinal))
                quality *= 1.0 - self._city_weight * severity
            quality = self._qualities[key] = max(_QUALITY_FLOOR, quality)
        return quality

    def performance_quality(self, link: Link, day_ordinal: int) -> float:
        """Quality as felt by *traffic* (ignores routing-only schedules).

        Routing-only degradations (``affects_performance=False``) steer
        traffic away via :meth:`quality` but add no RTT/loss to tests that
        still cross the link.
        """
        sched = self._schedules.get(link.key)
        if sched is not None and not sched.affects_performance:
            return 1.0
        return self.quality(link, day_ordinal)
