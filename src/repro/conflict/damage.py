"""Stochastic infrastructure damage driven by the intensity model.

Two distinct processes, matching the paper's decomposition:

* :class:`EdgeDamageModel` — damage at the network *edge* (cell towers,
  consumer-facing plant).  The paper hypothesizes this is where most of the
  user-perceived degradation comes from; the model therefore maps city
  intensity directly to a per-(city, day) severity that the NDT metric model
  consumes.

* :class:`LinkDamageProcess` — outages on inter-AS *links*, which do not
  degrade metrics directly but force BGP re-selection (new paths, border-AS
  shifts).  A two-state Markov chain per link: wartime intensity raises the
  daily failure hazard, repairs bring links back (the paper cites engineers
  restoring service under fire).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.conflict.intensity import IntensityModel
from repro.util.timeutil import Day, DayGrid, DayLike
from repro.util.validation import check_fraction, check_nonnegative

__all__ = ["EdgeDamageModel", "LinkDamageProcess", "LinkOutageSchedule"]


class EdgeDamageModel:
    """Per-(city, day) severity of edge-infrastructure damage, in [0, 1].

    Severity is intensity scaled by ``edge_scale`` with small deterministic
    day-to-day wobble (seeded), modelling partial repairs and new hits.  The
    paper's Figure 2 shows wartime metrics fluctuating more day-to-day —
    the wobble term reproduces that.
    """

    def __init__(
        self,
        intensity: IntensityModel,
        rng: np.random.Generator,
        edge_scale: float = 0.9,
        wobble: float = 0.15,
    ):
        check_fraction("edge_scale", edge_scale)
        check_nonnegative("wobble", wobble)
        self._intensity = intensity
        self._edge_scale = edge_scale
        self._wobble = wobble
        self._rng = rng
        # Intensity is a function of (city, day), so a severity is too once
        # its wobble is drawn: resolve each (city, day ordinal) once.
        self._severities: Dict[Tuple[str, int], float] = {}

    def severity(self, city: str, day: DayLike) -> float:
        """Damage severity for a city-day; 0 before the invasion.

        The first call for a city-day with nonzero intensity draws its
        wobble; later calls return the stored value and draw nothing.
        """
        d = Day.of(day)
        key = (city, d.ordinal)
        severity = self._severities.get(key)
        if severity is None:
            base = self._intensity.city_intensity(city, d) * self._edge_scale
            if base == 0.0:
                severity = 0.0
            else:
                wobble = float(self._rng.uniform(-self._wobble, self._wobble))
                severity = float(np.clip(base * (1.0 + wobble), 0.0, 1.0))
            self._severities[key] = severity
        return severity


@dataclass(frozen=True)
class LinkOutageSchedule:
    """Immutable per-link up/down calendar produced by the damage process."""

    grid: DayGrid
    _states: Dict[Hashable, np.ndarray]  # link id -> bool array over the grid

    def is_up(self, link_id: Hashable, day: DayLike) -> bool:
        """Whether the link is up on the given day (unknown links are up)."""
        states = self._states.get(link_id)
        if states is None:
            return True
        return bool(states[self.grid.index_of(day)])

    def down_links(self, day: DayLike) -> FrozenSet[Hashable]:
        """The links down on ``day``; empty for a day outside the grid."""
        d = Day.of(day)
        if not self.grid.start <= d <= self.grid.end:
            return frozenset()
        return frozenset(link for link in self._states if not self.is_up(link, d))

    def downtime_days(self, link_id: Hashable) -> int:
        states = self._states.get(link_id)
        return 0 if states is None else int((~states).sum())

    def links(self) -> Iterable[Hashable]:
        return self._states.keys()


class LinkDamageProcess:
    """Two-state Markov outage process for inter-AS links.

    Each day a link that is up fails with probability
    ``base_hazard + war_hazard * intensity(link zone, day)``, and a link
    that is down is repaired with probability ``repair_rate``.
    """

    def __init__(
        self,
        intensity: IntensityModel,
        base_hazard: float = 0.002,
        war_hazard: float = 0.22,
        repair_rate: float = 0.50,
    ):
        check_fraction("base_hazard", base_hazard)
        check_fraction("war_hazard", war_hazard)
        check_fraction("repair_rate", repair_rate)
        self._intensity = intensity
        self._base_hazard = base_hazard
        self._war_hazard = war_hazard
        self._repair_rate = repair_rate

    def simulate(
        self,
        links: Dict[Hashable, Optional[str]],
        grid: DayGrid,
        rng: np.random.Generator,
    ) -> LinkOutageSchedule:
        """Simulate daily link states over ``grid``.

        Parameters
        ----------
        links:
            ``{link_id: city_or_None}``.  A link tagged with a city feels
            that city's intensity; an untagged link (international segment)
            only feels the base hazard.
        """
        states: Dict[Hashable, np.ndarray] = {}
        n = len(grid)
        # Canonical link order: each link's random draws must not depend on
        # dict insertion order (a serialized-and-restored topology must
        # produce the identical outage schedule).
        for link_id, city in sorted(links.items(), key=lambda kv: repr(kv[0])):
            up = np.empty(n, dtype=bool)
            current = True
            for i, day in enumerate(grid.days()):
                if current:
                    hazard = self._base_hazard
                    if city is not None:
                        hazard += self._war_hazard * self._intensity.city_intensity(
                            city, day
                        )
                    if rng.random() < hazard:
                        current = False
                else:
                    if rng.random() < self._repair_rate:
                        current = True
                up[i] = current
            states[link_id] = up
        return LinkOutageSchedule(grid=grid, _states=states)
