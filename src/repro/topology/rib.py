"""Control-plane snapshots: per-day routing tables and their churn.

The paper observes routing only through the data plane (traceroutes).  A
BGP collector (RIPE RIS / RouteViews) would instead see *route updates*;
this module provides that complementary view over the simulation: for each
day, the route in effect for every (eyeball AS, M-Lab site) pair — exactly
what the sticky router resolves — and day-over-day diffs, i.e. the update
stream a collector would log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.topology.bgp import AsPath, StickyRouter
from repro.util.timeutil import Day, DayGrid

__all__ = ["RibSnapshot", "RouteChurnSeries", "compute_churn"]

PairKey = Tuple[int, int]


@dataclass(frozen=True)
class RibSnapshot:
    """All selected routes on one day."""

    day: Day
    routes: Dict[PairKey, Optional[Tuple[int, ...]]]

    def route_for(self, src: int, dst: int) -> Optional[Tuple[int, ...]]:
        return self.routes.get((src, dst))

    def n_reachable(self) -> int:
        return sum(1 for r in self.routes.values() if r is not None)


@dataclass(frozen=True)
class RouteChurnSeries:
    """Daily route-change counts over a grid."""

    grid: DayGrid
    changes: List[int]  # index 0 compares day 1 to day 0
    withdrawals: List[int]  # pairs that lost all routes that day

    def total_changes(self, start: Day, end: Day) -> int:
        total = 0
        for i, day in enumerate(self.grid.days()[1:]):
            if start <= day <= end:
                total += self.changes[i]
        return total


def compute_churn(
    router: StickyRouter,
    pairs: Sequence[PairKey],
    grid: DayGrid,
    down_links_by_day: Optional[Dict[int, FrozenSet]] = None,
) -> RouteChurnSeries:
    """Replay route selection over a day grid and count changes.

    ``down_links_by_day`` maps day ordinals to the outage sets the router
    should honour (empty when omitted) — pass the generator's wartime
    outage schedule to see war-driven churn.
    """
    if not pairs:
        raise ValueError("need at least one (src, dst) pair")
    down_links_by_day = down_links_by_day or {}
    previous: Dict[PairKey, Optional[Tuple[int, ...]]] = {}
    changes: List[int] = []
    withdrawals: List[int] = []
    for i, day in enumerate(grid.days()):
        down = down_links_by_day.get(day.ordinal, frozenset())
        current: Dict[PairKey, Optional[Tuple[int, ...]]] = {}
        for src, dst in pairs:
            path: Optional[AsPath] = router.route(src, dst, day.ordinal, down)
            current[(src, dst)] = path.asns if path is not None else None
        if i > 0:
            day_changes = 0
            day_withdrawals = 0
            for key in current:
                if current[key] != previous[key]:
                    day_changes += 1
                    if current[key] is None:
                        day_withdrawals += 1
            changes.append(day_changes)
            withdrawals.append(day_withdrawals)
        previous = current
    return RouteChurnSeries(grid=grid, changes=changes, withdrawals=withdrawals)
