"""Tests for route churn: the day-over-day diff of a route log."""

import numpy as np
import pytest

from repro.topology import RouteSelector, StickyRouter, build_default_topology
from repro.topology.rib import compute_churn
from repro.util import Day, DayGrid


@pytest.fixture(scope="module")
def router():
    topo = build_default_topology()
    selector = RouteSelector(topo.graph, lambda link, day: 1.0)
    return StickyRouter(selector, seed=5, epoch_days=14), topo


def route_ids(sticky, pairs, grid, down_by_day=None):
    """The router's routes as a days x pairs id array (-1: no route)."""
    down_by_day = down_by_day or {}
    ids = {}
    rows = []
    for day in grid.days():
        down = down_by_day.get(day.ordinal, frozenset())
        row = []
        for src, dst in pairs:
            path = sticky.route(src, dst, day.ordinal, down)
            row.append(-1 if path is None else ids.setdefault(path.asns, len(ids)))
        rows.append(row)
    return np.array(rows)


class TestComputeChurn:
    def test_healthy_network_low_churn(self, router):
        sticky, topo = router
        pairs = [(15895, 64496), (21497, 64500), (6876, 64500)]
        grid = DayGrid("2022-01-01", "2022-02-23")
        changes, withdrawals = compute_churn(route_ids(sticky, pairs, grid))
        assert len(changes) == len(grid) - 1
        # Frozen Gumbel choices: only occasional epoch-jitter flips.
        assert sum(changes) <= len(pairs) * 6
        assert sum(withdrawals) == 0

    def test_outages_force_churn(self, router):
        sticky, topo = router
        pairs = [(15895, 64496)]
        grid = DayGrid("2022-03-01", "2022-03-10")
        # The sticky route's access link flaps every other day.
        path = sticky.route(15895, 64496, Day.of("2022-03-01").ordinal)
        first_link = path.links(topo.graph)[0].key
        down_by_day = {
            Day.of(f"2022-03-{d:02d}").ordinal: frozenset({first_link})
            for d in range(2, 10, 2)
        }
        changes, _ = compute_churn(route_ids(sticky, pairs, grid, down_by_day))
        assert sum(changes) >= 4  # failover out and back repeatedly

    def test_counts_changes_and_withdrawals(self):
        routes = np.array([[0, 1, 2], [0, 3, 2], [0, -1, -1], [0, -1, 2]])
        changes, withdrawals = compute_churn(routes)
        assert changes.tolist() == [1, 2, 1]
        assert withdrawals.tolist() == [0, 2, 0]

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            compute_churn(np.empty((5, 0), dtype=np.int64))
