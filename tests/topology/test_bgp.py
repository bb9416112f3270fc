"""Tests for valley-free path enumeration and route selection."""

import numpy as np
import pytest

from repro.netbase import ASRegistry, ASRole, AutonomousSystem
from repro.topology import (
    ASGraph,
    Link,
    LinkKind,
    RouteSelector,
    StickyRouter,
    valley_free_paths,
)
from repro.util.errors import TopologyError


def make_graph():
    """A small hierarchy:

        T1 ---peer--- T2
        |  \\          |
        M1   U1       U2          (U = Ukrainian transit, M = M-Lab AS)
              \\      /  \\
               E1 ---    E2       (E = eyeball; E1 multihomed to U1+U2)
    """
    reg = ASRegistry()
    for asn, role in [
        (1, ASRole.TRANSIT), (2, ASRole.TRANSIT),
        (11, ASRole.REGIONAL), (12, ASRole.REGIONAL),
        (21, ASRole.EYEBALL), (22, ASRole.EYEBALL),
        (31, ASRole.MLAB),
    ]:
        reg.register(AutonomousSystem(asn, f"AS-{asn}", "UA" if role in (ASRole.REGIONAL, ASRole.EYEBALL) else "US", role))
    g = ASGraph(reg)

    def t(p, c, rtt=5.0):
        g.add(Link(a=p, b=c, kind=LinkKind.TRANSIT, base_rtt_ms=rtt, capacity_mbps=1000.0))

    t(1, 11)
    t(2, 12)
    t(11, 21)
    t(12, 21)
    t(12, 22)
    t(1, 31)
    g.add(Link(a=1, b=2, kind=LinkKind.PEERING, base_rtt_ms=6.0, capacity_mbps=1000.0))
    return g


class TestValleyFree:
    def test_simple_uphill_downhill(self):
        g = make_graph()
        paths = valley_free_paths(g, 21, 31)
        assert paths, "eyeball must reach the M-Lab AS"
        best = paths[0]
        assert best.asns[0] == 21 and best.asns[-1] == 31

    def test_best_path_prefers_fewer_hops(self):
        g = make_graph()
        paths = valley_free_paths(g, 21, 31)
        # 21 -> 11 -> 1 -> 31 (4 ASes) beats 21 -> 12 -> 2 ~ 1 -> 31 (5 ASes).
        assert paths[0].asns == (21, 11, 1, 31)

    def test_multiple_candidates_found(self):
        g = make_graph()
        paths = valley_free_paths(g, 21, 31)
        assert len(paths) >= 2
        assert (21, 12, 2, 1, 31) in [p.asns for p in paths]

    def test_no_valley_paths(self):
        # E2's traffic to E1 must not transit through E1's other provider
        # "for free": the only valid route climbs to 12 and descends to 21.
        g = make_graph()
        paths = valley_free_paths(g, 22, 21)
        assert all(p.asns == (22, 12, 21) for p in paths[:1])
        for p in paths:
            # no path may descend into 21 and climb back out
            assert p.asns.count(21) == 1

    def test_peer_crossed_at_most_once(self):
        g = make_graph()
        for p in valley_free_paths(g, 21, 31):
            peer_hops = sum(
                1
                for x, y in zip(p.asns, p.asns[1:])
                if g.link_between(x, y).kind is LinkKind.PEERING
            )
            assert peer_hops <= 1
            assert p.used_peer == (peer_hops == 1)

    def test_excluded_link_forces_detour(self):
        g = make_graph()
        direct = valley_free_paths(g, 21, 31)[0]
        assert direct.asns == (21, 11, 1, 31)
        detoured = valley_free_paths(g, 21, 31, excluded=frozenset({(11, 21)}))
        assert detoured
        assert detoured[0].asns == (21, 12, 2, 1, 31)

    def test_all_links_down_unreachable(self):
        g = make_graph()
        excluded = frozenset({(11, 21), (12, 21)})
        assert valley_free_paths(g, 21, 31, excluded=excluded) == []

    def test_src_equals_dst(self):
        g = make_graph()
        paths = valley_free_paths(g, 21, 21)
        assert len(paths) == 1 and paths[0].asns == (21,)

    def test_unknown_as_rejected(self):
        g = make_graph()
        with pytest.raises(TopologyError):
            valley_free_paths(g, 999, 31)

    def test_max_hops_respected(self):
        g = make_graph()
        paths = valley_free_paths(g, 21, 31, max_hops=3)
        assert all(p.n_hops <= 3 for p in paths)

    def test_rank_ordering(self):
        g = make_graph()
        paths = valley_free_paths(g, 21, 31)
        ranks = [p.rank() for p in paths]
        assert ranks == sorted(ranks)

    def test_path_links_roundtrip(self):
        g = make_graph()
        path = valley_free_paths(g, 21, 31)[0]
        links = path.links(g)
        assert len(links) == path.n_hops

    def test_str(self):
        g = make_graph()
        assert str(valley_free_paths(g, 21, 31)[0]) == "AS21 AS11 AS1 AS31"


class TestRouteSelector:
    def test_healthy_links_prefer_best_rank(self):
        g = make_graph()
        selector = RouteSelector(g, lambda link, day: 1.0, rank_decay=0.2)
        rng = np.random.default_rng(0)
        picks = [
            selector.select(21, 31, 100, frozenset(), rng).asns for _ in range(300)
        ]
        best_share = sum(p == (21, 11, 1, 31) for p in picks) / len(picks)
        assert best_share > 0.6

    def test_degraded_best_path_shifts_traffic(self):
        g = make_graph()

        def quality(link, day):
            return 0.1 if link.key == (1, 11) else 1.0

        selector = RouteSelector(g, quality, rank_decay=0.5)
        rng = np.random.default_rng(1)
        picks = [
            selector.select(21, 31, 100, frozenset(), rng).asns for _ in range(300)
        ]
        alt_share = sum(p != (21, 11, 1, 31) for p in picks) / len(picks)
        assert alt_share > 0.5

    def test_unreachable_returns_none(self):
        g = make_graph()
        selector = RouteSelector(g, lambda link, day: 1.0)
        rng = np.random.default_rng(2)
        excluded = frozenset({(11, 21), (12, 21)})
        assert selector.select(21, 31, 100, excluded, rng) is None

    def test_candidates_cached(self):
        g = make_graph()
        selector = RouteSelector(g, lambda link, day: 1.0)
        selector.candidates(21, 31, frozenset())
        selector.candidates(21, 31, frozenset())
        assert selector.cache_size() == 1
        selector.candidates(21, 31, frozenset({(11, 21)}))
        assert selector.cache_size() == 2

    def test_bad_quality_rejected(self):
        g = make_graph()
        selector = RouteSelector(g, lambda link, day: 1.5)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            selector.select(21, 31, 100, frozenset(), rng)

    def test_invalid_params(self):
        g = make_graph()
        with pytest.raises(ValueError):
            RouteSelector(g, lambda l, d: 1.0, rank_decay=0.0)
        with pytest.raises(ValueError):
            RouteSelector(g, lambda l, d: 1.0, max_candidates=0)

    def test_deterministic_with_seeded_rng(self):
        g = make_graph()
        selector = RouteSelector(g, lambda link, day: 1.0)
        a = [
            selector.select(21, 31, 1, frozenset(), np.random.default_rng(9)).asns
            for _ in range(5)
        ]
        b = [
            selector.select(21, 31, 1, frozenset(), np.random.default_rng(9)).asns
            for _ in range(5)
        ]
        assert a == b


class TestStickyRouter:
    def test_failover_error_raises_on_every_call(self):
        """A failover whose quality is invalid is not remembered."""
        g = make_graph()
        bad_day = 100
        selector = RouteSelector(g, lambda link, day: 1.5 if day == bad_day else 1.0)
        router = StickyRouter(selector, seed=3, epoch_days=1000)
        sticky = router.route(21, 31, bad_day)  # scored on its epoch start, not bad_day
        down = frozenset({sticky.links(g)[0].key})
        for _ in range(3):
            with pytest.raises(ValueError):
                router.route(21, 31, bad_day, down)
        assert router.route(21, 31, bad_day + 1, down) is not None
