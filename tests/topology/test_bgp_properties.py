"""Property-based tests: valley-free validity on random topologies."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.netbase import ASRegistry, ASRole, AutonomousSystem
from repro.topology import (
    ASGraph,
    Link,
    LinkKind,
    RouteSelector,
    StickyRouter,
    valley_free_paths,
)
from repro.topology.bgp import _MAX_HOPS, _MAX_PATHS, _RAW_CAP, _ranked_paths, _stable_rng


@st.composite
def random_graphs(draw, dense=False):
    """A random DAG-ish provider hierarchy plus random peerings.

    ``dense`` links most AS pairs and routes between the bottom ASes, so
    that many pairs have more valley-free paths than the search's raw cap.
    """
    n = draw(st.integers(8, 12) if dense else st.integers(4, 12))
    registry = ASRegistry()
    for asn in range(1, n + 1):
        registry.register(
            AutonomousSystem(asn, f"AS-{asn}", "US", ASRole.TRANSIT)
        )
    graph = ASGraph(registry)

    def link(a, b):
        kind = LinkKind.PEERING if rng.random() < 0.25 else LinkKind.TRANSIT
        graph.add(
            Link(a=a, b=b, kind=kind, base_rtt_ms=1.0, capacity_mbps=100.0)
        )

    # Provider edges only point from lower ASN (higher tier) to higher ASN,
    # guaranteeing no customer-provider cycles.
    if dense:
        p_edge = draw(st.floats(0.6, 1.0))
        rng = np.random.default_rng(draw(st.integers(0, 10_000)))
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                if rng.random() < p_edge:
                    link(a, b)
    else:
        n_edges = draw(st.integers(n - 1, 3 * n))
        rng = np.random.default_rng(draw(st.integers(0, 10_000)))
        added = set()
        for _ in range(n_edges):
            a = int(rng.integers(1, n))
            b = int(rng.integers(a + 1, n + 1))
            if (a, b) in added or a == b:
                continue
            added.add((a, b))
            link(a, b)
    low = n - 3 if dense else 1
    src = draw(st.integers(low, n))
    dst = draw(st.integers(low, n))
    return graph, src, dst


def _is_valley_free(graph: ASGraph, asns) -> bool:
    """Check up* peer? down* by classifying each hop."""
    phase = 0  # 0 climbing, 1 after peer, 2 descending
    for x, y in zip(asns, asns[1:]):
        link = graph.link_between(x, y)
        if link is None:
            return False
        if link.kind is LinkKind.PEERING:
            step = "peer"
        elif link.a == y:  # y is x's provider -> climbing
            step = "up"
        else:
            step = "down"
        if step == "up":
            if phase != 0:
                return False
        elif step == "peer":
            if phase != 0:
                return False
            phase = 1
        else:
            phase = 2
    return True


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_all_paths_valley_free_and_loop_free(case):
    graph, src, dst = case
    paths = valley_free_paths(graph, src, dst)
    for p in paths:
        assert p.asns[0] == src and p.asns[-1] == dst
        assert len(set(p.asns)) == len(p.asns)  # loop-free
        assert _is_valley_free(graph, p.asns), p.asns


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_flags_match_path_structure(case):
    graph, src, dst = case
    for p in valley_free_paths(graph, src, dst):
        used_up = any(
            graph.link_between(x, y).kind is LinkKind.TRANSIT
            and graph.link_between(x, y).a == y
            for x, y in zip(p.asns, p.asns[1:])
        )
        used_peer = any(
            graph.link_between(x, y).kind is LinkKind.PEERING
            for x, y in zip(p.asns, p.asns[1:])
        )
        assert p.used_up == used_up
        assert p.used_peer == used_peer


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_excluding_all_best_links_never_returns_excluded(case):
    graph, src, dst = case
    paths = valley_free_paths(graph, src, dst)
    if not paths:
        return
    excluded = frozenset(l.key for l in paths[0].links(graph))
    for p in valley_free_paths(graph, src, dst, excluded=excluded):
        for link in p.links(graph):
            assert link.key not in excluded


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_max_hops_monotone(case):
    graph, src, dst = case
    short = valley_free_paths(graph, src, dst, max_hops=3)
    longer = valley_free_paths(graph, src, dst, max_hops=6, max_paths=1000)
    assert {p.asns for p in short} <= {p.asns for p in longer}


# -- the route selector's and sticky router's memoization ---------------------


def _direct_candidates(graph, src, dst, excluded, max_candidates=8):
    """Candidates the unmemoized way: an excluded search, then the tie-break sort."""
    paths = valley_free_paths(graph, src, dst, excluded)
    paths.sort(
        key=lambda p: (
            int(p.used_up),
            int(p.used_peer),
            p.n_hops,
            _stable_rng(src, dst, *p.asns).random(),
        )
    )
    return paths[:max_candidates]


def _link_keys(graph):
    return sorted(link.key for link in graph.links())


def _exclusion_sets(data, graph, n_sets):
    keys = _link_keys(graph)
    subsets = st.lists(st.sampled_from(keys), max_size=5) if keys else st.just([])
    return [frozenset(data.draw(subsets)) for _ in range(n_sets)]


def _pure_quality(link, day):
    """A quality in (0, 1] that depends on (link, day) alone."""
    return 0.1 + 0.9 * ((link.a * 31 + link.b * 17 + day * 7) % 10 + 1) / 10


@pytest.mark.parametrize("dense", [False, True])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_derived_candidates_match_excluded_search(dense, data):
    graph, src, dst = data.draw(random_graphs(dense=dense))
    selector = RouteSelector(graph, _pure_quality)
    # The unrestricted list first, as the sticky router asks for it.
    assert selector.candidates(src, dst, frozenset()) == _direct_candidates(
        graph, src, dst, frozenset()
    )
    for excluded in _exclusion_sets(data, graph, 4):
        assert selector.candidates(src, dst, excluded) == _direct_candidates(
            graph, src, dst, excluded
        )


def _complete_dag(n):
    registry = ASRegistry()
    for asn in range(1, n + 1):
        registry.register(AutonomousSystem(asn, f"AS-{asn}", "US", ASRole.TRANSIT))
    graph = ASGraph(registry)
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            graph.add(
                Link(a=a, b=b, kind=LinkKind.TRANSIT, base_rtt_ms=1.0, capacity_mbps=100.0)
            )
    return graph


def test_pair_at_raw_cap_falls_back_to_excluded_search():
    graph = _complete_dag(10)
    src, dst = 10, 9
    capped = _ranked_paths(graph, src, dst, frozenset(), _MAX_HOPS, _RAW_CAP)
    assert len(capped) >= _RAW_CAP
    selector = RouteSelector(graph, _pure_quality)
    selector.candidates(src, dst, frozenset())
    differs = 0
    for key in _link_keys(graph):
        excluded = frozenset({key})
        # Filtering the capped unrestricted list would be wrong here ...
        kept = [p for p in capped if all(l.key != key for l in p.links(graph))]
        differs += kept[:_MAX_PATHS] != valley_free_paths(graph, src, dst, excluded)
        # ... and the selector searches again instead.
        assert selector.candidates(src, dst, excluded) == _direct_candidates(
            graph, src, dst, excluded
        )
    assert differs


@pytest.mark.parametrize("dense", [False, True])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_memoized_router_matches_fresh_router(dense, data):
    graph, src, dst = data.draw(random_graphs(dense=dense))
    asns = st.integers(1, len(graph.registry))
    pairs = [(src, dst), (dst, src), (src, data.draw(asns)), (data.draw(asns), dst)]
    # One-link outages on each pair's top paths, so that one (pair, day)
    # meets several different failovers, or none.
    cuts = {
        frozenset({link.key})
        for s, d in pairs
        for path in valley_free_paths(graph, s, d)[:2]
        for link in path.links(graph)
    }
    down_sets = [frozenset()] + sorted(cuts, key=sorted) + _exclusion_sets(data, graph, 2)
    keys = data.draw(
        st.lists(st.tuples(st.sampled_from(pairs), st.integers(0, 12)), min_size=1, max_size=3)
    )
    calls = data.draw(st.permutations([(k, down) for k in keys for down in down_sets]))
    memo = StickyRouter(RouteSelector(graph, _pure_quality), seed=5, epoch_days=4)
    expected = {}
    for ((src, dst), day), down in calls + calls[::-1]:
        if (src, dst, day, down) not in expected:
            fresh = StickyRouter(RouteSelector(graph, _pure_quality), seed=5, epoch_days=4)
            expected[(src, dst, day, down)] = fresh.route(src, dst, day, down)
        assert memo.route(src, dst, day, down) == expected[(src, dst, day, down)]


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_invalid_quality_raises_on_every_call(case):
    graph, src, dst = case
    assume(src != dst and valley_free_paths(graph, src, dst))
    selector = RouteSelector(graph, lambda link, day: 1.5)
    router = StickyRouter(selector, seed=5)
    for _ in range(3):
        with pytest.raises(ValueError):
            router.route(src, dst, 10)
        with pytest.raises(ValueError):
            selector.select(src, dst, 10, frozenset(), np.random.default_rng(0))
