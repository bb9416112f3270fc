"""Tests for router alias resolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase import IPv4Address
from repro.tables import Table
from repro.traceroute.alias import AliasMap, resolve_aliases, router_level_paths
from repro.util.errors import AnalysisError, DataError


def trace_table(rows):
    """rows: list of (path, as_path) string pairs."""
    return Table.from_dict(
        {
            "test_id": list(range(1, len(rows) + 1)),
            "path": [r[0] for r in rows],
            "as_path": [r[1] for r in rows],
        }
    )


class TestResolve:
    def test_same_subnet_same_context_merged(self):
        # Two middle-hop interfaces 10.1.0.5 and 10.1.0.9 share a /27 and the
        # same (src AS, dst AS) context -> aliases of one router.
        rows = [
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.1.0.9|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.1.0.9|100.64.0.2", "64496|3326|15895"),
        ]
        amap = resolve_aliases(trace_table(rows))
        a = int.from_bytes(bytes([10, 1, 0, 5]), "big")
        b = int.from_bytes(bytes([10, 1, 0, 9]), "big")
        assert amap.router_of(a) == amap.router_of(b)
        assert amap.n_merged_interfaces() >= 1

    def test_different_subnets_not_merged(self):
        rows = [
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.1.64.9|100.64.0.2", "64496|3326|15895"),
        ] * 2
        amap = resolve_aliases(trace_table(rows))
        a = int.from_bytes(bytes([10, 1, 0, 5]), "big")
        b = int.from_bytes(bytes([10, 1, 64, 9]), "big")
        assert amap.router_of(a) != amap.router_of(b)

    def test_same_subnet_different_context_not_merged(self):
        rows = [
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),
            ("10.8.0.1|10.1.0.9|100.64.9.2", "64500|6849|21497"),
            ("10.8.0.1|10.1.0.9|100.64.9.2", "64500|6849|21497"),
        ]
        amap = resolve_aliases(trace_table(rows))
        a = int.from_bytes(bytes([10, 1, 0, 5]), "big")
        b = int.from_bytes(bytes([10, 1, 0, 9]), "big")
        assert amap.router_of(a) != amap.router_of(b)

    def test_rare_interfaces_excluded(self):
        rows = [
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),  # seen once
            ("10.9.0.1|10.1.0.9|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.1.0.9|100.64.0.2", "64496|3326|15895"),
        ]
        amap = resolve_aliases(trace_table(rows), min_sightings=2)
        a = int.from_bytes(bytes([10, 1, 0, 5]), "big")
        # The once-seen interface stays its own router.
        assert amap.router_of(a) == a

    def test_aliases_of(self):
        rows = [
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.1.0.9|100.64.0.2", "64496|3326|15895"),
        ] * 2
        amap = resolve_aliases(trace_table(rows))
        a = int.from_bytes(bytes([10, 1, 0, 5]), "big")
        assert len(amap.aliases_of(a)) == 2

    def test_validation(self):
        t = trace_table([("10.0.0.1|10.0.0.2", "1|2")])
        with pytest.raises(AnalysisError):
            resolve_aliases(t, subnet_bits=31)

    def test_malformed_hop_raises_data_error(self):
        t = trace_table([("10.9.0.1|10.1.0.x|100.64.0.2", "64496|3326|15895")])
        with pytest.raises(DataError):
            resolve_aliases(t)


class TestRouterLevelPaths:
    def test_rewrites_aliases_to_canonical(self):
        rows = [
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.1.0.9|100.64.0.2", "64496|3326|15895"),
        ] * 3
        out = router_level_paths(trace_table(rows))
        assert out["path"].nunique() == 1  # the two IP paths were one router path

    def test_non_aliases_stay_distinct(self):
        rows = [
            ("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895"),
            ("10.9.0.1|10.2.0.5|100.64.0.2", "64496|6849|15895"),
        ] * 2
        out = router_level_paths(trace_table(rows))
        assert out["path"].nunique() == 2

    def test_other_columns_preserved(self):
        rows = [("10.9.0.1|10.1.0.5|100.64.0.2", "64496|3326|15895")] * 2
        t = trace_table(rows)
        out = router_level_paths(t)
        assert out["test_id"].to_list() == t["test_id"].to_list()
        assert out.n_rows == t.n_rows


class TestOnGeneratedData:
    def test_router_paths_never_exceed_ip_paths(self, small_dataset):
        from repro.analysis.paths import path_count_table

        traces = small_dataset.traces
        ip_table = {r["period"]: r for r in path_count_table(traces).iter_rows()}
        router = router_level_paths(traces)
        router_table = {r["period"]: r for r in path_count_table(router).iter_rows()}
        for period in ip_table:
            assert (
                router_table[period]["paths_per_conn"]
                <= ip_table[period]["paths_per_conn"] + 1e-9
            )

    def test_wartime_growth_survives_alias_resolution(self, medium_dataset):
        # The paper's hope: router-level counting refines, not destroys,
        # the diversity signal.
        from repro.analysis.paths import path_count_table

        router = router_level_paths(medium_dataset.traces)
        rows = {r["period"]: r for r in path_count_table(router).iter_rows()}
        assert rows["wartime"]["paths_per_conn"] > rows["prewar"]["paths_per_conn"]


def per_row_canon(traces, subnet_bits=27, min_sightings=2):
    """``AliasMap._canon`` items from a walk over every row, hop by hop."""
    sightings, contexts = {}, {}
    for path_text, as_text in zip(traces["path"].values, traces["as_path"].values):
        hops = [IPv4Address.parse(p).value for p in path_text.split("|")]
        asns = [int(a) for a in as_text.split("|")]
        if len(hops) < 3 or len(asns) < 2:
            continue
        for hop in hops[1:-1]:
            sightings[hop] = sightings.get(hop, 0) + 1
            contexts.setdefault(hop, set()).add((asns[0], asns[-1]))
    mask = ((1 << subnet_bits) - 1) << (32 - subnet_bits)
    by_subnet = {}
    for hop, count in sightings.items():
        if count >= min_sightings:
            by_subnet.setdefault(hop & mask, []).append(hop)
    canon = {}
    for members in by_subnet.values():
        members.sort()
        groups = []
        for hop in members:
            for group in groups:
                if contexts[hop] & contexts[group[0]]:
                    group.append(hop)
                    break
            else:
                groups.append([hop])
        for group in groups:
            for hop in group:
                canon[hop] = min(group)
    return list(canon.items())


def per_row_router_paths(traces, canon):
    """``router_level_paths`` by rewriting every row's path text."""
    lookup = dict(canon)
    out = []
    for text in traces["path"].values:
        routers = []
        for part in text.split("|"):
            value = IPv4Address.parse(part).value
            router = lookup.get(value, value)
            if not routers or routers[-1] != router:
                routers.append(router)
        out.append("|".join(IPv4Address(r).dotted() for r in routers))
    return traces.with_column("path", out)


#: Hops drawn from four /27 blocks, so candidate aliases are common.
hop_texts = st.integers(0, 127).map(lambda k: f"10.1.0.{k}")
as_texts = st.sampled_from(["64496|3326|15895", "64500|6849|21497", "64496|15895", "7"])
templates = st.lists(
    st.tuples(st.lists(hop_texts, min_size=2, max_size=6).map("|".join), as_texts),
    min_size=1,
    max_size=8,
)


class TestPerDistinctWalk:
    """The per-distinct-path walk equals the per-row algorithm exactly."""

    @settings(max_examples=80, deadline=None)
    @given(
        templates=templates,
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=40),
        min_sightings=st.integers(1, 3),
    )
    def test_matches_per_row_algorithm(self, templates, picks, min_sightings):
        # repeated paths, in an order that interleaves them
        traces = trace_table([templates[i % len(templates)] for i in picks])
        amap = resolve_aliases(traces, min_sightings=min_sightings)
        expected = per_row_canon(traces, min_sightings=min_sightings)
        assert list(amap._canon.items()) == expected

        got = router_level_paths(traces, amap)["path"]
        want = per_row_router_paths(traces, expected)["path"]
        assert got.codes.tolist() == want.codes.tolist()
        assert list(got.pool) == list(want.pool)
