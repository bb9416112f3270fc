"""The vectorized engine against its row-loop reference (``tables/_legacy``).

The contract: ``GroupBy.aggregate``, ``join`` and ascending ``sort_by``
produce tables *byte-identical* to the legacy Python-loop implementations —
same column names, same dtypes, same float bits — across str/int/float
columns, None/NaN, multi-key groupings and degenerate inputs.  Plus
regression tests for the three behavioral fixes this engine shipped with:
stable descending sort ties, NaN counted once by ``nunique``, and NaN-safe
``isin``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables import kernels
from repro.tables._legacy import (
    legacy_aggregate,
    legacy_group_index,
    legacy_join,
    legacy_sort_by,
)
from repro.tables.column import Column
from repro.tables.join import join
from repro.tables.schema import DType
from repro.tables.table import Table

# None and "" both present: the legacy engine canonicalized None to "" when
# ordering groups, so this alphabet exercises the nastiest tie semantics.
STR_KEYS = st.sampled_from(["a", "b", "", None, "zz"])
FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False) | st.just(
    float("nan")
)

ALL_AGGS = (
    "count",
    "sum",
    "mean",
    "median",
    "std",
    "min",
    "max",
    "nunique",
    "first",
    "p25",
    "p75",
    "p90",
    "p95",
    "p99",
)


@st.composite
def keyed_tables(draw, min_rows=1, max_rows=50):
    n = draw(st.integers(min_rows, max_rows))

    def col_of(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    return Table.from_dict(
        {
            "k": col_of(STR_KEYS),
            "k2": col_of(st.integers(0, 3)),
            "v": col_of(FLOATS),
            "s": col_of(STR_KEYS),
        },
        dtypes={
            "k": DType.STR,
            "k2": DType.INT,
            "v": DType.FLOAT,
            "s": DType.STR,
        },
    )


def assert_tables_byte_identical(actual: Table, expected: Table):
    assert actual.column_names == expected.column_names
    assert actual.n_rows == expected.n_rows
    for name in expected.column_names:
        a, e = actual.column(name), expected.column(name)
        assert a.dtype is e.dtype, f"column {name}: {a.dtype} != {e.dtype}"
        if e.dtype is DType.STR:
            assert a.to_list() == e.to_list(), f"column {name} differs"
        else:
            av = np.ascontiguousarray(a.values)
            ev = np.ascontiguousarray(e.values)
            assert av.dtype == ev.dtype, f"column {name} dtype"
            assert av.tobytes() == ev.tobytes(), f"column {name} bits differ"


class TestAggregateMatchesLegacy:
    @given(keyed_tables())
    @settings(max_examples=60, deadline=None)
    def test_single_str_key_all_aggregators(self, t):
        spec = {f"o_{agg}": ("v", agg) for agg in ALL_AGGS}
        with np.errstate(all="ignore"):
            assert_tables_byte_identical(
                t.group_by("k").aggregate(spec), legacy_aggregate(t, ["k"], spec)
            )

    @given(keyed_tables())
    @settings(max_examples=60, deadline=None)
    def test_multi_key_str_and_int(self, t):
        spec = {
            "n": ("v", "count"),
            "s_": ("v", "sum"),
            "m": ("v", "mean"),
            "u": ("s", "nunique"),
            "f": ("s", "first"),
        }
        with np.errstate(all="ignore"):
            assert_tables_byte_identical(
                t.group_by(["k", "k2"]).aggregate(spec),
                legacy_aggregate(t, ["k", "k2"], spec),
            )

    @given(keyed_tables())
    @settings(max_examples=40, deadline=None)
    def test_str_valued_first_keeps_dtype(self, t):
        out = t.group_by("k2").aggregate({"f": ("s", "first")})
        legacy = legacy_aggregate(t, ["k2"], {"f": ("s", "first")})
        assert out.column("f").dtype is DType.STR
        assert_tables_byte_identical(out, legacy)

    def test_all_nan_group(self):
        t = Table.from_dict(
            {"k": ["a", "a", "b"], "v": [float("nan")] * 3},
            dtypes={"k": DType.STR, "v": DType.FLOAT},
        )
        spec = {f"o_{agg}": ("v", agg) for agg in ALL_AGGS}
        with np.errstate(all="ignore"):
            assert_tables_byte_identical(
                t.group_by("k").aggregate(spec), legacy_aggregate(t, ["k"], spec)
            )

    def test_custom_callable_slow_path(self):
        t = Table.from_dict(
            {"k": ["a", "b", "a", "b"], "v": [1.0, 2.0, 3.0, 4.0]},
            dtypes={"k": DType.STR, "v": DType.FLOAT},
        )
        out = t.group_by("k").aggregate({"span": ("v", lambda v: v.max() - v.min())})
        assert out.column("span").to_list() == [2.0, 2.0]

    @given(keyed_tables())
    @settings(max_examples=30, deadline=None)
    def test_factorize_matches_legacy_group_index(self, t):
        fact = kernels.factorize([t.column("k"), t.column("k2")])
        legacy = legacy_group_index(t, ["k", "k2"])
        assert fact.n_groups == len(legacy)
        order, starts = kernels.group_sorter(fact)
        bounds = np.append(starts, t.n_rows)
        legacy_sorted = sorted(
            legacy, key=lambda kt: tuple(("" if v is None else v) for v in kt)
        )
        for g, key in enumerate(legacy_sorted):
            run = np.sort(order[bounds[g] : bounds[g + 1]])
            assert np.array_equal(run, legacy[key])


class TestJoinMatchesLegacy:
    @st.composite
    @staticmethod
    def join_pairs(draw):
        def tbl(n):
            return Table.from_dict(
                {
                    "id": draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
                    "g": draw(st.lists(STR_KEYS, min_size=n, max_size=n)),
                    "x": draw(st.lists(FLOATS, min_size=n, max_size=n)),
                },
                dtypes={"id": DType.INT, "g": DType.STR, "x": DType.FLOAT},
            )

        left = tbl(draw(st.integers(1, 30)))
        right = tbl(draw(st.integers(1, 30)))
        return left, right

    @given(join_pairs(), st.sampled_from(["inner", "left"]))
    @settings(max_examples=60, deadline=None)
    def test_single_int_key(self, pair, how):
        left, right = pair
        assert_tables_byte_identical(
            join(left, right, on="id", how=how),
            legacy_join(left, right, on="id", how=how),
        )

    @given(join_pairs(), st.sampled_from(["inner", "left"]))
    @settings(max_examples=60, deadline=None)
    def test_multi_key_with_none(self, pair, how):
        left, right = pair
        assert_tables_byte_identical(
            join(left, right, on=["id", "g"], how=how),
            legacy_join(left, right, on=["id", "g"], how=how),
        )

    @given(join_pairs())
    @settings(max_examples=40, deadline=None)
    def test_str_key_alone(self, pair):
        left, right = pair
        assert_tables_byte_identical(
            join(left, right, on="g"), legacy_join(left, right, on="g")
        )

    def test_nan_keys_never_match(self):
        nan = float("nan")
        left = Table.from_dict(
            {"f": [nan, 1.0], "a": [10.0, 20.0]},
            dtypes={"f": DType.FLOAT, "a": DType.FLOAT},
        )
        right = Table.from_dict(
            {"f": [nan, 1.0], "b": [1.0, 2.0]},
            dtypes={"f": DType.FLOAT, "b": DType.FLOAT},
        )
        out = join(left, right, on="f", how="left")
        assert_tables_byte_identical(out, legacy_join(left, right, on="f", how="left"))
        matched = out.column("b").to_list()
        # NaN row joins nothing; the 1.0 row matches.
        assert np.isnan(matched[0]) and matched[1] == 2.0

    def test_none_str_keys_do_match(self):
        left = Table.from_dict(
            {"g": [None, "a"], "a": [1.0, 2.0]},
            dtypes={"g": DType.STR, "a": DType.FLOAT},
        )
        right = Table.from_dict(
            {"g": [None, "b"], "b": ["x", "y"]},
            dtypes={"g": DType.STR, "b": DType.STR},
        )
        out = join(left, right, on="g")
        assert_tables_byte_identical(out, legacy_join(left, right, on="g"))
        assert out.n_rows == 1 and out.column("b").to_list() == ["x"]


class TestSortBy:
    @given(keyed_tables())
    @settings(max_examples=60, deadline=None)
    def test_ascending_matches_legacy(self, t):
        assert_tables_byte_identical(
            t.sort_by(["k", "v"]), legacy_sort_by(t, ["k", "v"])
        )

    @given(keyed_tables())
    @settings(max_examples=60, deadline=None)
    def test_descending_same_key_sequence_as_legacy(self, t):
        # The fix changes only the order WITHIN tied keys, never the key
        # sequence itself.  None and "" ARE tied keys (the legacy engine
        # canonicalized None to ""), so compare canonicalized sequences.
        ours = t.sort_by("k", descending=True).column("k").to_list()
        legacy = legacy_sort_by(t, "k", descending=True).column("k").to_list()
        assert [v or "" for v in ours] == [v or "" for v in legacy]

    def test_descending_ties_keep_row_order(self):
        t = Table.from_dict(
            {"k": ["a", "a", "b", "a"], "i": [1, 2, 3, 4]},
            dtypes={"k": DType.STR, "i": DType.INT},
        )
        out = t.sort_by("k", descending=True)
        assert out.column("k").to_list() == ["b", "a", "a", "a"]
        # stable: tied 'a' rows stay in original order (legacy gave 4,2,1)
        assert out.column("i").to_list() == [3, 1, 2, 4]
        buggy = legacy_sort_by(t, "k", descending=True)
        assert buggy.column("i").to_list() == [3, 4, 2, 1]

    @given(keyed_tables())
    @settings(max_examples=40, deadline=None)
    def test_descending_is_stable_permutation(self, t):
        out = t.sort_by("v", descending=True)
        vals = [v for v in out.column("v").to_list() if v == v]
        assert vals == sorted(vals, reverse=True)
        assert sorted(out.column("k2").to_list()) == sorted(
            t.column("k2").to_list()
        )


class TestRegressionFixes:
    def test_nunique_counts_nan_once(self):
        c = Column("v", [1.0, float("nan"), float("nan"), 2.0], DType.FLOAT)
        assert c.nunique() == 3

    def test_agg_nunique_counts_nan_once(self):
        t = Table.from_dict(
            {"k": ["a"] * 4, "v": [1.0, float("nan"), float("nan"), 2.0]},
            dtypes={"k": DType.STR, "v": DType.FLOAT},
        )
        out = t.group_by("k").aggregate({"u": ("v", "nunique")})
        assert out.column("u").to_list() == [3]
        legacy = legacy_aggregate(t, ["k"], {"u": ("v", "nunique")})
        assert legacy.column("u").to_list() == [3]

    def test_isin_nan_safe(self):
        c = Column("v", [1.0, float("nan"), 3.0], DType.FLOAT)
        assert c.isin([float("nan"), 3.0]).tolist() == [False, True, True]
        assert c.isin([1.0]).tolist() == [True, False, False]

    def test_isin_str_with_none(self):
        c = Column("s", ["a", None, "b"], DType.STR)
        assert c.isin(["a", None]).tolist() == [True, True, False]
        assert c.isin(["b"]).tolist() == [False, False, True]

    def test_isnull_str_and_float(self):
        assert Column("s", ["a", None], DType.STR).isnull().tolist() == [False, True]
        assert Column("v", [1.0, float("nan")], DType.FLOAT).isnull().tolist() == [
            False,
            True,
        ]

    def test_str_column_roundtrips_through_codes(self):
        c = Column("s", ["b", None, "a", "b", ""], DType.STR)
        assert c.codes.dtype == np.int32
        assert list(c.pool) == ["", "a", "b"]
        assert c.to_list() == ["b", None, "a", "b", ""]
        taken = c.take(np.asarray([4, 1, 0]))
        assert taken.to_list() == ["", None, "b"]
