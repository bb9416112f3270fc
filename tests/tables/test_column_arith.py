"""Tests for column arithmetic and map."""

import math

import pytest

from repro.tables import Column, DType
from repro.util.errors import DataError


class TestArithmetic:
    def test_add_scalar(self):
        c = Column("x", [1.0, 2.0]) + 10
        assert c.to_list() == [11.0, 12.0]
        assert c.dtype is DType.FLOAT

    def test_sub_columns(self):
        out = Column("a", [5.0, 7.0]) - Column("b", [1.0, 2.0])
        assert out.to_list() == [4.0, 5.0]

    def test_mul(self):
        # Loss fractions to percentages — the common report conversion.
        out = Column("loss", [0.0197, 0.0414]) * 100
        assert out.to_list() == pytest.approx([1.97, 4.14])

    def test_div_by_column(self):
        out = Column("a", [10.0, 20.0]) / Column("b", [2.0, 5.0])
        assert out.to_list() == [5.0, 4.0]

    def test_div_by_zero_gives_nan(self):
        out = Column("a", [1.0, 2.0]) / Column("b", [0.0, 2.0])
        assert math.isnan(out.to_list()[0])
        assert out.to_list()[1] == 1.0

    def test_int_columns_promote_to_float(self):
        out = Column("n", [1, 2]) + Column("m", [3, 4])
        assert out.dtype is DType.FLOAT

    def test_name_preserved(self):
        assert (Column("x", [1.0]) * 2).name == "x"

    def test_str_rejected(self):
        with pytest.raises(DataError):
            Column("s", ["a"]) + 1
        with pytest.raises(DataError):
            Column("x", [1.0]) + Column("s", ["a"])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            Column("a", [1.0, 2.0]) + Column("b", [1.0])


class TestMap:
    def test_map_numeric(self):
        out = Column("x", [1.0, 4.0]).map(math.sqrt)
        assert out.to_list() == [1.0, 2.0]

    def test_map_to_str(self):
        out = Column("x", [1, 2]).map(lambda v: f"AS{v}", DType.STR)
        assert out.to_list() == ["AS1", "AS2"]
        assert out.dtype is DType.STR

    def test_map_preserves_name(self):
        assert Column("x", [1]).map(lambda v: v + 1).name == "x"


class TestMapStr:
    """On STR columns ``map`` works per distinct value, not per row."""

    @staticmethod
    def counting(fn):
        calls = []

        def wrapped(v):
            calls.append(v)
            return fn(v)

        return wrapped, calls

    def test_once_per_distinct_value_with_nulls(self):
        c = Column("p", ["a|b", None, "a|b", "c", None, "c", "a|b"])
        fn, calls = self.counting(lambda v: -1 if v is None else len(v))
        out = c.map(fn, DType.INT)
        assert len(calls) == 3 and set(calls) == {None, "a|b", "c"}
        assert out.to_list() == [3, -1, 3, 1, -1, 1, 3]
        assert out.dtype is DType.INT

    def test_null_function_runs_only_when_a_null_exists(self):
        fn, calls = self.counting(len)
        out = Column("p", ["ab", "c", "ab"]).map(fn, DType.INT)
        assert None not in calls and len(calls) == 2
        assert out.to_list() == [2, 1, 2]

    def test_unused_pool_entries_skipped(self):
        # mask/take keep the parent's pool; entries no row uses are not mapped
        kept = Column("p", ["keep", "bad-entry", "keep"]).mask([True, False, True])
        fn, calls = self.counting(str.upper)
        assert kept.map(fn, DType.STR).to_list() == ["KEEP", "KEEP"]
        assert calls == ["keep"]


class TestPercentileAggregators:
    def test_groupby_percentiles(self):
        from repro.tables import Table

        t = Table.from_dict(
            {"k": ["a"] * 100, "v": [float(i) for i in range(100)]}
        )
        out = t.group_by("k").aggregate(
            {"q25": ("v", "p25"), "q95": ("v", "p95")}
        )
        row = out.row(0)
        assert row["q25"] == pytest.approx(24.75)
        assert row["q95"] == pytest.approx(94.05)
