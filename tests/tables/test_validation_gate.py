"""Tests for the quarantine-based validation gate."""

import logging
import math

import numpy as np
import pytest

from repro.analysis.common import trace_rules
from repro.tables import DType, Table
from repro.tables.validate import (
    REASON_COLUMN,
    Rule,
    in_range,
    non_empty,
    positive,
    unique,
    validate_table,
    within,
)
from repro.util.errors import DataError, ValidationFailure


@pytest.fixture
def table():
    return Table.from_dict(
        {
            "test_id": ["a", "b", "b", "c", "d"],
            "day": [10, 10, 11, 500, 12],
            "tput": [5.0, math.nan, -2.0, 7.0, 8.0],
            "loss": [0.0, 0.5, 1.5, 0.2, 0.1],
            "city": ["Kyiv", None, "Lviv", "Odesa", "Kyiv"],
            "n_hops": [2, 2, 2, 2, 3],
            "path": ["a|b", "a|b", "a", "a|b", "a|b|c"],
        },
        dtypes={
            "test_id": DType.STR,
            "day": DType.INT,
            "tput": DType.FLOAT,
            "loss": DType.FLOAT,
            "city": DType.STR,
            "n_hops": DType.INT,
            "path": DType.STR,
        },
    )


class TestRules:
    def test_positive(self, table):
        assert positive("tput").bad_mask(table).tolist() == [
            False, True, True, False, False,
        ]

    def test_in_range(self, table):
        assert in_range("loss", 0.0, 1.0).bad_mask(table).tolist() == [
            False, False, True, False, False,
        ]

    def test_within(self, table):
        mask = within("day", [(10, 12)]).bad_mask(table)
        assert mask.tolist() == [False, False, False, True, False]

    def test_unique_keeps_first_occurrence(self, table):
        assert unique("test_id").bad_mask(table).tolist() == [
            False, False, True, False, False,
        ]

    def test_trace_hop_count_rule(self, table):
        (rule,) = [r for r in trace_rules() if r.name == "n_hops:!=len(path)"]
        assert rule.bad_mask(table).tolist() == [
            False, False, True, False, False,
        ]

    def test_non_empty(self, table):
        assert non_empty("city").bad_mask(table).tolist() == [
            False, True, False, False, False,
        ]
        blank = Table.from_dict({"path": ["a|b", "", None]}, dtypes={"path": DType.STR})
        assert non_empty("path").bad_mask(blank).tolist() == [False, True, True]

    def test_missing_column_raises_typed(self, table):
        with pytest.raises(DataError, match="nope"):
            positive("nope").bad_mask(table)

    def test_wrong_mask_length_raises_typed(self, table):
        bad_rule = Rule("broken", ("day",), lambda t: np.zeros(2, dtype=bool))
        with pytest.raises(DataError, match="mask"):
            bad_rule.bad_mask(table)


class TestValidateTable:
    RULES = staticmethod(
        lambda: [
            positive("tput"),
            in_range("loss", 0.0, 1.0),
            within("day", [(10, 12)]),
            unique("test_id"),
        ]
    )

    def test_accounting_invariant(self, table):
        gate = validate_table(table, self.RULES(), name="t")
        assert gate.clean.n_rows + gate.quarantine.n_rows == gate.report.n_input
        assert gate.report.n_input == table.n_rows
        assert gate.report.n_passed == gate.clean.n_rows
        assert gate.report.n_quarantined == gate.quarantine.n_rows

    def test_reasons_joined_per_row(self, table):
        gate = validate_table(table, self.RULES(), name="t")
        reasons = dict(
            zip(
                gate.quarantine.column("test_id").to_list(),
                gate.quarantine.column(REASON_COLUMN).to_list(),
            )
        )
        # Row 'b' #2 is both a duplicate and negative-tput and out-of-range loss.
        assert "tput:not-positive" in reasons["b"]
        assert "test_id:duplicate" in reasons["b"]
        assert "loss:outside[0.0,1.0]" in reasons["b"]
        assert reasons["c"] == "day:outside-study-windows"

    def test_clean_rows_survive_in_order(self, table):
        gate = validate_table(table, self.RULES(), name="t")
        assert gate.clean.column("test_id").to_list() == ["a", "d"]

    def test_clean_table_passes_unscathed(self, table):
        clean_input = table.filter(
            np.array([True, False, False, False, True])
        )
        gate = validate_table(clean_input, self.RULES(), name="t")
        assert gate.report.clean
        assert gate.clean.n_rows == clean_input.n_rows
        assert gate.quarantine.n_rows == 0

    def test_strict_raises_validation_failure(self, table):
        with pytest.raises(ValidationFailure, match="quarantined") as excinfo:
            validate_table(table, self.RULES(), name="t", strict=True)
        report = excinfo.value.report
        assert report.n_quarantined == 3
        assert "t" in str(excinfo.value)

    def test_default_mode_logs_one_warning(self, table, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.tables.validate"):
            validate_table(table, self.RULES(), name="t")
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "quarantined" in warnings[0].getMessage()

    def test_report_string_summarizes(self, table):
        gate = validate_table(table, self.RULES(), name="ndt")
        text = str(gate.report)
        assert "validation[ndt]" in text
        assert "2/5 rows passed" in text
