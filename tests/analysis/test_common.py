"""Tests for analysis helpers."""

import pytest

from repro.analysis import (
    client_as_column,
    slice_period,
    slice_year,
    with_periods,
)
from repro.analysis.periods import PERIOD_NAMES, study_periods
from repro.tables import Table, col
from repro.util import Day
from repro.util.errors import AnalysisError


class TestSlicing:
    def test_slice_period_bounds(self, small_dataset):
        war = slice_period(small_dataset.ndt, "wartime")
        days = war["day"].values
        assert days.min() >= Day.of("2022-02-24").ordinal
        assert days.max() <= Day.of("2022-04-18").ordinal

    def test_slices_partition_dataset(self, small_dataset):
        total = sum(
            slice_period(small_dataset.ndt, p).n_rows for p in PERIOD_NAMES
        )
        assert total == small_dataset.ndt.n_rows

    def test_unknown_period(self, small_dataset):
        with pytest.raises(AnalysisError):
            slice_period(small_dataset.ndt, "peacetime")

    def test_slice_year(self, small_dataset):
        y21 = slice_year(small_dataset.ndt, 2021)
        y22 = slice_year(small_dataset.ndt, 2022)
        assert y21.n_rows + y22.n_rows == small_dataset.ndt.n_rows
        assert set(y21["year"].to_list()) == {2021}

    def test_with_periods_labels_every_row(self, small_dataset):
        labeled = with_periods(small_dataset.ndt.head(500))
        assert set(labeled["period"].to_list()) <= set(PERIOD_NAMES)

    def test_with_periods_rejects_alien_days(self):
        t = Table.from_dict({"day": [1000]})
        with pytest.raises(AnalysisError):
            with_periods(t)


class TestClientAs:
    def test_matches_ground_truth(self, small_dataset):
        sample = small_dataset.ndt.head(300)
        with_asn = client_as_column(sample, small_dataset.topology.iplayer)
        assert with_asn["client_asn"].to_list() == sample["asn"].to_list()

    def test_unknown_space_marked(self, small_dataset):
        t = Table.from_dict({"client_ip": ["203.0.113.9"]})
        out = client_as_column(t, small_dataset.topology.iplayer)
        assert out["client_asn"].to_list() == [-1]


def test_study_periods_are_the_papers():
    periods = study_periods()
    assert periods["prewar"].start == Day.of("2022-01-01")
    assert periods["wartime"].end == Day.of("2022-04-18")
    assert all(p.n_days == 54 for p in periods.values())
