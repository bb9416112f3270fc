"""Tests for the NDT measurement row type."""

import pytest

from repro.ndt import NDT_SCHEMA, NdtMeasurement
from repro.ndt.measurement import check_metric_columns
from repro.tables import Table
from repro.util import Day


def make(city="Kyiv", oblast="Kiev City", **kw):
    defaults = dict(
        test_id=1,
        day=Day.of("2022-03-01"),
        city=city,
        oblast=oblast,
        city_true="Kyiv",
        asn=15895,
        client_ip="100.64.0.5",
        site="waw01",
        server_ip="10.29.0.1",
        protocol="ndt7",
        cca="bbr",
        tput_mbps=50.0,
        min_rtt_ms=12.0,
        loss_rate=0.02,
    )
    defaults.update(kw)
    return NdtMeasurement(**defaults)


class TestRow:
    def test_to_row_matches_schema(self):
        row = make().to_row()
        assert list(row) == NDT_SCHEMA.names

    def test_rows_build_table(self):
        rows = [make(test_id=i).to_row() for i in range(5)]
        t = Table.from_rows(rows, dtypes={f.name: f.dtype for f in NDT_SCHEMA.fields})
        assert t.n_rows == 5
        assert t.column("tput_mbps").mean() == pytest.approx(50.0)

    def test_date_and_year_derived(self):
        row = make().to_row()
        assert row["date"] == "2022-03-01"
        assert row["year"] == 2022

    def test_unlabeled_geo_allowed(self):
        m = make(city=None, oblast=None)
        assert m.to_row()["city"] is None


class TestValidation:
    def test_bad_tput(self):
        with pytest.raises(ValueError):
            make(tput_mbps=0.0)

    def test_bad_rtt(self):
        with pytest.raises(ValueError):
            make(min_rtt_ms=-1.0)

    def test_bad_loss(self):
        with pytest.raises(ValueError):
            make(loss_rate=1.5)

    def test_inconsistent_geo_labels(self):
        with pytest.raises(ValueError):
            make(city="Kyiv", oblast=None)
        with pytest.raises(ValueError):
            make(city=None, oblast="Kiev City")

    def test_metric_columns_name_first_bad_test(self):
        check_metric_columns([1, 2], [5.0, 6.0], [10.0, 11.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="test 3: min_rtt_ms"):
            check_metric_columns(
                [1, 3, 4], [5.0, 6.0, -1.0], [10.0, 0.0, 1.0], [0.1, 0.2, 0.3]
            )
        with pytest.raises(ValueError, match="test 9: loss_rate"):
            check_metric_columns([8, 9], [5.0, 6.0], [1.0, 1.0], [0.5, float("nan")])
