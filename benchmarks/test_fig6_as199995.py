"""Bench F6 — Figure 6: AS199995's inbound mix shifts to Hurricane Electric."""

import numpy as np
from bench_common import emit, write_tables

from repro.tables import col
from repro.topology.builder import DEGRADING_BORDER_ASN, HURRICANE_ELECTRIC


def _weekly_series(weekly, asn, column):
    rows = weekly.filter(col("border_asn") == asn)
    return {r["week"]: r[column] for r in rows.iter_rows()}


def test_fig6_as199995(bench_report, results_dir):
    write_tables(results_dir, bench_report, "fig6_as199995")
    weekly = bench_report.tables["fig6_as199995"]
    emit(results_dir, "fig6_as199995", bench_report.sections["fig6"])

    he_share = _weekly_series(weekly, HURRICANE_ELECTRIC, "share")
    bad_share = _weekly_series(weekly, DEGRADING_BORDER_ASN, "share")
    bad_loss = _weekly_series(weekly, DEGRADING_BORDER_ASN, "median_loss")

    def mean_over(series, lo, hi):
        values = [v for w, v in series.items() if lo <= w < hi]
        return float(np.mean(values)) if values else float("nan")

    pre_he = mean_over(he_share, "2022-01-01", "2022-02-21")
    war_he = mean_over(he_share, "2022-03-14", "2022-04-30")
    pre_bad = mean_over(bad_share, "2022-01-01", "2022-02-21")
    war_bad = mean_over(bad_share, "2022-03-14", "2022-04-30")
    # Shape: the degrading upstream dominates prewar, HE dominates wartime.
    assert pre_bad > pre_he
    assert war_he > war_bad
    assert war_he > pre_he + 0.1
    # Its loss rises as its share collapses.
    pre_loss = mean_over(bad_loss, "2022-01-01", "2022-02-21")
    war_loss = mean_over(bad_loss, "2022-02-28", "2022-04-01")
    assert war_loss > pre_loss
