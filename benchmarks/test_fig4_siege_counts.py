"""Bench F4 — Figure 4: daily test counts in Kharkiv and Mariupol."""

import numpy as np
from bench_common import emit, write_tables
from paper_expectations import FIG4_COUNT_RATIOS

from repro.analysis.national import invasion_day_ordinal
from repro.util import Day


def test_fig4_siege_counts(bench_report, results_dir):
    write_tables(results_dir, bench_report, "fig4_siege_counts")
    counts = bench_report.tables["fig4_siege_counts"]

    days = np.asarray(counts["day"].to_list())
    pre = days < invasion_day_ordinal()
    measured = {}
    for city in FIG4_COUNT_RATIOS:
        series = np.asarray(counts[city].to_list())
        measured[city] = float(series[~pre].sum() / max(series[pre].sum(), 1))
    lines = [
        bench_report.sections["fig4"],
        "",
        "wartime/prewar test-count ratio, paper vs measured:",
    ]
    for city, paper_ratio in FIG4_COUNT_RATIOS.items():
        lines.append(
            f"  {city:9s} paper {paper_ratio:.3f}  measured {measured[city]:.3f}"
        )
    emit(results_dir, "fig4_siege_counts", "\n".join(lines))

    # Shape: Mariupol all but disappears; Kharkiv drops after March 14.
    assert measured["Mariupol"] < 0.35
    mariupol = np.asarray(counts["Mariupol"].to_list())
    late = days >= Day.of("2022-03-15").ordinal
    assert mariupol[late].mean() < 0.2 * max(mariupol[pre].mean(), 0.1)
    kharkiv = np.asarray(counts["Kharkiv"].to_list())
    before_shelling = (days >= invasion_day_ordinal()) & (
        days < Day.of("2022-03-14").ordinal
    )
    after_shelling = days >= Day.of("2022-03-14").ordinal
    assert kharkiv[after_shelling].mean() < 0.8 * kharkiv[before_shelling].mean()
