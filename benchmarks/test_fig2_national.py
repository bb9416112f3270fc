"""Bench F2 — Figure 2: daily national metric series, 2022 vs 2021."""

import numpy as np
from bench_common import emit, write_tables
from paper_expectations import FIG2_FACTORS

from repro.analysis.national import invasion_day_ordinal


def test_fig2_national(bench_report, results_dir):
    write_tables(results_dir, bench_report, "fig2_national_2022", "fig2_national_2021")
    daily_2022 = bench_report.tables["fig2_national_2022"]
    daily_2021 = bench_report.tables["fig2_national_2021"]

    days = np.asarray(daily_2022["day"].to_list())
    pre_mask = days < invasion_day_ordinal()
    measured_factors = {}
    for metric in FIG2_FACTORS:
        series = np.asarray(daily_2022[metric].to_list())
        measured_factors[metric] = float(
            np.nanmean(series[~pre_mask]) / np.nanmean(series[pre_mask])
        )
    lines = [bench_report.sections["fig2"], "", "wartime/prewar factor, paper vs measured:"]
    for metric, paper_factor in FIG2_FACTORS.items():
        lines.append(
            f"  {metric:11s} paper x{paper_factor:.2f}  measured "
            f"x{measured_factors[metric]:.2f}"
        )
    emit(results_dir, "fig2_national", "\n".join(lines))

    # Shape: RTT and loss jump, throughput falls, 2021 stays flat.
    assert measured_factors["min_rtt_ms"] > 1.3
    assert measured_factors["loss_rate"] > 1.5
    assert measured_factors["tput_mbps"] < 0.92
    b_days = np.asarray(daily_2021["day"].to_list())
    b_split = b_days < (invasion_day_ordinal() - 365)
    b_rtt = np.asarray(daily_2021["min_rtt_ms"].to_list())
    baseline_factor = np.nanmean(b_rtt[~b_split]) / np.nanmean(b_rtt[b_split])
    assert 0.85 < baseline_factor < 1.15
