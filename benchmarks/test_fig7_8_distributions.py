"""Bench F7/F8 — Figures 7-8: metric distributions, prewar and wartime."""

from bench_common import emit, write_tables

from repro.analysis.distros import metric_histogram, skewness
from repro.tables.io import write_csv

CELLS = [
    (metric, period)
    for period in ("prewar", "wartime")
    for metric in ("min_rtt_ms", "tput_mbps", "loss_rate")
]


def test_fig7_8_distributions(bench_dataset, bench_report, benchmark, results_dir):
    hist = benchmark.pedantic(
        lambda: metric_histogram(bench_dataset.ndt, "tput_mbps", "prewar"),
        rounds=3,
        iterations=1,
    )
    write_csv(hist, str(results_dir / "fig7_tput_prewar_hist.csv"))
    write_tables(
        results_dir, bench_report, *(f"fig78_{m}_{p}_hist" for m, p in CELLS)
    )

    skews = {(m, p): skewness(bench_dataset.ndt, m, p) for m, p in CELLS}
    lines = [
        bench_report.sections["fig7"],
        "",
        "skewness (paper: RTT near-normal-with-spike, tput/loss skewed):",
    ]
    for key, value in skews.items():
        lines.append(f"  {key[0]:11s} {key[1]:8s} {value:+.2f}")
    emit(results_dir, "fig7_8_distributions", "\n".join(lines))

    # Shape: throughput and loss right-skewed in both periods.
    assert skews[("tput_mbps", "prewar")] > 0.5
    assert skews[("loss_rate", "prewar")] > 0.5
    assert skews[("tput_mbps", "wartime")] > 0.5
    assert skews[("loss_rate", "wartime")] > 0.5
