"""Bench F3 — Figure 3: per-oblast percentage changes vs conflict zones."""

import numpy as np
from bench_common import emit, write_tables

from repro.analysis.regional import zone_average_changes


def test_fig3_regional(bench_report, results_dir):
    write_tables(results_dir, bench_report, "fig3_regional")
    changes = bench_report.tables["fig3_regional"]
    zones = zone_average_changes(changes)
    emit(
        results_dir,
        "fig3_regional",
        "\n".join(
            [
                bench_report.sections["fig3"],
                "",
                "paper's reading: oblasts in the militarily active North and "
                "Southeast correlate with worsening metrics; the West is spared.",
            ]
        ),
    )

    by_zone = {r["zone"]: r for r in zones.iter_rows()}
    active_loss = np.mean(
        [by_zone[z]["d_loss_pct"] for z in ("north", "east", "south")]
    )
    active_rtt = np.mean(
        [by_zone[z]["d_rtt_pct"] for z in ("north", "east", "south")]
    )
    # Shape: active fronts degrade more than the West on loss and RTT.
    assert active_loss > by_zone["west"]["d_loss_pct"]
    assert active_rtt > 0
    # Test counts remain far more stable than the metrics (paper Sec 4.2).
    mean_abs_count = np.mean([abs(r["d_count_pct"]) for r in changes.iter_rows()])
    mean_abs_loss = np.mean([abs(r["d_loss_pct"]) for r in changes.iter_rows()])
    assert mean_abs_loss > mean_abs_count
