"""Bench F9 — Figure 9: performance change vs change in paths used."""

import numpy as np
from bench_common import emit, write_tables


def test_fig9_pathperf(bench_report, results_dir):
    write_tables(results_dir, bench_report, "fig9_pathperf")
    table = bench_report.tables["fig9_pathperf"]
    emit(
        results_dir,
        "fig9_pathperf",
        "\n".join(
            [
                bench_report.sections["fig9"],
                "",
                "paper's reading: connections that used more new paths during the "
                "war saw throughput decreases and loss increases (a mild, not "
                "perfectly monotone correlation — Appendix D).",
            ]
        ),
    )

    rows = table.to_dicts()
    assert len(rows) >= 2
    gained = [r for r in rows if r["d_paths"] > 0]
    assert gained, "some persistent connections must have gained paths"
    # Shape: among connections that gained paths, throughput fell and loss
    # rose on average (weighted by bucket size).
    weights = np.array([r["n_connections"] for r in gained], dtype=float)
    d_tput = np.array([r["d_tput_mbps"] for r in gained])
    d_loss = np.array([r["d_loss"] for r in gained])
    assert np.average(d_tput, weights=weights) < 0
    assert np.average(d_loss, weights=weights) > 0
