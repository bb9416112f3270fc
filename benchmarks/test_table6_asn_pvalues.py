"""Bench T6 — Table 6: AS-level Welch p-values."""

import numpy as np
from bench_common import bench_scale, emit, write_tables
from paper_expectations import TABLE6_SIGNIFICANT


def test_table6_asn_pvalues(bench_report, results_dir):
    write_tables(results_dir, bench_report, "table6_asn_pvalues")
    table = bench_report.tables["table6_asn_pvalues"]

    rows = {r["asn"]: r for r in table.iter_rows()}
    lines = [
        bench_report.sections["table6"],
        "",
        "significance agreement with the paper (p < 0.05):",
    ]
    agree = 0
    total = 0
    for asn, paper_sig in TABLE6_SIGNIFICANT.items():
        r = rows[asn]
        for metric in ("tput_mbps", "min_rtt_ms", "loss_rate"):
            p = r[f"p_{metric}"]
            if np.isnan(p):
                continue
            total += 1
            measured = p < 0.05
            expected = metric in paper_sig
            mark = "==" if measured == expected else "!="
            agree += measured == expected
            lines.append(
                f"  AS{asn:<6d} {metric:11s} paper "
                f"{'sig' if expected else 'ns '} {mark} measured "
                f"{'sig' if measured else 'ns '} (p={p:.2e})"
            )
    lines.append(f"\nagreement: {agree}/{total} cells")
    emit(results_dir, "table6_asn_pvalues", "\n".join(lines))

    # Shape: a majority of the paper's 30 significance cells agree.  Below
    # full scale several of the paper's significant loss cells fall under
    # detection power (they recover at REPRO_BENCH_SCALE=1.0); a handful of
    # cells deviate persistently because the reproduction caps the paper's
    # outlier-driven stds (see EXPERIMENTS.md).
    required = 0.7 if bench_scale() >= 0.9 else 0.5
    assert agree >= required * total
