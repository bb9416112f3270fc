"""Bench T5 — Table 5: AS-level mean/median/std detail."""

from bench_common import emit, write_tables
from paper_expectations import TABLE5_SAMPLE


def test_table5_asn_detail(bench_report, results_dir):
    write_tables(results_dir, bench_report, "table5_asn_detail")
    table = bench_report.tables["table5_asn_detail"]

    rows = {(r["asn"], r["period"]): r for r in table.iter_rows()}
    lines = [
        bench_report.sections["table5"],
        "",
        "paper vs measured (means; counts scale with the bench volume):",
    ]
    for (asn, period), (pt, pr, pl, pc) in TABLE5_SAMPLE.items():
        r = rows[(asn, period)]
        lines.append(
            f"  AS{asn} {period:8s} tput paper {pt:7.2f} measured "
            f"{r['tput_mbps_mean']:7.2f}   rtt paper {pr:6.2f} measured "
            f"{r['min_rtt_ms_mean']:6.2f}   loss paper {pl:.4f} measured "
            f"{r['loss_rate_mean']:.4f}"
        )
    emit(results_dir, "table5_asn_detail", "\n".join(lines))

    # Shape: Kyivstar's throughput collapses and loss rises; TeNeT improves;
    # Ukrtelecom's wartime loss multiplies severalfold.
    assert (
        rows[(15895, "wartime")]["tput_mbps_mean"]
        < 0.8 * rows[(15895, "prewar")]["tput_mbps_mean"]
    )
    # TeNeT does not degrade (its loss stays flat/falls; beta-draw noise at
    # bench scale allows a small wobble).
    assert (
        rows[(6876, "wartime")]["loss_rate_mean"]
        < 1.4 * rows[(6876, "prewar")]["loss_rate_mean"]
    )
    assert (
        rows[(50581, "wartime")]["loss_rate_mean"]
        > 2 * rows[(50581, "prewar")]["loss_rate_mean"]
    )
    # Medians stay below means for throughput (right-skew, as in the paper).
    assert (
        rows[(15895, "prewar")]["tput_mbps_median"]
        < rows[(15895, "prewar")]["tput_mbps_mean"]
    )
