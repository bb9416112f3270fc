"""Bench T3 — Table 3: top-10 AS metric changes vs baseline fluctuations."""

from bench_common import emit, write_tables
from paper_expectations import TABLE3, TABLE3_BASELINE


def test_table3_asn(bench_dataset, bench_report, results_dir):
    registry = bench_dataset.topology.registry
    write_tables(results_dir, bench_report, "table3_asn")
    table = bench_report.tables["table3_asn"]

    rows = {r["asn"]: r for r in table.iter_rows()}
    lines = [bench_report.sections["table3"], "", "paper vs measured:"]
    for asn, (p_count, p_tput, p_rtt, p_loss) in TABLE3.items():
        if asn not in rows:
            lines.append(f"  AS{asn}: too few tests in this run")
            continue
        r = rows[asn]
        lines.append(
            f"  {registry.name_of(asn):14s} dTput paper {p_tput:+7.2f}% measured "
            f"{r['d_tput_pct']:+7.2f}%   dRTT paper {p_rtt:+7.1f}% measured "
            f"{r['d_rtt_pct']:+7.1f}%   loss paper x{p_loss:.2f} measured "
            f"x{r['loss_ratio']:.2f}"
        )
    lines.append(
        f"  baseline fluct. paper count {TABLE3_BASELINE['d_count_pct']:+.1f}% "
        f"tput {TABLE3_BASELINE['d_tput_pct']:+.1f}% rtt "
        f"{TABLE3_BASELINE['d_rtt_pct']:+.1f}% loss x{TABLE3_BASELINE['loss_ratio']:.2f}"
        "   measured: the 'baseline fluctuations' line above"
    )
    emit(results_dir, "table3_asn", "\n".join(lines))

    # Shape: Kyivstar throughput collapses; Ukrtelecom's counts explode and
    # loss multiplies; TeNeT does not degrade; Emplot's counts collapse.
    assert rows[15895]["d_tput_pct"] < -15 and rows[15895]["d_tput_sig"]
    assert rows[50581]["d_count_pct"] > 100
    assert rows[50581]["loss_ratio"] > 2
    assert rows[6876]["loss_ratio"] < 1.4  # TeNeT: no degradation beyond noise
    assert rows[21488]["d_count_pct"] < -60
    # Most ASes should degrade in RTT or loss beyond the baseline.
    exceeds = [
        r for r in table.iter_rows() if r["d_rtt_exceeds"] or r["loss_exceeds"]
    ]
    assert len(exceeds) >= 4
