"""Bench T4 — Table 4: raw oblast-level metrics."""

from bench_common import emit, write_tables
from paper_expectations import TABLE4_SAMPLE


def test_table4_oblast(bench_report, results_dir):
    write_tables(results_dir, bench_report, "table4_oblast")
    table = bench_report.tables["table4_oblast"]

    rows = {(r["oblast"], r["period"]): r for r in table.iter_rows()}
    lines = [
        bench_report.sections["table4"],
        "",
        "paper vs measured (spot-checked oblasts):",
    ]
    for oblast, (pt, pr, pl, wt, wr, wl) in TABLE4_SAMPLE.items():
        pre = rows.get((oblast, "prewar"))
        war = rows.get((oblast, "wartime"))
        if pre is None or war is None:
            lines.append(f"  {oblast}: missing in this run")
            continue
        lines.append(
            f"  {oblast:14s} RTT paper {pr:6.2f}->{wr:6.2f} measured "
            f"{pre['min_rtt_ms']:6.2f}->{war['min_rtt_ms']:6.2f}   loss paper "
            f"{pl:.4f}->{wl:.4f} measured {pre['loss_rate']:.4f}->{war['loss_rate']:.4f}"
        )
    emit(results_dir, "table4_oblast", "\n".join(lines))

    # Shape: Kyiv's oblast degrades on all three metrics; Zaporizhzhya's
    # loss explodes (the paper's 12.09% outlier); Kherson's RTT jumps.
    kiev_pre, kiev_war = rows[("Kiev City", "prewar")], rows[("Kiev City", "wartime")]
    assert kiev_war["min_rtt_ms"] > 1.5 * kiev_pre["min_rtt_ms"]
    assert kiev_war["tput_mbps"] < kiev_pre["tput_mbps"]
    zap_pre, zap_war = rows[("Zaporizhzhya", "prewar")], rows[("Zaporizhzhya", "wartime")]
    assert zap_war["loss_rate"] > 3 * zap_pre["loss_rate"]
    kher_pre, kher_war = rows[("Kherson", "prewar")], rows[("Kherson", "wartime")]
    # Kherson's RTT jump is damped by nationwide-AS blending (Kyivstar's
    # pooled RTT raises its prewar base), but remains a clear degradation.
    assert kher_war["min_rtt_ms"] > 1.15 * kher_pre["min_rtt_ms"]
