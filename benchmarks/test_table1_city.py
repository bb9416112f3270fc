"""Bench T1 — Table 1: city-level prewar/wartime comparison (Welch's t-test)."""

from bench_common import emit, write_tables
from paper_expectations import TABLE1


def test_table1_city(bench_report, results_dir):
    write_tables(results_dir, bench_report, "table1_city")
    table = bench_report.tables["table1_city"]

    lines = [bench_report.sections["table1"], "", "paper vs measured (prewar -> wartime):"]
    rows = {r["city"]: r for r in table.iter_rows()}
    for (city, metric), (paper_pre, paper_war, paper_sig) in TABLE1.items():
        r = rows[city]
        lines.append(
            f"  {city:9s} {metric:11s} paper {paper_pre:8.3f} -> {paper_war:8.3f} "
            f"({'sig' if paper_sig else 'ns '})   measured "
            f"{r[f'{metric}_prewar']:8.3f} -> {r[f'{metric}_wartime']:8.3f} "
            f"({'sig' if r[f'{metric}_sig'] else 'ns '})"
        )
    emit(results_dir, "table1_city", "\n".join(lines))

    # Shape assertions: direction of every national change + headline cities.
    national = rows["National"]
    assert national["min_rtt_ms_wartime"] > national["min_rtt_ms_prewar"]
    assert national["tput_mbps_wartime"] < national["tput_mbps_prewar"]
    assert national["loss_rate_wartime"] > national["loss_rate_prewar"]
    assert national["min_rtt_ms_sig"] and national["loss_rate_sig"]
    kyiv = rows["Kyiv"]
    assert kyiv["min_rtt_ms_sig"] and kyiv["min_rtt_ms_wartime"] > 1.5 * kyiv["min_rtt_ms_prewar"]
    mariupol = rows["Mariupol"]
    assert mariupol["n_wartime"] < 0.4 * mariupol["n_prewar"]
