"""Bench T2 — Table 2: paths and tests per connection across the 4 periods."""

from bench_common import emit, write_tables
from paper_expectations import TABLE2


def test_table2_paths(bench_report, results_dir):
    write_tables(results_dir, bench_report, "table2_paths")
    table = bench_report.tables["table2_paths"]

    rows = {r["period"]: r for r in table.iter_rows()}
    lines = [bench_report.sections["table2"], "", "paper vs measured:"]
    for period, (paper_paths, paper_tests) in TABLE2.items():
        r = rows[period]
        lines.append(
            f"  {period:16s} paths/conn paper {paper_paths:6.3f} measured "
            f"{r['paths_per_conn']:6.3f}   tests/conn paper {paper_tests:7.1f} "
            f"measured {r['tests_per_conn']:7.1f}"
        )
    lines.append(
        "\nnote: absolute tests/conn scale with dataset volume (the paper's "
        "Section-5 population is ~10x its Section-4 population); the ordering "
        "baseline < prewar < wartime is the reproduced shape."
    )
    emit(results_dir, "table2_paths", "\n".join(lines))

    assert rows["wartime"]["paths_per_conn"] > rows["prewar"]["paths_per_conn"]
    assert rows["prewar"]["paths_per_conn"] > max(
        rows["baseline_janfeb"]["paths_per_conn"],
        rows["baseline_febapr"]["paths_per_conn"],
    )
    assert rows["prewar"]["tests_per_conn"] > rows["baseline_janfeb"]["tests_per_conn"]
