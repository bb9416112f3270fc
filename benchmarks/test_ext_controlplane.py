"""Extension benches: control-plane churn and bootstrap uncertainty."""

import numpy as np
from bench_common import emit, write_tables

from repro.analysis.routing_churn import churn_summary
from repro.analysis.uncertainty import agreement_rate, city_bootstrap_table
from repro.tables import format_table
from repro.tables.io import write_csv


def test_ext_route_churn(bench_dataset, bench_report, results_dir):
    write_tables(results_dir, bench_report, "ext_route_churn")
    summary = churn_summary(bench_report.tables["ext_route_churn"], bench_dataset)
    emit(results_dir, "ext_route_churn", bench_report.sections["churn"])
    # The collector view must agree with the traceroute view: wartime
    # routing churn far exceeds the peacetime reconvergence level.
    assert summary["ratio"] > 2.0


def test_ext_bootstrap_table1(bench_dataset, benchmark, results_dir):
    table = benchmark.pedantic(
        lambda: city_bootstrap_table(
            bench_dataset.ndt, np.random.default_rng(0), n_resamples=300
        ),
        rounds=1,
        iterations=1,
    )
    write_csv(table, str(results_dir / "ext_bootstrap_table1.csv"))
    rate = agreement_rate(table)
    emit(
        results_dir,
        "ext_bootstrap_table1",
        format_table(
            table,
            float_fmts={"mean_diff": "+.3f", "ci_low": "+.3f", "ci_high": "+.3f"},
        )
        + f"\n\nWelch/bootstrap agreement: {rate:.0%} of cells "
        "(Appendix B's normality caveat does not change the conclusions)",
    )
    assert rate >= 0.7
    national = {r["metric"]: r for r in table.iter_rows() if r["city"] == "National"}
    assert national["min_rtt_ms"]["bootstrap_sig"]
    assert national["loss_rate"]["bootstrap_sig"]
