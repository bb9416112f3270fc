"""Bench F5 — Figure 5: border-AS x Ukrainian-AS connectivity changes."""

from bench_common import emit, write_tables

from repro.analysis.border import border_totals
from repro.topology.builder import COGENT, DEGRADING_BORDER_ASN, HURRICANE_ELECTRIC


def test_fig5_border(bench_report, results_dir):
    write_tables(results_dir, bench_report, "fig5_border")
    totals = border_totals(bench_report.tables["fig5_border"])
    emit(
        results_dir,
        "fig5_border",
        "\n".join(
            [
                bench_report.sections["fig5"],
                "",
                "paper's reading: more tests utilize Hurricane Electric and fewer "
                "utilize Cogent Networks after the invasion.",
            ]
        ),
    )

    by_border = {r["border_asn"]: r for r in totals.iter_rows()}
    he = by_border[HURRICANE_ELECTRIC]
    cogent = by_border[COGENT]
    degraded = by_border[DEGRADING_BORDER_ASN]
    # Shape: Hurricane Electric gains absolutely; Cogent and the degrading
    # carrier decline (relative to their prewar levels).
    assert he["delta"] > 0
    assert degraded["delta"] < 0
    assert cogent["wartime"] / max(cogent["prewar"], 1) < he["wartime"] / max(
        he["prewar"], 1
    )
