"""The report's section functions: each paper artifact as text and tables.

One function per table or figure group, each mapping a
:class:`~repro.synth.generator.Dataset` to a :class:`Section`: the text
the report prints for it and the tables behind that text, keyed by their
``results/`` file stem.  Four extension sections (route churn, event
study, outage days, rDNS geolocation) complete the set.
:func:`repro.runtime.experiments.experiment_registry` names them as the 18
experiments, and the runtime runs and renders them: ``repro report`` and
:func:`repro.full_report` print the same document, and the benchmarks
under ``benchmarks/`` write the same tables to ``results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import obs
from repro.analysis.asn_metrics import (
    PAPER_TOP10_ASNS,
    as_change_table,
    as_detail_table,
    as_pvalue_table,
    baseline_fluctuations,
)
from repro.analysis.border import border_crossing_counts, border_shift_matrix, border_totals
from repro.analysis.casestudy import inbound_weekly
from repro.analysis.city import city_welch_table, siege_city_counts
from repro.analysis.common import client_as_column
from repro.analysis.distros import metric_histogram
from repro.analysis.events_impact import event_impact_table
from repro.analysis.hopgeo import gateway_city_agreement
from repro.analysis.national import invasion_day_ordinal, national_daily
from repro.analysis.outages import detect_outage_days
from repro.analysis.paths import path_count_table, path_performance
from repro.analysis.regional import oblast_changes, oblast_summary, zone_average_changes
from repro.analysis.routing_churn import churn_summary, daily_route_churn
from repro.conflict import default_timeline
from repro.synth.generator import Dataset
from repro.tables.expr import col
from repro.tables.pretty import format_table
from repro.tables.table import Table
from repro.util.errors import AnalysisError
from repro.viz.asciichart import line_chart
from repro.viz.bars import bar_chart
from repro.viz.heatmap import heatmap
from repro.tables.schema import Cols

#: The sections themselves are reached through ``experiment_registry()``.
__all__ = ["Section"]


@dataclass(frozen=True)
class Section:
    """One section of the report: the text it prints and its tables.

    ``tables`` maps each table's ``results/`` file stem (``table1_city``,
    ``fig2_national_2022``, ...) to the table, in the order the text
    prints them; written with :func:`repro.tables.io.write_csv` as
    ``<stem>.csv`` they are the committed ``results/`` CSVs.
    """

    text: str
    tables: Dict[str, Table] = field(default_factory=dict)


@obs.traced("analysis.fig2")
def _fig2(dataset: Dataset) -> Section:
    parts: List[str] = ["== Figure 2: daily national means (2022; ':' marks Feb 24) =="]
    daily = national_daily(dataset.ndt, 2022)
    marker = daily.column("day").to_list().index(invasion_day_ordinal())
    for metric, fmt in (
        ("tests", ".0f"),
        (Cols.MIN_RTT, ".1f"),
        (Cols.TPUT, ".1f"),
        (Cols.LOSS_RATE, ".3f"),
    ):
        parts.append(
            line_chart(
                daily.column(metric).to_list(),
                title=f"-- {metric} --",
                marker_index=marker,
                y_fmt=fmt,
            )
        )
    baseline = national_daily(dataset.ndt, 2021)
    parts.append("-- 2021 baseline loss_rate (no corresponding change) --")
    parts.append(line_chart(baseline.column(Cols.LOSS_RATE).to_list(), y_fmt=".3f"))
    return Section(
        "\n".join(parts),
        {"fig2_national_2022": daily, "fig2_national_2021": baseline},
    )


@obs.traced("analysis.fig3_table4")
def _fig3_table4(dataset: Dataset) -> Section:
    changes = oblast_changes(dataset.ndt, dataset.topology.gazetteer)
    summary = oblast_summary(dataset.ndt)
    ranked = changes.sort_by("d_loss_pct", descending=True)
    parts = [
        "== Figure 3: per-oblast loss-rate change (wartime vs prewar) ==",
        bar_chart(
            [
                f"{oblast} [{zone}]"
                for oblast, zone in zip(
                    ranked.column("oblast").to_list(),
                    ranked.column("zone").to_list(),
                )
            ],
            ranked.column("d_loss_pct").to_list(),
        ),
        "-- zone averages --",
        format_table(zone_average_changes(changes), float_fmt="+.1f"),
        "== Table 4: raw oblast metrics ==",
        format_table(summary, float_fmts={Cols.LOSS_RATE: ".4f"}, float_fmt=".2f"),
    ]
    return Section(
        "\n".join(parts), {"fig3_regional": changes, "table4_oblast": summary}
    )


@obs.traced("analysis.table1")
def _table1(dataset: Dataset) -> Section:
    table = city_welch_table(dataset.ndt)
    text = "\n".join(
        [
            "== Table 1: city-level prewar vs wartime (Welch's t-test) ==",
            format_table(
                table,
                float_fmts={
                    "min_rtt_ms_p": ".1e",
                    "tput_mbps_p": ".1e",
                    "loss_rate_p": ".1e",
                    "loss_rate_prewar": ".4f",
                    "loss_rate_wartime": ".4f",
                },
                float_fmt=".2f",
            ),
        ]
    )
    return Section(text, {"table1_city": table})


@obs.traced("analysis.fig4")
def _fig4(dataset: Dataset) -> Section:
    counts = siege_city_counts(dataset.ndt)
    marker = counts.column("day").to_list().index(invasion_day_ordinal())
    parts = ["== Figure 4: daily test counts, besieged cities =="]
    for city in ("Kharkiv", "Mariupol"):
        parts.append(
            line_chart(
                counts.column(city).to_list(),
                title=f"-- {city} --",
                marker_index=marker,
                y_fmt=".0f",
            )
        )
    return Section("\n".join(parts), {"fig4_siege_counts": counts})


@obs.traced("analysis.table2_fig9")
def _table2_fig9(dataset: Dataset) -> Section:
    paths = path_count_table(dataset.traces)
    tables = {"table2_paths": paths}
    parts = [
        "== Table 2: paths and tests per connection (top-1000) ==",
        format_table(paths, float_fmt=".3f"),
    ]
    try:
        perf = path_performance(dataset.ndt, dataset.traces)
        tables["fig9_pathperf"] = perf
        parts += [
            "== Figure 9: performance change vs change in paths used ==",
            format_table(
                perf, float_fmts={"p_tput": ".1e", "p_loss": ".1e", "d_loss": ".4f"},
                float_fmt=".2f",
            ),
        ]
    except AnalysisError as exc:  # small datasets may lack persistent connections
        parts.append(f"(Figure 9 skipped: {exc})")
    return Section("\n".join(parts), tables)


@obs.traced("analysis.tables_3_5_6")
def _tables_3_5_6(dataset: Dataset) -> Section:
    ndt = client_as_column(dataset.ndt, dataset.topology.iplayer)
    registry = dataset.topology.registry
    asns = list(PAPER_TOP10_ASNS)
    baseline = baseline_fluctuations(ndt)
    change = as_change_table(ndt, asns, registry, baseline)
    detail = as_detail_table(ndt, asns)
    pvals = as_pvalue_table(ndt, asns, registry)
    baseline_row = (
        f"baseline fluctuations: d_count {baseline.d_count_pct:+.2f}%  "
        f"d_tput {baseline.d_tput_pct:+.2f}%  d_rtt {baseline.d_rtt_pct:+.2f}%  "
        f"loss x{baseline.loss_ratio:.2f}"
    )
    text = "\n".join(
        [
            "== Table 3: top-10 AS changes (sig = Welch p<0.05, exceeds = beyond 2021 fluctuation) ==",
            format_table(change, float_fmt="+.2f"),
            baseline_row,
            "== Table 5: AS-level details ==",
            format_table(
                detail,
                float_fmts={
                    "loss_rate_mean": ".4f",
                    "loss_rate_median": ".4f",
                    "loss_rate_std": ".4f",
                },
                float_fmt=".3f",
            ),
            "== Table 6: AS-level p-values ==",
            format_table(
                pvals,
                float_fmts={
                    "p_tput_mbps": ".3e",
                    "p_min_rtt_ms": ".3e",
                    "p_loss_rate": ".3e",
                },
            ),
        ]
    )
    return Section(
        text,
        {"table3_asn": change, "table5_asn_detail": detail, "table6_asn_pvalues": pvals},
    )


@obs.traced("analysis.fig5")
def _fig5(dataset: Dataset) -> Section:
    counts = border_crossing_counts(dataset.traces, dataset.topology.registry)
    rows, cols, delta, absent = border_shift_matrix(counts)
    text = "\n".join(
        [
            "== Figure 5: border-AS x Ukrainian-AS change in test counts ==",
            heatmap(delta, rows, cols, absent=absent),
            "-- net change per border AS --",
            format_table(border_totals(counts)),
        ]
    )
    return Section(text, {"fig5_border": counts})


@obs.traced("analysis.fig6")
def _fig6(dataset: Dataset) -> Section:
    weekly = inbound_weekly(
        dataset.ndt, dataset.traces, dataset.topology.registry
    )
    parts = ["== Figure 6: inbound traffic of AS199995 by border AS =="]
    parts.append(
        format_table(
            weekly,
            float_fmts={"share": ".2f", "median_loss": ".4f"},
            float_fmt=".2f",
        )
    )
    he = weekly.filter(col("border_asn") == 6939)
    degraded = weekly.filter(col("border_asn") == 6663)
    if he.n_rows and degraded.n_rows:
        parts.append("-- AS6939 (Hurricane Electric) weekly share --")
        parts.append(line_chart(he.column("share").to_list(), y_fmt=".2f", height=8))
        parts.append("-- AS6663 weekly median loss --")
        parts.append(
            line_chart(degraded.column("median_loss").to_list(), y_fmt=".3f", height=8)
        )
    return Section("\n".join(parts), {"fig6_as199995": weekly})


@obs.traced("analysis.figs7_8")
def _figs7_8(dataset: Dataset) -> Section:
    parts = ["== Figures 7-8: metric distributions =="]
    tables: Dict[str, Table] = {}
    for period in ("prewar", "wartime"):
        for metric in (Cols.MIN_RTT, Cols.TPUT, Cols.LOSS_RATE):
            hist = metric_histogram(dataset.ndt, metric, period, bins=12)
            tables[f"fig78_{metric}_{period}_hist"] = hist
            labels = [
                f"{low:.2f}-{high:.2f}"
                for low, high in zip(
                    hist.column("bin_low").to_list(),
                    hist.column("bin_high").to_list(),
                )
            ]
            parts.append(
                bar_chart(
                    labels,
                    [f * 100 for f in hist.column("fraction").to_list()],
                    title=f"-- {metric}, {period} (% of tests) --",
                    value_fmt=".1f",
                )
            )
    return Section("\n".join(parts), tables)


@obs.traced("analysis.churn")
def _churn(ds: Dataset) -> Section:
    table = daily_route_churn(ds)
    summary = churn_summary(table, ds)
    text = (
        format_table(table, max_rows=30)
        + f"\nmean daily route changes: prewar "
        f"{summary['prewar_daily_changes']:.1f}, wartime "
        f"{summary['wartime_daily_changes']:.1f} (x{summary['ratio']:.1f})"
    )
    return Section(text, {"ext_route_churn": table})


@obs.traced("analysis.events")
def _events(ds: Dataset) -> Section:
    table = event_impact_table(ds.ndt, default_timeline(), ds.topology.gazetteer)
    text = format_table(table, float_fmts={"p_value": ".1e"}, float_fmt=".3f")
    return Section(text, {"ext_event_study": table})


@obs.traced("analysis.outages")
def _outages(ds: Dataset) -> Section:
    return Section(f"outage-shaped days (2022): {detect_outage_days(ds.ndt)}")


@obs.traced("analysis.hopgeo")
def _hopgeo(ds: Dataset) -> Section:
    a = gateway_city_agreement(ds)
    return Section(
        f"rDNS vs geo-DB agreement: {a['agree']:.1%} over "
        f"{a['n_compared']:.0f} tests (geo missing {a['geo_missing']:.1%}, "
        f"PTR unusable {a['ptr_missing']:.1%})"
    )
