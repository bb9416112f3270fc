"""Shared helpers for the analysis modules."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.analysis.periods import study_periods
from repro.netbase.ipaddr import IPv4Address
from repro.obs.memory import record_table_memory
from repro.tables.column import Column
from repro.tables.expr import col
from repro.tables.schema import Cols, DType
from repro.tables.table import Table
from repro.tables.validate import Rule, in_range, non_empty, positive, unique, within
from repro.topology.iplayer import IpLayer
from repro.traceroute.pathrecord import hop_count
from repro.util.errors import AnalysisError
from repro.util.timeutil import Period

__all__ = [
    "METRICS",
    "clean_ndt",
    "clean_traces",
    "client_as_column",
    "ndt_rules",
    "period_predicate",
    "require_columns",
    "slice_period",
    "slice_year",
    "trace_rules",
    "with_periods",
    "year_predicate",
]

#: The three NDT metrics with their table columns and degradation direction.
#: ``worse`` is the comparison that means degradation (RTT/loss grow, tput falls).
METRICS = {
    Cols.MIN_RTT: {"label": "MinRTT (ms)", "worse": "increase"},
    Cols.TPUT: {"label": "MeanTput (Mbps)", "worse": "decrease"},
    Cols.LOSS_RATE: {"label": "LossRate", "worse": "increase"},
}


def require_columns(table: Table, names, where: str) -> None:
    """Raise a typed AnalysisError (not KeyError) for missing columns."""
    missing = [n for n in names if n not in table]
    if missing:
        raise AnalysisError(
            f"{where}: table lacks columns {missing}; has {table.column_names}"
        )


def _in_study_windows() -> Rule:
    """Timestamps must fall inside a study window (clock skew otherwise)."""
    return within(
        Cols.DAY,
        [(p.start.ordinal, p.end.ordinal) for p in study_periods().values()],
    )


def _hop_count_mismatch(traces: Table) -> np.ndarray:
    """Rows whose ``n_hops`` is not the hop count of their ``path``."""
    # one count per distinct path, broadcast through the dictionary codes
    hops = traces.column(Cols.PATH).map(hop_count, DType.INT).values
    return traces.column(Cols.N_HOPS).values != hops


def ndt_rules() -> List[Rule]:
    """NDT row validity: the ingest gate quarantines and :func:`clean_ndt` drops by it."""
    return [
        positive(Cols.TPUT),
        positive(Cols.MIN_RTT),
        in_range(Cols.LOSS_RATE, 0.0, 1.0),
        _in_study_windows(),
        unique(Cols.TEST_ID),
    ]


def trace_rules() -> List[Rule]:
    """Trace row validity, shared like :func:`ndt_rules`.

    Truncated scamper output leaves ``n_hops`` stale against its hop list.
    """
    return [
        Rule("n_hops:!=len(path)", (Cols.N_HOPS, Cols.PATH), _hop_count_mismatch),
        non_empty(Cols.PATH),
        non_empty(Cols.AS_PATH),
        _in_study_windows(),
        unique(Cols.TEST_ID),
    ]


def _drop_invalid(table: Table, rules: List[Rule], where: str, what: str) -> Table:
    """``table`` without the rows breaking any rule; itself when all pass."""
    require_columns(
        table, list(dict.fromkeys(c for rule in rules for c in rule.columns)), where
    )
    bad = np.zeros(table.n_rows, dtype=bool)
    for rule in rules:
        bad |= rule.bad_mask(table)
    if not bad.any():
        return table
    out = table.filter(~bad)
    if out.n_rows == 0:
        raise AnalysisError(f"{where}: no usable {what}")
    return out


def clean_ndt(ndt: Table, where: str = "analysis") -> Table:
    """Drop NDT rows no analysis can use; raise AnalysisError if none remain.

    Real extracts carry NULL/negative metrics and clock-skewed timestamps.
    Every analysis entry point funnels its input through this guard so dirty
    rows are dropped up front — never propagated as silent NaN and never
    crashed on with an untyped IndexError/KeyError.  Clean tables come back
    as the same object, so results on clean data are unchanged by the guard.
    """
    return _drop_invalid(ndt, ndt_rules(), where, "NDT rows after dropping dirty data")


def clean_traces(traces: Table, where: str = "analysis") -> Table:
    """Drop truncated/impossible trace rows (:func:`trace_rules`), as :func:`clean_ndt`."""
    return _drop_invalid(
        traces, trace_rules(), where, "traceroute rows after cleaning"
    )


def period_predicate(period_name: str):
    """The day-window predicate of one named study period.

    Shared by the eager :func:`slice_period` and the lazy analysis chains,
    so both paths filter on structurally identical expressions (which is
    also what lets the plan cache recognize repeated period slices).
    """
    periods = study_periods()
    if period_name not in periods:
        raise AnalysisError(
            f"unknown period {period_name!r}; choose from {sorted(periods)}"
        )
    p: Period = periods[period_name]
    return col("day").between(p.start.ordinal, p.end.ordinal)


def year_predicate(year: int):
    """Predicate selecting one calendar year (column ``year``)."""
    return col("year") == year


def slice_period(table: Table, period_name: str) -> Table:
    """Rows of a table (NDT or traceroute) within one named study window."""
    return table.filter(period_predicate(period_name))


def slice_year(table: Table, year: int) -> Table:
    """Rows belonging to one calendar year (column ``year``)."""
    return table.filter(year_predicate(year))


def with_periods(table: Table) -> Table:
    """Add a ``period`` column naming the study window of each row."""
    periods = study_periods()
    days = table.column("day").values
    pool = sorted(periods)
    code_of = {name: i for i, name in enumerate(pool)}
    codes = np.full(len(days), -1, dtype=np.int32)
    for name, p in periods.items():
        mask = (days >= p.start.ordinal) & (days <= p.end.ordinal)
        codes[mask] = code_of[name]
    if (codes < 0).any():
        raise AnalysisError("some rows fall outside every study period")
    period_col = Column.from_codes(
        Cols.PERIOD, codes, np.array(pool, dtype=object)
    )
    return table.with_column(Cols.PERIOD, period_col)


def client_as_column(ndt: Table, iplayer: IpLayer) -> Table:
    """Attribute each test to its client's AS via IP→AS longest-prefix match.

    This is the paper's routeviews-style attribution — the analysis derives
    the AS from the address, it does not trust generator metadata.
    """

    def asn_of(ip_text: Optional[str]) -> int:
        asn = None if ip_text is None else iplayer.as_of_ip(IPv4Address.parse(ip_text))
        return -1 if asn is None else asn

    # longest-prefix match once per distinct client IP (Column.map)
    out = ndt.with_column(
        Cols.CLIENT_ASN, ndt.column(Cols.CLIENT_IP).map(asn_of, DType.INT)
    )
    record_table_memory("analysis.ndt_with_asn", out)
    return out
