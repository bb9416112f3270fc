"""Figure 6: the AS 199995 case study.

Three foreign border ASes feed Ukrainian AS 199995.  The paper shows that
as one of them (AS 6663) degrades — its weekly median loss and RTT rise —
the share of tests entering through it collapses and Hurricane Electric
(AS 6939) takes over.  This module recomputes the three panels: weekly
inbound share per border AS, weekly median loss, and weekly median RTT of
the tests entering through each.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.common import clean_ndt, clean_traces
from repro.netbase.asn import ASRegistry
from repro.tables.expr import col
from repro.tables.join import join
from repro.tables.schema import Cols, DType
from repro.tables.table import Table
from repro.traceroute.pathrecord import parse_as_path
from repro.util.errors import AnalysisError
from repro.util.timeutil import Day

__all__ = ["inbound_weekly"]


def _entry_border(as_path: str, ua_asn: int, registry: ASRegistry) -> int:
    """The foreign AS immediately before ``ua_asn`` on the path, or -1."""
    path = parse_as_path(as_path)
    for left, right in zip(path, path[1:]):
        if right != ua_asn:
            continue
        left_as = registry.maybe_get(left)
        if left_as is not None and not left_as.is_ukrainian:
            return left
    return -1


def inbound_weekly(
    ndt: Table,
    traces: Table,
    registry: ASRegistry,
    ua_asn: int = 199995,
    year: int = 2022,
) -> Table:
    """Weekly inbound composition and performance for one Ukrainian AS.

    Output: one row per (ISO week, border AS) with columns ``week``
    (Monday's ISO date), ``border_asn``, ``border_name``, ``tests``,
    ``share`` (of that week's tests entering ``ua_asn``), ``median_loss``,
    ``median_rtt_ms``.
    """
    ndt = clean_ndt(ndt, "inbound_weekly")
    traces = clean_traces(traces, "inbound_weekly")
    merged = join(
        traces.select(["test_id", "as_path", "day", "year"]),
        ndt.select(["test_id", Cols.LOSS_RATE, Cols.MIN_RTT]),
        on="test_id",
    ).filter(col("year") == year)
    if merged.n_rows == 0:
        raise AnalysisError(f"no joined tests in {year}")

    # The entry border depends only on the AS path: resolve it once per
    # distinct path (Column.map), broadcast to rows through the codes.
    borders = merged.column("as_path").map(
        lambda text: _entry_border(text, ua_asn, registry), DType.INT
    ).values

    # Week starts once per distinct day.
    days = merged.column("day").values.astype(np.int64)
    uniq_days, day_inv = np.unique(days, return_inverse=True)
    monday_of = np.array(
        [Day(int(d)).week_start().ordinal for d in uniq_days], dtype=np.int64
    )
    mondays = monday_of[day_inv]

    keep = borders >= 0
    if not keep.any():
        raise AnalysisError(f"no tests enter AS{ua_asn} in {year}")
    borders = borders[keep]
    mondays = mondays[keep]
    loss = merged.column(Cols.LOSS_RATE).values[keep]
    rtt = merged.column(Cols.MIN_RTT).values[keep]

    # Group by (week, border AS): one stable lexsort, then run boundaries.
    order = np.lexsort((borders, mondays))
    m_sorted = mondays[order]
    b_sorted = borders[order]
    boundary = np.empty(len(order), dtype=bool)
    boundary[0] = True
    boundary[1:] = (m_sorted[1:] != m_sorted[:-1]) | (b_sorted[1:] != b_sorted[:-1])
    starts = np.nonzero(boundary)[0]
    ends = np.append(starts[1:], len(order))
    week_totals: Dict[int, int] = {}
    for s, e in zip(starts, ends):
        monday = int(m_sorted[s])
        week_totals[monday] = week_totals.get(monday, 0) + int(e - s)

    rows: List[dict] = []
    for s, e in zip(starts, ends):
        monday = int(m_sorted[s])
        border = int(b_sorted[s])
        n = int(e - s)
        seg = order[s:e]
        rows.append(
            {
                "week": Day(monday).iso(),
                "border_asn": border,
                "border_name": registry.name_of(border),
                "tests": n,
                "share": n / week_totals[monday],
                "median_loss": float(np.median(loss[seg])),
                "median_rtt_ms": float(np.median(rtt[seg])),
            }
        )
    return Table.from_rows(
        rows,
        dtypes={
            "week": DType.STR,
            "border_asn": DType.INT,
            "border_name": DType.STR,
            "tests": DType.INT,
            "share": DType.FLOAT,
            "median_loss": DType.FLOAT,
            "median_rtt_ms": DType.FLOAT,
        },
    )
