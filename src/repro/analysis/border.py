"""Figure 5: how traffic enters Ukraine, prewar vs wartime.

For every 2022 traceroute, the first adjacency whose left AS is foreign and
right AS is Ukrainian is the *border crossing*.  Counting tests per
(border AS, Ukrainian AS) pair in each period and differencing produces the
paper's heatmap — where the shift toward Hurricane Electric and away from
Cogent shows up.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.common import clean_traces, slice_period
from repro.netbase.asn import ASRegistry
from repro.tables.schema import DType
from repro.tables.table import Table
from repro.traceroute.pathrecord import border_crossing, parse_as_path
from repro.util.errors import AnalysisError

__all__ = ["border_crossing_counts", "border_shift_matrix", "border_totals"]


def border_crossing_counts(traces: Table, registry: ASRegistry) -> Table:
    """Tests per (border AS, Ukrainian AS) pair, prewar vs wartime.

    Output columns: ``border_asn``, ``border_name``, ``ua_asn``,
    ``ua_name``, ``prewar``, ``wartime``, ``delta``.
    """
    traces = clean_traces(traces, "border_crossing_counts")
    counts: Dict[Tuple[int, int], Dict[str, int]] = {}
    for period in ("prewar", "wartime"):
        # Crossings depend only on the AS path: count tests per distinct
        # path over the dictionary codes, resolve each pool entry once.
        as_col = slice_period(traces, period).column("as_path")
        codes = as_col.codes
        per_path = np.bincount(codes[codes >= 0], minlength=len(as_col.pool))
        for ci in np.nonzero(per_path)[0]:
            crossing = border_crossing(parse_as_path(as_col.pool[ci]), registry)
            if crossing is not None:
                entry = counts.setdefault(crossing, {"prewar": 0, "wartime": 0})
                entry[period] += int(per_path[ci])
    if not counts:
        raise AnalysisError("no border crossings found in the traces")
    rows = []
    for (border, ua), entry in sorted(counts.items()):
        rows.append(
            {
                "border_asn": border,
                "border_name": registry.name_of(border),
                "ua_asn": ua,
                "ua_name": registry.name_of(ua),
                "prewar": entry["prewar"],
                "wartime": entry["wartime"],
                "delta": entry["wartime"] - entry["prewar"],
            }
        )
    return Table.from_rows(
        rows,
        dtypes={
            "border_asn": DType.INT,
            "border_name": DType.STR,
            "ua_asn": DType.INT,
            "ua_name": DType.STR,
            "prewar": DType.INT,
            "wartime": DType.INT,
            "delta": DType.INT,
        },
    )


def border_shift_matrix(
    crossing_counts: Table,
) -> Tuple[List[str], List[str], List[List[float]], List[List[bool]]]:
    """Figure 5's heatmap ingredients.

    Returns ``(border_labels, ua_labels, delta_matrix, absent_mask)`` where
    ``absent_mask`` marks pairs with no route in either period (the paper's
    black squares).
    """
    borders = sorted(set(crossing_counts.column("border_asn").to_list()))
    uas = sorted(set(crossing_counts.column("ua_asn").to_list()))
    b_index = {b: i for i, b in enumerate(borders)}
    u_index = {u: j for j, u in enumerate(uas)}
    delta = [[0.0 for _ in uas] for _ in borders]
    present = [[False for _ in uas] for _ in borders]
    names_b = {}
    names_u = {}
    for b_asn, b_name, u_asn, u_name, pre, war, d in zip(
        crossing_counts.column("border_asn").to_list(),
        crossing_counts.column("border_name").to_list(),
        crossing_counts.column("ua_asn").to_list(),
        crossing_counts.column("ua_name").to_list(),
        crossing_counts.column("prewar").to_list(),
        crossing_counts.column("wartime").to_list(),
        crossing_counts.column("delta").to_list(),
    ):
        i, j = b_index[b_asn], u_index[u_asn]
        delta[i][j] = float(d)
        present[i][j] = pre + war > 0
        names_b[b_asn] = b_name
        names_u[u_asn] = u_name
    border_labels = [f"{names_b[b]} ({b})" for b in borders]
    ua_labels = [f"{names_u[u]} ({u})" for u in uas]
    absent = [[not cell for cell in row] for row in present]
    return border_labels, ua_labels, delta, absent


def border_totals(crossing_counts: Table) -> Table:
    """Net change per border AS (who gained, who lost) — Figure 5's summary."""
    return (
        crossing_counts.group_by(["border_asn", "border_name"])
        .aggregate(
            {
                "prewar": ("prewar", "sum"),
                "wartime": ("wartime", "sum"),
                "delta": ("delta", "sum"),
            }
        )
        .sort_by("delta", descending=True)
    )
