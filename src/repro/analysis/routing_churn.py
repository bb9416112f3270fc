"""Control-plane churn analysis (extension): what a BGP collector would see.

The paper's Section 5 infers routing change from traceroutes.  RIPE-style
collectors see it directly as update volume.  This module diffs the
generator's route log day over day and compares daily route-change counts
prewar vs wartime — the expectation, if the paper's rerouting story is
right, is a clear wartime churn increase over a flat prewar level.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.synth.generator import Dataset
from repro.tables.schema import Cols, DType
from repro.tables.table import Table
from repro.topology.rib import compute_churn
from repro.util.timeutil import Day

__all__ = ["daily_route_churn"]


def daily_route_churn(dataset: Dataset) -> Table:
    """Daily route-change counts across all (eyeball, site) pairs in 2022.

    A day-over-day diff of :meth:`Dataset.route_log`, the routes the
    generator's own router had in effect, so the control-plane view and the
    traceroute view come from one routing run.  Output columns: ``date``,
    ``day``, ``changes``, ``withdrawals``.
    """
    log = dataset.route_log()
    days, day_index = np.unique(log[Cols.DAY].values, return_inverse=True)
    pairs = np.stack([log[Cols.ASN].values, log[Cols.SITE].codes], axis=1)
    pair_keys, pair_index = np.unique(pairs, axis=0, return_inverse=True)
    # A null as_path is code -1: the pair had no route that day.
    routes = np.full((len(days), len(pair_keys)), -1, dtype=np.int64)
    routes[day_index, pair_index.ravel()] = log[Cols.AS_PATH].codes
    changes, withdrawals = compute_churn(routes)
    return Table.from_dict(
        {
            "date": [Day(int(d)).iso() for d in days[1:]],
            "day": days[1:],
            "changes": changes,
            "withdrawals": withdrawals,
        },
        dtypes={
            "date": DType.STR,
            "day": DType.INT,
            "changes": DType.INT,
            "withdrawals": DType.INT,
        },
    )


def churn_summary(churn_table: Table, dataset: Dataset) -> Dict[str, float]:
    """Mean daily changes prewar vs wartime (+ the ratio)."""
    invasion = dataset.periods["wartime"].start.ordinal
    days = np.asarray(churn_table.column("day").to_list())
    changes = np.asarray(churn_table.column("changes").to_list(), dtype=np.float64)
    pre = changes[days < invasion]
    war = changes[days >= invasion]
    pre_mean = float(pre.mean()) if len(pre) else float("nan")
    war_mean = float(war.mean()) if len(war) else float("nan")
    return {
        "prewar_daily_changes": pre_mean,
        "wartime_daily_changes": war_mean,
        "ratio": war_mean / pre_mean if pre_mean > 0 else float("inf"),
    }
