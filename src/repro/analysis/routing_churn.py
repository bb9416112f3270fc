"""Control-plane churn analysis (extension): what a BGP collector would see.

The paper's Section 5 infers routing change from traceroutes.  RIPE-style
collectors see it directly as update volume.  This module replays the
simulation's route selection over the study window and compares daily
route-change counts prewar vs wartime — the expectation, if the paper's
rerouting story is right, is a clear wartime churn increase over a flat
prewar level.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from repro.conflict.damage import LinkOutageSchedule
from repro.synth.generator import Dataset
from repro.tables.schema import DType
from repro.tables.table import Table
from repro.topology.bgp import RouteSelector, StickyRouter
from repro.topology.quality import LinkQualityModel
from repro.topology.rib import compute_churn
from repro.conflict.damage import EdgeDamageModel, LinkDamageProcess
from repro.util.rng import RngHub
from repro.util.timeutil import DayGrid

__all__ = ["daily_route_churn"]


def daily_route_churn(dataset: Dataset) -> Table:
    """Daily route-change counts across all (eyeball, site) pairs in 2022.

    Builds a routing stack of the same kind as the generator's -- same seed,
    same outage schedule, same degradation schedules -- and replays it day
    by day over every pair.  It is not the generator's stack: its fresh
    :class:`EdgeDamageModel` draws each (city, day) damage wobble the first
    time a route asks for it, while the generator draws them city by day
    when it averages wartime severity.  So link quality, and with it a
    route that quality decides, can differ from the route the generated
    tests took on the same day.  Output columns: ``date``, ``day``,
    ``changes``, ``withdrawals``.
    """
    topo = dataset.topology
    cfg = dataset.config
    hub = RngHub(cfg.seed)
    intensity = dataset.intensity
    edge = EdgeDamageModel(intensity, hub.stream("edge-damage"))
    reroute_on = cfg.war_enabled and cfg.rerouting_enabled
    quality = LinkQualityModel(
        edge if reroute_on else None,
        topo.degradation_schedules if reroute_on else [],
    )
    selector = RouteSelector(topo.graph, lambda link, day: quality.quality(link, day))
    router = StickyRouter(selector, seed=cfg.seed, epoch_days=cfg.bgp_epoch_days)

    wartime = dataset.periods["wartime"]
    war_grid = DayGrid(wartime.start, wartime.end)
    if reroute_on:
        outages = LinkDamageProcess(intensity).simulate(
            topo.war_sensitive_links(), war_grid, hub.stream("outages")
        )
    else:
        outages = LinkOutageSchedule(grid=war_grid, _states={})

    down_by_day: Dict[int, FrozenSet] = {}
    for day in war_grid.days():
        down_by_day[day.ordinal] = frozenset(
            key
            for key in topo.war_sensitive_links()
            if not outages.is_up(key, day)
        )

    pairs = [
        (eyeball, site)
        for eyeball in sorted(topo.eyeball_asns())
        for site in sorted(topo.mlab_sites)
    ]
    grid = DayGrid(dataset.periods["prewar"].start, wartime.end)
    churn = compute_churn(router, pairs, grid, down_by_day)
    days = grid.days()[1:]
    return Table.from_dict(
        {
            "date": [d.iso() for d in days],
            "day": [d.ordinal for d in days],
            "changes": churn.changes,
            "withdrawals": churn.withdrawals,
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
