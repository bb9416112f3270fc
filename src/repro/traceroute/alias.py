"""Router alias resolution (the paper's cited future-work direction).

The paper notes its IP-level path identity is imperfect and points to
"additional work on router alias resolution" [Keys 2008] as a way to get
more precise path counts: one physical router exposes several interface
addresses, so two IP-level paths may be the same router-level path.

This module implements an offline, Ally-style resolver adapted to what a
traceroute dataset can support:

* interfaces of one AS whose addresses fall in the same small subnet
  (default /27) are candidate aliases (routers number their interfaces
  from one block);
* candidates are only merged when they are *positionally consistent* —
  they appear at the same (previous-AS, next-AS) adjacency across traces —
  mirroring how Ally validates candidates before merging.

``resolve`` returns an :class:`AliasMap`; ``router_level_path`` rewrites a
traceroute's path identity under that map, and
``repro.analysis.paths.path_count_table`` accepts the rewritten table, so
Table 2 can be recomputed at router granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.netbase.ipaddr import IPv4Address
from repro.tables import kernels
from repro.tables.schema import DType
from repro.tables.table import Table
from repro.traceroute.pathrecord import join, parse_as_path, parse_hops
from repro.util.errors import AnalysisError

__all__ = ["AliasMap", "resolve_aliases", "router_level_paths"]


@dataclass
class AliasMap:
    """Interface address → canonical router identifier."""

    #: interface ip value -> router id (lowest member address value)
    _canon: Dict[int, int] = field(default_factory=dict)

    def router_of(self, addr_value: int) -> int:
        """Canonical router for an interface (itself when unmerged)."""
        return self._canon.get(addr_value, addr_value)

    def n_merged_interfaces(self) -> int:
        return sum(1 for k, v in self._canon.items() if k != v)

    def n_routers(self) -> int:
        return len(set(self._canon.values()))

    def aliases_of(self, addr_value: int) -> List[int]:
        """All interfaces sharing this interface's router."""
        router = self.router_of(addr_value)
        members = [k for k, v in self._canon.items() if v == router]
        return sorted(members) if members else [addr_value]


def resolve_aliases(
    traces: Table,
    subnet_bits: int = 27,
    min_sightings: int = 2,
) -> AliasMap:
    """Infer alias groups from a traceroute table.

    Parameters
    ----------
    subnet_bits:
        Interfaces agreeing on their first ``subnet_bits`` bits are
        candidate aliases.
    min_sightings:
        An interface must appear at least this often to participate
        (one-off sightings carry too little positional evidence).
    """
    if not 8 <= subnet_bits <= 30:
        raise AnalysisError(f"subnet_bits must be in [8, 30], got {subnet_bits}")
    if traces.n_rows == 0:
        raise AnalysisError("empty traceroute table")

    # Walk the distinct (path, as_path) pairs in first-appearance order,
    # each weighted by its test count: the sightings, in the same order, of
    # a walk over every row, with each distinct hop string parsed once.
    path_col = traces.column("path")
    as_col = traces.column("as_path")
    fact = kernels.factorize([path_col, as_col])
    tests = np.bincount(fact.gids, minlength=fact.n_groups)
    sightings: Dict[int, int] = {}
    contexts: Dict[int, set] = {}
    memo: Dict[str, int] = {}
    for g in np.argsort(fact.first_idx):
        first = int(fact.first_idx[g])
        hops = parse_hops(path_col[first], memo)
        asns = parse_as_path(as_col[first])
        # Align a coarse AS context: first AS before, last AS after.  For
        # alias purposes the flanking ASNs of the whole path suffice as a
        # consistency key when per-hop ASNs are not materialized.
        if len(hops) < 3 or len(asns) < 2:
            continue
        for hop in hops[1:-1]:
            sightings[hop] = sightings.get(hop, 0) + int(tests[g])
            contexts.setdefault(hop, set()).add((asns[0], asns[-1]))

    mask = ((1 << subnet_bits) - 1) << (32 - subnet_bits)
    by_subnet: Dict[int, List[int]] = {}
    for hop, count in sightings.items():
        if count >= min_sightings:
            by_subnet.setdefault(hop & mask, []).append(hop)

    amap = AliasMap()
    for members in by_subnet.values():
        if len(members) < 2:
            canon = members[0]
            amap._canon[canon] = canon
            continue
        # Positional consistency: merge only members sharing a context.
        members.sort()
        groups: List[List[int]] = []
        for hop in members:
            placed = False
            for group in groups:
                if contexts[hop] & contexts[group[0]]:
                    group.append(hop)
                    placed = True
                    break
            if not placed:
                groups.append([hop])
        for group in groups:
            canon = min(group)
            for hop in group:
                amap._canon[hop] = canon
    return amap


def router_level_paths(traces: Table, amap: Optional[AliasMap] = None) -> Table:
    """Rewrite each trace's ``path`` to router-level identity.

    With ``amap=None`` aliases are resolved from ``traces`` first.  Returns
    a table identical to the input except the ``path`` column holds
    canonicalized hop sequences (consecutive same-router hops collapsed).
    """
    if amap is None:
        amap = resolve_aliases(traces)
    memo: Dict[str, int] = {}

    def router_path(text: str) -> str:
        canon: List[int] = []
        for hop in parse_hops(text, memo):
            router = amap.router_of(hop)
            if not canon or canon[-1] != router:
                canon.append(router)
        return join(IPv4Address(h).dotted() for h in canon)

    # one rewrite per distinct path, broadcast through the dictionary codes
    return traces.with_column("path", traces.column("path").map(router_path, DType.STR))
