"""Hostname-based geolocation cross-check (extension).

The paper leans on MaxMind's self-reported >68% city-level accuracy and
argues mislabels would only *weaken* its findings.  A classic independent
check is rDNS parsing (undns/DRoP): the last-mile gateway's hostname
usually names the metro it serves.  This module resolves each test's
gateway hop to a hostname-derived city and measures agreement with the
geo-DB label — quantifying the label noise the paper could only bound.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.analysis.common import clean_ndt, clean_traces
from repro.netbase.hostnames import HostnameScheme
from repro.netbase.ipaddr import IPv4Address
from repro.synth.generator import Dataset
from repro.tables import kernels
from repro.tables.join import join
from repro.tables.table import Table
from repro.traceroute.pathrecord import parse_hops, split
from repro.util.errors import AnalysisError, DataError

__all__ = ["default_hostname_scheme", "gateway_city_agreement"]


def default_hostname_scheme(dataset: Dataset, **kwargs) -> HostnameScheme:
    """A scheme over the dataset's topology (eyeballs get their coverage)."""
    topo = dataset.topology
    cities_of_asn = {
        asn: topo.cities_of(asn) for asn in topo.eyeball_asns()
    }
    return HostnameScheme(topo.registry, cities_of_asn, **kwargs)


def _gateway_router_index(
    dataset: Dataset, path_text: str, client_asn: int, memo: Dict[str, int]
) -> Optional[int]:
    """The router index of the gateway hop (second-to-last hop of the trace)."""
    hops = split(path_text)
    if len(hops) < 3:
        return None
    try:
        (value,) = parse_hops(hops[-2], memo)
    except DataError:
        return None  # unparsable hop — treat as no usable hostname signal
    gateway = IPv4Address(value)
    iplayer = dataset.topology.iplayer
    if iplayer.as_of_ip(gateway) != client_asn:
        return None
    prefix = iplayer.infrastructure_prefix(client_asn)
    if not prefix.contains(gateway):
        return None
    return gateway.value - prefix.network.value - 1


def gateway_city_agreement(
    dataset: Dataset, scheme: Optional[HostnameScheme] = None
) -> Dict[str, float]:
    """Compare geo-DB city labels against gateway-hostname cities.

    Returns counts/fractions over all tests: ``n_compared`` (both signals
    available), ``agree`` fraction, ``geo_missing`` fraction (no geo-DB
    label), ``ptr_missing`` fraction (no usable hostname).
    """
    if scheme is None:
        scheme = default_hostname_scheme(dataset)
    ndt = clean_ndt(dataset.ndt, "gateway_city_agreement")
    traces = clean_traces(dataset.traces, "gateway_city_agreement")
    merged = join(
        ndt.select(["test_id", "city", "asn"]),
        traces.select(["test_id", "path"]),
        on="test_id",
    )
    if merged.n_rows == 0:
        raise AnalysisError("no joined tests")
    n = merged.n_rows
    cities = merged.column("city").values
    asns = merged.column("asn").values
    paths = merged.column("path").values
    # The hostname city depends only on (path, asn): resolve it once per
    # distinct pair and broadcast to rows through the group ids.
    fact = kernels.factorize([merged.column("path"), merged.column("asn")])
    group_city = np.empty(fact.n_groups, dtype=object)
    hop_memo: Dict[str, int] = {}
    for g in range(fact.n_groups):
        i = int(fact.first_idx[g])
        index = _gateway_router_index(dataset, paths[i], int(asns[i]), hop_memo)
        if index is not None:
            group_city[g] = scheme.parse_city(scheme.hostname(int(asns[i]), index))
    hostname_cities = group_city[fact.gids]
    ptr_null = np.fromiter(
        (c is None for c in group_city), dtype=bool, count=fact.n_groups
    )[fact.gids]
    geo_null = merged.column("city").isnull()
    both = ~ptr_null & ~geo_null
    ptr_missing = int(ptr_null.sum())
    geo_missing = int(geo_null.sum())
    compared = int(both.sum())
    agreed = int(np.sum(hostname_cities[both] == cities[both]))
    if compared == 0:
        raise AnalysisError("no test had both a geo label and a usable hostname")
    return {
        "n_tests": float(n),
        "n_compared": float(compared),
        "agree": agreed / compared,
        "geo_missing": geo_missing / n,
        "ptr_missing": ptr_missing / n,
    }
