"""The scamper sidecar: hop-level traceroute generation over a chosen route.

Given the AS path a test's packets took (client→server, as selected by the
route selector), the sidecar emits the server→client traceroute M-Lab would
record.

Within each AS, the router interface that appears is a deterministic
function of the adjacency and a *routing epoch*: internal routing (IGP
state, load-balancer hashing) is stable for stretches of days, then
reshuffles.  Consecutive tests of one connection therefore observe a small
family of IP paths — two to four over a 54-day window — matching Table 2's
prewar paths-per-connection, rather than the combinatorial explosion a
per-test ECMP coin-flip would produce.  Shorter epochs model churnier
periods (the paper's early-2022 baseline elevation); wartime AS-level
reroutes multiply the family further.  A small per-test jitter adds the
occasional one-off variant.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netbase.hostnames import ROUTER_CITY_BAND
from repro.netbase.ipaddr import IPv4Address
from repro.topology.builder import Topology
from repro.traceroute.pathrecord import TracerouteRecord

__all__ = ["ScamperSidecar"]

#: Router interfaces an AS exposes (indices into its infrastructure /16).
_ROUTERS_PER_AS = 512


def _stable_index(parts: Tuple[int, ...], modulus: int) -> int:
    """A process-stable hash of integers onto [0, modulus)."""
    data = ",".join(str(p) for p in parts).encode("ascii")
    digest = hashlib.blake2s(data, digest_size=4).digest()
    return int.from_bytes(digest, "little") % modulus


class ScamperSidecar:
    """Generates traceroute records for NDT tests.

    Parameters
    ----------
    epoch_days:
        How long an AS's internal routing stays stable before reshuffling.
        Smaller values produce more IP-level path churn per window.
    ecmp_slots:
        Size of each adjacency's router group (variants per epoch change).
    jitter:
        Per-test probability that a single hop shows an off-epoch router.
    """

    def __init__(
        self,
        topology: Topology,
        epoch_days: int = 90,
        ecmp_slots: int = 4,
        jitter: float = 0.01,
    ):
        if epoch_days < 1:
            raise ValueError(f"epoch_days must be >= 1, got {epoch_days}")
        if ecmp_slots < 1:
            raise ValueError(f"ecmp_slots must be >= 1, got {ecmp_slots}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self._topology = topology
        self._epoch_days = epoch_days
        self._ecmp_slots = ecmp_slots
        self._jitter = jitter
        # Hop identities are hashes of their keys alone: resolve each once.
        self._offsets: Dict[Tuple[int, int, int], int] = {}
        self._routers: Dict[Tuple[int, int, int, int], IPv4Address] = {}
        self._gateways: Dict[Tuple[int, Optional[str], int], IPv4Address] = {}
        # Client address value -> ground-truth city, for this sidecar's life
        # (one generated year).  Not kept on the IP layer, where
        # ``allocate_client_block`` can still add a block that would make a
        # stored None stale.
        self._client_cities: Dict[int, Optional[str]] = {}

    def _epoch(self, asn: int, prev_asn: int, next_asn: int, day_ordinal: int) -> int:
        """The adjacency's routing epoch on a day.

        Offsets are per (AS, adjacency), not per AS: internal routing
        changes affect different next-hops at different times, so epoch
        flips spread out instead of every path through one AS changing on
        the same day (which would make path churn systematically uneven
        across analysis windows).
        """
        key = (asn, prev_asn, next_asn)
        offset = self._offsets.get(key)
        if offset is None:
            offset = _stable_index(key + (7919,), self._epoch_days)
            self._offsets[key] = offset
        return (day_ordinal + offset) // self._epoch_days

    def _router_for(
        self, asn: int, prev_asn: int, next_asn: int, slot: int
    ) -> IPv4Address:
        """The router interface AS ``asn`` shows for this adjacency and slot."""
        key = (asn, prev_asn, next_asn, slot)
        router = self._routers.get(key)
        if router is None:
            index = _stable_index(key, _ROUTERS_PER_AS)
            router = self._routers[key] = self._topology.iplayer.router_ip(asn, index)
        return router

    def _gateway(self, client_asn: int, client_city: Optional[str], slot: int) -> IPv4Address:
        """The last-mile gateway a client of ``client_asn`` in a city sits behind.

        Gateways are metro-local: their router index comes from the client
        city's band, so rDNS hostname analysis can geolocate them.
        """
        key = (client_asn, client_city, slot)
        gateway = self._gateways.get(key)
        if gateway is None:
            cities = self._topology.cities_of(client_asn) if client_city else []
            if client_city in cities:
                base = cities.index(client_city) * ROUTER_CITY_BAND
                offset = _stable_index(
                    (client_asn, len(cities), cities.index(client_city), slot),
                    ROUTER_CITY_BAND,
                )
                gateway = self._topology.iplayer.router_ip(client_asn, base + offset)
            else:
                gateway = self._router_for(client_asn, client_asn, -1, slot)
            self._gateways[key] = gateway
        return gateway

    def trace(
        self,
        test_id: int,
        client_ip: IPv4Address,
        server_ip: IPv4Address,
        as_path_client_to_server: Tuple[int, ...],
        day_ordinal: int,
        rng: np.random.Generator,
    ) -> TracerouteRecord:
        """Produce the server→client traceroute for one test.

        ``as_path_client_to_server`` is the AS sequence the route selector
        picked, client AS first.  The client AS contributes two router hops
        (its core and the client's last-mile gateway); every other AS
        contributes one.
        """
        if len(as_path_client_to_server) < 2:
            raise ValueError("AS path must span at least client and server ASes")
        path = tuple(reversed(as_path_client_to_server))  # server -> client

        jitter_hop = -1
        if self._jitter > 0 and rng.random() < self._jitter:
            jitter_hop = int(rng.integers(1, len(path) + 1))

        def slot_for(asn: int, prev_asn: int, next_asn: int, hop_index: int) -> int:
            slot = (
                self._epoch(asn, prev_asn, next_asn, day_ordinal)
                % self._ecmp_slots
            )
            if hop_index == jitter_hop:
                slot = (slot + 1) % self._ecmp_slots
            return slot

        hop_ips: List[IPv4Address] = [server_ip]
        hop_asns: List[int] = [path[0]]
        for i in range(1, len(path)):
            asn = path[i]
            prev_asn = path[i - 1]
            next_asn = path[i + 1] if i + 1 < len(path) else 0
            hop_ips.append(
                self._router_for(
                    asn, prev_asn, next_asn, slot_for(asn, prev_asn, next_asn, i)
                )
            )
            hop_asns.append(asn)
        # The client AS also shows the last-mile gateway before the client.
        client_asn = path[-1]
        gateway_slot = slot_for(client_asn, client_asn, -1, len(path))
        if client_ip.value in self._client_cities:
            client_city = self._client_cities[client_ip.value]
        else:
            client_city = self._client_cities[client_ip.value] = (
                self._topology.iplayer.city_of_client_ip(client_ip)
            )
        hop_ips.append(self._gateway(client_asn, client_city, gateway_slot))
        hop_asns.append(client_asn)
        hop_ips.append(client_ip)
        hop_asns.append(client_asn)
        return TracerouteRecord(
            test_id=test_id,
            client_ip=client_ip,
            server_ip=server_ip,
            hop_ips=tuple(hop_ips),
            hop_asns=tuple(hop_asns),
        )
