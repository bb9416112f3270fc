"""Heavy-tailed client populations behind each (AS, city) pair.

NDT test volume per client address is strongly skewed: most addresses test
once or twice, while a few (CGNAT gateways, habitual testers, integrations)
account for many tests.  That skew is what gives the paper's Table 2 its
top-1000 connections with large test counts.  Each (AS, city) pool draws
clients by Zipf-weighted rank over its block's addresses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.netbase.ipaddr import IPv4Address
from repro.topology.iplayer import IpLayer
from repro.util.errors import TopologyError
from repro.util.rng import choice_cdf
from repro.util.validation import check_positive

__all__ = ["ClientPool"]


class ClientPool:
    """Zipf-popularity client sampling over allocated client blocks."""

    def __init__(self, iplayer: IpLayer, pool_size: int = 300, zipf_a: float = 1.2):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        check_positive("zipf_a", zipf_a)
        self._iplayer = iplayer
        self._pool_size = pool_size
        self._zipf_a = zipf_a
        self._cache: Dict[Tuple[int, str], Tuple[List[IPv4Address], np.ndarray]] = {}

    def _pool(self, asn: int, city: str) -> Tuple[List[IPv4Address], np.ndarray]:
        key = (asn, city)
        if key not in self._cache:
            blocks = self._iplayer.blocks_for(asn, city)
            if not blocks:
                raise TopologyError(f"AS{asn} has no client blocks in {city!r}")
            # Interleave ranks across blocks (round-robin) so per-block
            # geo-DB label errors hit an even slice of every popularity
            # level, not the busiest clients all at once.
            addresses: List[IPv4Address] = []
            offsets = [0] * len(blocks)
            while len(addresses) < self._pool_size:
                progressed = False
                for b, block in enumerate(blocks):
                    if len(addresses) >= self._pool_size:
                        break
                    if offsets[b] < block.n_addresses - 2:
                        addresses.append(block.address_at(offsets[b] + 1))
                        offsets[b] += 1
                        progressed = True
                if not progressed:
                    break  # every block exhausted
            ranks = np.arange(1, len(addresses) + 1, dtype=np.float64)
            weights = ranks**-self._zipf_a
            self._cache[key] = (addresses, choice_cdf(weights / weights.sum()))
        return self._cache[key]

    def sample(self, asn: int, city: str, rng: np.random.Generator) -> IPv4Address:
        """Draw a client address for a test from this (AS, city) population.

        The same index, from the same one ``rng.random()`` draw, as
        ``rng.choice(len(addresses), p=probs)``.
        """
        addresses, cdf = self._pool(asn, city)
        return addresses[int(cdf.searchsorted(rng.random(), side="right"))]

    def pool_size(self, asn: int, city: str) -> int:
        return len(self._pool(asn, city)[0])

    def top_client(self, asn: int, city: str) -> IPv4Address:
        """The most popular client (rank 1) of a pool."""
        return self._pool(asn, city)[0][0]
