"""The geo load balancer directing clients to their nearest M-Lab site.

M-Lab's locate service sends a client to the geographically nearest site;
in practice assignment is slightly spread across the few nearest sites
(capacity, anycast wobble).  The balancer therefore weights the ``k``
nearest sites by inverse distance, but an individual *client* is sticky:
its site is chosen once and reused, which is what makes (client, server)
connections long-lived enough for the paper's Table-2 path analysis.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.geo.distance import haversine_km
from repro.geo.gazetteer import Gazetteer
from repro.mlab.sites import Site, SiteRegistry
from repro.util.rng import choice_cdf

__all__ = ["LoadBalancer"]


class LoadBalancer:
    """Sticky, distance-weighted site assignment for clients."""

    def __init__(
        self,
        sites: SiteRegistry,
        gazetteer: Gazetteer,
        k_nearest: int = 3,
    ):
        if k_nearest < 1:
            raise ValueError(f"k_nearest must be >= 1, got {k_nearest}")
        self._sites = sites
        self._gazetteer = gazetteer
        self._k = min(k_nearest, len(sites))
        self._choices_by_city: Dict[str, Tuple[List[Site], np.ndarray]] = {}
        self._assignments: Dict[int, Site] = {}  # client ip value -> site

    def _city_choices(self, city_name: str) -> Tuple[List[Site], np.ndarray]:
        if city_name not in self._choices_by_city:
            city = self._gazetteer.city(city_name)
            ranked = sorted(
                self._sites.all(),
                key=lambda s: haversine_km(city.lat, city.lon, s.lat, s.lon),
            )[: self._k]
            dists = np.array(
                [haversine_km(city.lat, city.lon, s.lat, s.lon) for s in ranked]
            )
            # Steep distance decay: the nearest site takes most assignments,
            # as M-Lab's locate service does, with some spill to runners-up.
            weights = 1.0 / np.maximum(dists, 1.0) ** 4
            self._choices_by_city[city_name] = (
                ranked,
                choice_cdf(weights / weights.sum()),
            )
        return self._choices_by_city[city_name]

    def nearest_site(self, city_name: str) -> Site:
        """The single geographically nearest site to a city."""
        return self._city_choices(city_name)[0][0]

    def assign(
        self, client_ip_value: int, city_name: str, rng: np.random.Generator
    ) -> Site:
        """The site serving this client (stable across the client's tests).

        A new client's site is the index ``rng.choice(len(ranked), p=probs)``
        would pick, from the same one ``rng.random()`` draw.
        """
        site = self._assignments.get(client_ip_value)
        if site is None:
            ranked, cdf = self._city_choices(city_name)
            site = ranked[int(cdf.searchsorted(rng.random(), side="right"))]
            self._assignments[client_ip_value] = site
        return site

    def n_assigned_clients(self) -> int:
        return len(self._assignments)
