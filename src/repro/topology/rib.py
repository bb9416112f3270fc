"""Control-plane churn: day-over-day route changes, as a BGP collector logs them.

The paper observes routing only through the data plane (traceroutes).  A
BGP collector (RIPE RIS / RouteViews) would instead see *route updates*.
Given the route in effect for every pair on every day (the generator's
route log, :meth:`repro.synth.generator.Dataset.route_log`), the update
stream is the day-over-day diff this module computes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["compute_churn"]


def compute_churn(routes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Route changes and withdrawals per day, from a days x pairs route-id array.

    ``routes[d, p]`` identifies the route pair ``p`` uses on day ``d``
    (equal ids mean equal routes); a negative id means the pair has no
    route that day.  Entry ``i`` of each result compares day ``i + 1`` with
    day ``i``: ``changes`` counts the pairs whose route differs, and
    ``withdrawals`` those of them left with no route.
    """
    routes = np.asarray(routes)
    if routes.ndim != 2 or routes.shape[1] == 0:
        raise ValueError("need a days x pairs array with at least one pair")
    changed = routes[1:] != routes[:-1]
    changes = changed.sum(axis=1)
    withdrawals = (changed & (routes[1:] < 0)).sum(axis=1)
    return changes, withdrawals
