"""Tests for the geo load balancer."""

import numpy as np
import pytest

from repro.geo.distance import haversine_km
from repro.mlab import LoadBalancer, SiteRegistry
from repro.topology import build_default_topology


@pytest.fixture(scope="module")
def topo():
    return build_default_topology()


@pytest.fixture(scope="module")
def sites(topo):
    return SiteRegistry.from_topology(topo)


def make_lb(topo, sites, k=3):
    return LoadBalancer(sites, topo.gazetteer, k_nearest=k)


class TestNearest:
    def test_kyiv_nearest_is_warsaw(self, topo, sites):
        lb = make_lb(topo, sites)
        assert lb.nearest_site("Kyiv").code == "waw01"

    def test_odessa_nearest_is_bucharest(self, topo, sites):
        lb = make_lb(topo, sites)
        assert lb.nearest_site("Odessa").code == "buh01"

    def test_no_site_in_ukraine(self, topo, sites):
        # The paper relies on no NDT servers existing in Ukraine or Russia.
        lb = make_lb(topo, sites)
        for city in topo.gazetteer.city_names():
            assert lb.nearest_site(city).country != "UA"


class TestAssign:
    def test_sticky_per_client(self, topo, sites):
        lb = make_lb(topo, sites)
        rng = np.random.default_rng(0)
        first = lb.assign(12345, "Kyiv", rng)
        for _ in range(10):
            assert lb.assign(12345, "Kyiv", rng) is first

    def test_assignment_among_k_nearest(self, topo, sites):
        lb = make_lb(topo, sites, k=3)
        rng = np.random.default_rng(1)
        nearest_codes = {s.code for s in lb._city_choices("Kyiv")[0]}
        for client in range(200):
            site = lb.assign(client, "Kyiv", rng)
            assert site.code in nearest_codes

    def test_nearest_dominates(self, topo, sites):
        lb = make_lb(topo, sites, k=3)
        rng = np.random.default_rng(2)
        picks = [lb.assign(i, "Kyiv", rng).code for i in range(500)]
        nearest = lb.nearest_site("Kyiv").code
        assert picks.count(nearest) / len(picks) > 0.5

    def test_same_draws_as_weighted_choice(self, topo, sites):
        """A new client's site is the index ``choice(p=...)`` picks, from one
        ``random()``; a returning client draws nothing."""
        lb = make_lb(topo, sites)
        ranked = lb._city_choices("Kharkiv")[0]
        city = topo.gazetteer.city("Kharkiv")
        dists = np.array([haversine_km(city.lat, city.lon, s.lat, s.lon) for s in ranked])
        weights = 1.0 / np.maximum(dists, 1.0) ** 4
        probs = weights / weights.sum()
        ra, rb = np.random.default_rng(11), np.random.default_rng(11)
        picked = []
        for client in range(2000):
            expected = ranked[int(rb.choice(len(ranked), p=probs))]
            picked.append(lb.assign(client, "Kharkiv", ra))
            assert picked[-1] is expected
        assert len({site.code for site in picked}) > 1
        for client in range(2000):
            assert lb.assign(client, "Kharkiv", ra) is picked[client]
        assert ra.random() == rb.random()

    def test_n_assigned_clients(self, topo, sites):
        lb = make_lb(topo, sites)
        rng = np.random.default_rng(3)
        for i in range(5):
            lb.assign(i, "Lviv", rng)
        lb.assign(0, "Lviv", rng)  # repeat
        assert lb.n_assigned_clients() == 5

    def test_k_capped_at_site_count(self, topo, sites):
        lb = LoadBalancer(sites, topo.gazetteer, k_nearest=99)
        rng = np.random.default_rng(4)
        assert lb.assign(1, "Kyiv", rng) is not None

    def test_invalid_k(self, topo, sites):
        with pytest.raises(ValueError):
            LoadBalancer(sites, topo.gazetteer, k_nearest=0)

    def test_deterministic_with_seed(self, topo, sites):
        a = make_lb(topo, sites)
        b = make_lb(topo, sites)
        ra, rb = np.random.default_rng(7), np.random.default_rng(7)
        for client in range(50):
            assert a.assign(client, "Kharkiv", ra).asn == b.assign(client, "Kharkiv", rb).asn
