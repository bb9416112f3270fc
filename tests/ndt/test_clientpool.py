"""Tests for the heavy-tailed client pool."""

import numpy as np
import pytest

from repro.ndt import ClientPool
from repro.topology import build_default_topology
from repro.util.errors import TopologyError


@pytest.fixture(scope="module")
def topo():
    return build_default_topology()


class TestSampling:
    def test_samples_within_as_city_blocks(self, topo):
        pool = ClientPool(topo.iplayer)
        rng = np.random.default_rng(0)
        blocks = topo.iplayer.blocks_for(15895, "Kyiv")
        for _ in range(50):
            ip = pool.sample(15895, "Kyiv", rng)
            assert any(b.contains(ip) for b in blocks)
            assert topo.iplayer.as_of_ip(ip) == 15895

    def test_heavy_tail(self, topo):
        pool = ClientPool(topo.iplayer, pool_size=200, zipf_a=1.2)
        rng = np.random.default_rng(1)
        counts = {}
        for _ in range(3000):
            ip = pool.sample(15895, "Kyiv", rng)
            counts[ip.value] = counts.get(ip.value, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        # The busiest client carries far more than a uniform share.
        assert ordered[0] > 3000 / 200 * 10

    def test_top_client_is_most_sampled(self, topo):
        pool = ClientPool(topo.iplayer, pool_size=100, zipf_a=1.3)
        rng = np.random.default_rng(2)
        counts = {}
        for _ in range(2000):
            ip = pool.sample(15895, "Kyiv", rng)
            counts[ip] = counts.get(ip, 0) + 1
        busiest = max(counts, key=counts.get)
        assert busiest == pool.top_client(15895, "Kyiv")

    def test_pool_size_respected(self, topo):
        pool = ClientPool(topo.iplayer, pool_size=50)
        assert pool.pool_size(15895, "Kyiv") == 50

    def test_pool_capped_by_block_space(self, topo):
        pool = ClientPool(topo.iplayer, pool_size=10**6)
        size = pool.pool_size(6876, "Odessa")
        n_addrs = sum(
            b.n_addresses - 2 for b in topo.iplayer.blocks_for(6876, "Odessa")
        )
        assert size == n_addrs

    def test_deterministic(self, topo):
        a = ClientPool(topo.iplayer)
        b = ClientPool(topo.iplayer)
        ra, rb = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            assert a.sample(21497, "Lviv", ra) == b.sample(21497, "Lviv", rb)

    def test_same_draws_as_weighted_choice(self, topo):
        """Each draw is the index ``choice(p=...)`` picks, from one ``random()``."""
        pool = ClientPool(topo.iplayer, pool_size=300, zipf_a=1.2)
        addresses = pool._pool(15895, "Kyiv")[0]
        weights = np.arange(1, len(addresses) + 1, dtype=np.float64) ** -1.2
        probs = weights / weights.sum()
        ra, rb = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(2000):
            expected = addresses[int(rb.choice(len(addresses), p=probs))]
            assert pool.sample(15895, "Kyiv", ra) == expected
        assert ra.random() == rb.random()

    def test_unserved_pair_rejected(self, topo):
        pool = ClientPool(topo.iplayer)
        rng = np.random.default_rng(0)
        with pytest.raises(TopologyError):
            pool.sample(6876, "Kyiv", rng)  # TeNeT serves only Odessa

    def test_invalid_params(self, topo):
        with pytest.raises(ValueError):
            ClientPool(topo.iplayer, pool_size=0)
        with pytest.raises(ValueError):
            ClientPool(topo.iplayer, zipf_a=0.0)
