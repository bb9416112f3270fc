"""Tests for deterministic RNG substreams."""

import numpy as np
import pytest

from repro.util import RngHub
from repro.util.rng import choice_cdf


def test_same_seed_same_stream():
    a = RngHub(42).stream("x").random(10)
    b = RngHub(42).stream("x").random(10)
    assert np.array_equal(a, b)


def test_different_names_independent():
    hub = RngHub(42)
    a = hub.stream("a").random(10)
    b = hub.stream("b").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngHub(1).stream("x").random(10)
    b = RngHub(2).stream("x").random(10)
    assert not np.array_equal(a, b)


def test_stream_is_cached_and_advances():
    hub = RngHub(0)
    s1 = hub.stream("x")
    s2 = hub.stream("x")
    assert s1 is s2
    first = s1.random()
    second = s2.random()
    assert first != second  # same stream advanced, not restarted


def test_fresh_restarts_stream():
    hub = RngHub(0)
    a = hub.fresh("x").random(5)
    b = hub.fresh("x").random(5)
    assert np.array_equal(a, b)


def test_fresh_matches_initial_stream_state():
    hub = RngHub(7)
    fresh_draw = hub.fresh("y").random(3)
    stream_draw = RngHub(7).stream("y").random(3)
    assert np.array_equal(fresh_draw, stream_draw)


def test_child_hub_independent_of_parent():
    hub = RngHub(5)
    child = hub.child("year2022")
    a = hub.stream("x").random(5)
    b = child.stream("x").random(5)
    assert not np.array_equal(a, b)


def test_child_hub_deterministic():
    a = RngHub(5).child("c").stream("x").random(4)
    b = RngHub(5).child("c").stream("x").random(4)
    assert np.array_equal(a, b)


def test_adding_stream_does_not_perturb_others():
    hub1 = RngHub(9)
    only = hub1.stream("metrics").random(8)

    hub2 = RngHub(9)
    hub2.stream("unrelated").random(100)  # extra draws on another stream
    with_other = hub2.stream("metrics").random(8)
    assert np.array_equal(only, with_other)


def test_seed_property():
    assert RngHub(123).seed == 123


@pytest.mark.parametrize("bad", ["notanint", 1.5, None])
def test_non_int_seed_rejected(bad):
    with pytest.raises(TypeError):
        RngHub(bad)


def test_empty_stream_name_rejected():
    hub = RngHub(0)
    with pytest.raises(ValueError):
        hub.stream("")
    with pytest.raises(ValueError):
        hub.fresh("")


def test_repr_lists_streams():
    hub = RngHub(3)
    hub.stream("b")
    hub.stream("a")
    assert "['a', 'b']" in repr(hub)


@pytest.mark.parametrize(
    "weights",
    [[1.0], [3.0, 1.0], [0.0, 2.0, 0.0, 5.0], list(np.arange(1, 301) ** -1.2)],
)
def test_choice_cdf_searches_to_the_index_choice_picks(weights):
    probs = np.asarray(weights) / np.sum(weights)
    cdf = choice_cdf(probs)
    ra, rb = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(500):
        got = int(cdf.searchsorted(ra.random(), side="right"))
        assert got == int(rb.choice(len(probs), p=probs))
    assert ra.bit_generator.state == rb.bit_generator.state


@pytest.mark.parametrize(
    "probs",
    [
        np.array([]),
        np.array([[0.5, 0.5]]),
        np.array([0.5, np.nan]),
        np.array([1.5, -0.5]),
        np.array([0.5, 0.4]),
    ],
)
def test_choice_cdf_rejects_what_choice_rejects(probs):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(max(len(probs), 1), p=probs)
    with pytest.raises(ValueError):
        choice_cdf(probs)
