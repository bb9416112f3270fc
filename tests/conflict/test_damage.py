"""Tests for the edge and link damage processes."""

import numpy as np
import pytest

from repro.conflict import (
    EdgeDamageModel,
    IntensityModel,
    LinkDamageProcess,
)
from repro.geo import default_gazetteer
from repro.util import DayGrid, RngHub


@pytest.fixture(scope="module")
def intensity():
    return IntensityModel(default_gazetteer())


@pytest.fixture
def hub():
    return RngHub(42)


class TestEdgeDamage:
    def test_zero_before_invasion(self, intensity, hub):
        model = EdgeDamageModel(intensity, hub.stream("edge"))
        assert model.severity("Kyiv", "2022-01-15") == 0.0

    def test_positive_in_wartime_hot_zones(self, intensity, hub):
        model = EdgeDamageModel(intensity, hub.stream("edge"))
        assert model.severity("Kharkiv", "2022-03-20") > 0.3

    def test_west_much_lower_than_east(self, intensity, hub):
        model = EdgeDamageModel(intensity, hub.stream("edge"))
        lviv = model.severity("Lviv", "2022-03-20")
        kharkiv = model.severity("Kharkiv", "2022-03-20")
        assert kharkiv > 3 * lviv

    def test_bounded(self, intensity, hub):
        model = EdgeDamageModel(intensity, hub.stream("edge"), wobble=0.5)
        for city in ["Kyiv", "Mariupol", "Lviv", "Simferopol"]:
            for day in ["2022-02-24", "2022-03-10", "2022-04-18"]:
                assert 0.0 <= model.severity(city, day) <= 1.0

    def test_cached_per_city_day(self, intensity, hub):
        model = EdgeDamageModel(intensity, hub.stream("edge"))
        a = model.severity("Kyiv", "2022-03-01")
        b = model.severity("Kyiv", "2022-03-01")
        assert a == b

    def test_wobble_drawn_once_per_war_city_day(self, intensity):
        """Repeat calls draw nothing; zero-intensity days never draw."""
        rng, reference = RngHub(3).stream("edge"), RngHub(3).stream("edge")
        model = EdgeDamageModel(intensity, rng)
        calls = [("Kyiv", "2022-01-15"), ("Kyiv", "2022-03-01"),
                 ("Kharkiv", "2022-03-01"), ("Kyiv", "2022-03-01"),
                 ("Kyiv", "2022-01-15"), ("Kharkiv", "2022-03-01")]
        for city, day in calls:
            model.severity(city, day)
        reference.uniform(size=2)  # one draw per distinct wartime city-day
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_deterministic_across_instances(self, intensity):
        a = EdgeDamageModel(intensity, RngHub(7).stream("edge"))
        b = EdgeDamageModel(intensity, RngHub(7).stream("edge"))
        assert a.severity("Kyiv", "2022-03-05") == b.severity("Kyiv", "2022-03-05")

    def test_wobble_varies_by_day(self, intensity, hub):
        model = EdgeDamageModel(intensity, hub.stream("edge"), wobble=0.15)
        values = {model.severity("Mariupol", f"2022-03-{d:02d}") for d in range(5, 15)}
        assert len(values) > 1

    def test_invalid_params(self, intensity, hub):
        with pytest.raises(ValueError):
            EdgeDamageModel(intensity, hub.stream("x"), edge_scale=1.5)
        with pytest.raises(ValueError):
            EdgeDamageModel(intensity, hub.stream("x"), wobble=-0.1)


class TestLinkDamage:
    GRID = DayGrid("2022-01-01", "2022-04-18")

    def links(self):
        return {
            ("AS15895", "AS3255", "Kyiv"): "Kyiv",
            ("AS6939", "AS199995", None): None,
            ("AS21488", "AS3255", "Kharkiv"): "Kharkiv",
        }

    def test_simulate_covers_all_links(self, intensity, hub):
        proc = LinkDamageProcess(intensity)
        sched = proc.simulate(self.links(), self.GRID, hub.stream("links"))
        assert set(sched.links()) == set(self.links())

    def test_war_links_fail_more(self, intensity):
        proc = LinkDamageProcess(intensity, base_hazard=0.0, war_hazard=0.15)
        # Many replicas of the same tagged/untagged pair for a stable estimate.
        links = {}
        for i in range(150):
            links[("war", i)] = "Kharkiv"
            links[("intl", i)] = None
        sched = proc.simulate(links, self.GRID, RngHub(3).stream("links"))
        war_down = sum(sched.downtime_days(("war", i)) for i in range(150))
        intl_down = sum(sched.downtime_days(("intl", i)) for i in range(150))
        assert war_down > 10 * max(intl_down, 1)

    def test_no_outages_before_invasion_without_base_hazard(self, intensity, hub):
        proc = LinkDamageProcess(intensity, base_hazard=0.0, war_hazard=0.2)
        grid = DayGrid("2022-01-01", "2022-02-23")
        sched = proc.simulate({("l", 0): "Kharkiv"}, grid, hub.stream("links"))
        assert sched.downtime_days(("l", 0)) == 0

    def test_repairs_happen(self, intensity):
        proc = LinkDamageProcess(intensity, war_hazard=0.3, repair_rate=0.6)
        links = {i: "Mariupol" for i in range(50)}
        sched = proc.simulate(links, self.GRID, RngHub(5).stream("links"))
        # With a 60% daily repair rate, no link should be down the whole war.
        wartime_days = 54
        assert all(sched.downtime_days(i) < wartime_days for i in range(50))
        assert sum(sched.downtime_days(i) for i in range(50)) > 0

    def test_unknown_link_reported_up(self, intensity, hub):
        proc = LinkDamageProcess(intensity)
        sched = proc.simulate({}, self.GRID, hub.stream("links"))
        assert sched.is_up("never-seen", "2022-03-01")

    def test_is_up_out_of_grid_raises(self, intensity, hub):
        proc = LinkDamageProcess(intensity)
        sched = proc.simulate(self.links(), self.GRID, hub.stream("links"))
        with pytest.raises(ValueError):
            sched.is_up(("AS15895", "AS3255", "Kyiv"), "2023-01-01")

    def test_down_links_empty_outside_grid(self, intensity):
        proc = LinkDamageProcess(intensity, base_hazard=1.0)
        sched = proc.simulate(self.links(), self.GRID, RngHub(7).stream("links"))
        assert sched.down_links(self.GRID.start) == set(self.links())
        assert sched.down_links("2021-12-31") == frozenset()
        assert sched.down_links("2022-04-19") == frozenset()

    def test_deterministic(self, intensity):
        proc = LinkDamageProcess(intensity)
        a = proc.simulate(self.links(), self.GRID, RngHub(9).stream("links"))
        b = proc.simulate(self.links(), self.GRID, RngHub(9).stream("links"))
        for link in self.links():
            assert a.downtime_days(link) == b.downtime_days(link)

    def test_invalid_params(self, intensity):
        with pytest.raises(ValueError):
            LinkDamageProcess(intensity, base_hazard=1.5)
        with pytest.raises(ValueError):
            LinkDamageProcess(intensity, repair_rate=-0.1)
