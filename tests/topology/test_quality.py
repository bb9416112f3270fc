"""Tests for the link-quality model."""

import pytest

from repro.conflict import EdgeDamageModel, IntensityModel
from repro.geo import default_gazetteer
from repro.topology import Link, LinkKind
from repro.topology.quality import DegradationSchedule, LinkQualityModel
from repro.util import Day, RngHub


def make_link(a=6663, b=199995, city=None):
    lo, hi = min(a, b), max(a, b)
    return Link(a=a, b=b, kind=LinkKind.TRANSIT, base_rtt_ms=9.0,
                capacity_mbps=1000.0, city=city)


@pytest.fixture(scope="module")
def edge_damage():
    intensity = IntensityModel(default_gazetteer())
    return EdgeDamageModel(intensity, RngHub(1).stream("edge"))


class TestDegradationSchedule:
    def test_ramp(self):
        s = DegradationSchedule(
            link_key=(6663, 199995),
            start=Day.of("2022-02-24"),
            end=Day.of("2022-03-24"),
            floor=0.15,
        )
        assert s.quality_on(Day.of("2022-02-01").ordinal) == 1.0
        assert s.quality_on(Day.of("2022-02-24").ordinal) == pytest.approx(1.0)
        mid = s.quality_on(Day.of("2022-03-10").ordinal)
        assert 0.15 < mid < 1.0
        assert s.quality_on(Day.of("2022-03-24").ordinal) == pytest.approx(0.15)
        assert s.quality_on(Day.of("2022-04-15").ordinal) == pytest.approx(0.15)

    def test_monotone_decreasing(self):
        s = DegradationSchedule((1, 2), Day.of("2022-02-24"), Day.of("2022-03-24"), 0.2)
        days = [Day.of("2022-02-20").ordinal + i for i in range(60)]
        values = [s.quality_on(d) for d in days]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationSchedule((1, 2), Day.of("2022-03-24"), Day.of("2022-02-24"), 0.5)
        with pytest.raises(ValueError):
            DegradationSchedule((1, 2), Day.of("2022-02-24"), Day.of("2022-03-24"), 0.01)
        with pytest.raises(ValueError):
            DegradationSchedule((1, 2), Day.of("2022-02-24"), Day.of("2022-03-24"), 1.5)


class TestLinkQualityModel:
    def test_healthy_untagged_link_full_quality(self, edge_damage):
        model = LinkQualityModel(edge_damage)
        link = make_link()
        assert model.quality(link, Day.of("2022-03-15").ordinal) == 1.0

    def test_scheduled_link_degrades(self, edge_damage):
        sched = DegradationSchedule(
            (6663, 199995), Day.of("2022-02-24"), Day.of("2022-03-24"), 0.15
        )
        model = LinkQualityModel(edge_damage, [sched])
        link = make_link(6663, 199995)
        before = model.quality(link, Day.of("2022-02-01").ordinal)
        after = model.quality(link, Day.of("2022-04-01").ordinal)
        assert before == 1.0
        assert after == pytest.approx(0.15)

    def test_city_tagged_link_feels_war(self, edge_damage):
        model = LinkQualityModel(edge_damage)
        link = make_link(6849, 13188, city="Kharkiv")
        prewar = model.quality(link, Day.of("2022-01-15").ordinal)
        wartime = model.quality(link, Day.of("2022-03-15").ordinal)
        assert prewar == 1.0
        assert wartime < 0.8

    def test_quality_floor(self, edge_damage):
        sched = DegradationSchedule(
            (1, 2), Day.of("2022-02-24"), Day.of("2022-02-25"), 0.05
        )
        model = LinkQualityModel(edge_damage, [sched], city_weight=1.0)
        link = Link(a=1, b=2, kind=LinkKind.TRANSIT, base_rtt_ms=1.0,
                    capacity_mbps=1.0, city="Mariupol")
        q = model.quality(link, Day.of("2022-03-20").ordinal)
        assert q == pytest.approx(0.05)

    def test_no_edge_damage_model(self):
        model = LinkQualityModel(None)
        link = make_link(1, 2, city="Kharkiv")
        assert model.quality(link, Day.of("2022-03-15").ordinal) == 1.0

    def test_duplicate_schedule_rejected(self, edge_damage):
        sched = DegradationSchedule(
            (1, 2), Day.of("2022-02-24"), Day.of("2022-03-24"), 0.5
        )
        with pytest.raises(ValueError):
            LinkQualityModel(edge_damage, [sched, sched])

    def test_resolved_once_per_link_city_and_day(self):
        class CountingDamage:
            calls = 0

            def severity(self, city, day):
                CountingDamage.calls += 1
                return 0.5

        model = LinkQualityModel(CountingDamage())
        kyiv = make_link(1, 2, city="Kyiv")
        day = Day.of("2022-03-15").ordinal
        first = model.quality(kyiv, day)
        assert model.quality(kyiv, day) == first == pytest.approx(0.7)
        assert CountingDamage.calls == 1
        # Same key, other city: a different value, so a different entry.
        model.quality(make_link(1, 2, city="Lviv"), day)
        model.quality(kyiv, day + 1)
        assert CountingDamage.calls == 3
