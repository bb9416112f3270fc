"""The Ukraine gazetteer: oblasts, cities, and conflict-zone classification.

Oblast names follow the paper's Table 4 spellings exactly so reproduced
tables line up.  Each oblast is tagged with the military front it sat on
during the study window (paper Figure 1 / Section 2): the Northern, Eastern
and Southern fronts saw direct assault; the West was largely spared; Crimea
and Sevastopol were already occupied before the invasion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.util.errors import DataError

__all__ = ["City", "ConflictZone", "Gazetteer", "Oblast", "default_gazetteer"]


class ConflictZone(enum.Enum):
    """Which front (if any) a region sat on during the first 54 war days."""

    NORTH = "north"  # Kyiv axis: assaulted, regained by early April
    EAST = "east"  # Kharkiv/Donbas axis: sustained assault and sieges
    SOUTH = "south"  # Kherson/Mariupol axis: partially occupied
    CENTER = "center"  # sporadic strikes, no ground assault
    WEST = "west"  # largely spared during the window
    OCCUPIED = "occupied"  # Crimea/Sevastopol, occupied since 2014

    @property
    def active_front(self) -> bool:
        """True for the zones the paper identifies as under direct assault."""
        return self in (ConflictZone.NORTH, ConflictZone.EAST, ConflictZone.SOUTH)


@dataclass(frozen=True)
class Oblast:
    """An administrative region (oblast) of Ukraine."""

    name: str  # Table 4 spelling, e.g. "Kiev City", "L'viv"
    zone: ConflictZone

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("oblast name must be non-empty")


@dataclass(frozen=True)
class City:
    """A city with coordinates and a relative NDT-client weight."""

    name: str
    oblast: str
    lat: float
    lon: float
    weight: float  # relative share of the country's NDT clients

    def __post_init__(self) -> None:
        if not -90 <= self.lat <= 90 or not -180 <= self.lon <= 180:
            raise ValueError(f"city {self.name!r} has invalid coordinates")
        if self.weight <= 0:
            raise ValueError(f"city {self.name!r} weight must be positive")


# (oblast, zone), principal city, lat, lon, prewar test count from Table 4
# (used as the client-weight prior so regional volumes match the paper).
_REGIONS = [
    ("Kiev City", ConflictZone.NORTH, "Kyiv", 50.45, 30.52, 11216),
    ("Dnipropetrovs'k", ConflictZone.CENTER, "Dnipro", 48.46, 35.04, 3024),
    ("L'viv", ConflictZone.WEST, "Lviv", 49.84, 24.03, 1881),
    # Odessa's oblast saw strikes but no ground assault during the window
    # (the paper's Figure 1 shades the Kherson-Mariupol axis, not Odessa),
    # and its Table-4 metrics barely move — classified off the active front.
    ("Odessa", ConflictZone.CENTER, "Odessa", 46.48, 30.73, 2210),
    ("Kharkiv", ConflictZone.EAST, "Kharkiv", 49.99, 36.23, 2102),
    ("Donets'k", ConflictZone.EAST, "Donetsk", 48.01, 37.80, 1453),
    ("Zaporizhzhya", ConflictZone.SOUTH, "Zaporizhzhia", 47.84, 35.14, 1046),
    ("Vinnytsya", ConflictZone.CENTER, "Vinnytsia", 49.23, 28.47, 894),
    ("Mykolayiv", ConflictZone.SOUTH, "Mykolaiv", 46.98, 32.00, 1031),
    ("Transcarpathia", ConflictZone.WEST, "Uzhhorod", 48.62, 22.29, 721),
    ("Chernihiv", ConflictZone.NORTH, "Chernihiv", 51.50, 31.29, 1298),
    ("Kiev", ConflictZone.NORTH, "Bila Tserkva", 49.81, 30.11, 887),
    ("Kherson", ConflictZone.SOUTH, "Kherson", 46.64, 32.61, 614),
    ("Cherkasy", ConflictZone.CENTER, "Cherkasy", 49.44, 32.06, 570),
    ("Rivne", ConflictZone.WEST, "Rivne", 50.62, 26.25, 612),
    ("Poltava", ConflictZone.CENTER, "Poltava", 49.59, 34.55, 537),
    ("Ivano-Frankivs'k", ConflictZone.WEST, "Ivano-Frankivsk", 48.92, 24.71, 535),
    ("Ternopil'", ConflictZone.WEST, "Ternopil", 49.55, 25.59, 531),
    ("Kirovohrad", ConflictZone.CENTER, "Kropyvnytskyi", 48.51, 32.26, 437),
    ("Luhans'k", ConflictZone.EAST, "Severodonetsk", 48.95, 38.49, 581),
    ("Volyn", ConflictZone.WEST, "Lutsk", 50.75, 25.32, 414),
    ("Zhytomyr", ConflictZone.NORTH, "Zhytomyr", 50.25, 28.66, 459),
    ("Chernivtsi", ConflictZone.WEST, "Chernivtsi", 48.29, 25.93, 462),
    ("Khmel'nyts'kyy", ConflictZone.CENTER, "Khmelnytskyi", 49.42, 26.98, 227),
    ("Sumy", ConflictZone.NORTH, "Sumy", 50.91, 34.80, 329),
    ("Crimea", ConflictZone.OCCUPIED, "Simferopol", 44.95, 34.10, 348),
    ("Sevastopol'", ConflictZone.OCCUPIED, "Sevastopol", 44.61, 33.52, 92),
]

# Additional cities the paper singles out (Mariupol is not an oblast capital).
_EXTRA_CITIES = [
    ("Mariupol", "Donets'k", 47.10, 37.54, 296),
]


class Gazetteer:
    """Lookup tables over oblasts and cities."""

    def __init__(self, oblasts: List[Oblast], cities: List[City]):
        self._oblasts: Dict[str, Oblast] = {}
        for o in oblasts:
            if o.name in self._oblasts:
                raise DataError(f"duplicate oblast {o.name!r}")
            self._oblasts[o.name] = o
        self._cities: Dict[str, City] = {}
        for c in cities:
            if c.name in self._cities:
                raise DataError(f"duplicate city {c.name!r}")
            if c.oblast not in self._oblasts:
                raise DataError(f"city {c.name!r} references unknown oblast {c.oblast!r}")
            self._cities[c.name] = c

    # -- oblasts ------------------------------------------------------------
    def oblast(self, name: str) -> Oblast:
        try:
            return self._oblasts[name]
        except KeyError:
            raise DataError(f"unknown oblast {name!r}") from None

    def oblasts(self) -> List[Oblast]:
        return list(self._oblasts.values())

    # -- cities ---------------------------------------------------------------
    def city(self, name: str) -> City:
        try:
            return self._cities[name]
        except KeyError:
            raise DataError(f"unknown city {name!r}") from None

    def cities(self) -> List[City]:
        return list(self._cities.values())

    def city_names(self) -> List[str]:
        return list(self._cities)

    def cities_in(self, oblast_name: str) -> List[City]:
        self.oblast(oblast_name)  # raises on unknown oblast
        return [c for c in self._cities.values() if c.oblast == oblast_name]

    def zone_of_city(self, city_name: str) -> ConflictZone:
        return self.oblast(self.city(city_name).oblast).zone

    def nearest_city(self, city_name: str) -> City:
        """The geographically closest *other* city (mislabeling target)."""
        from repro.geo.distance import haversine_km

        origin = self.city(city_name)
        others = [c for c in self._cities.values() if c.name != city_name]
        if not others:
            raise DataError("gazetteer has only one city")
        return min(
            others,
            key=lambda c: haversine_km(origin.lat, origin.lon, c.lat, c.lon),
        )

    def total_weight(self) -> float:
        return sum(c.weight for c in self._cities.values())


def default_gazetteer() -> Gazetteer:
    """The paper's Ukraine: all 27 Table-4 regions plus Mariupol."""
    oblasts = [Oblast(name, zone) for name, zone, *_ in _REGIONS]
    cities = [
        City(city, name, lat, lon, float(weight))
        for name, _zone, city, lat, lon, weight in _REGIONS
    ]
    cities += [
        City(name, oblast, lat, lon, float(weight))
        for name, oblast, lat, lon, weight in _EXTRA_CITIES
    ]
    return Gazetteer(oblasts, cities)
