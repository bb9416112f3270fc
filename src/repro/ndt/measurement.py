"""The NDT result row: the simulation's ``ndt.unified_download`` analogue."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.tables.schema import Cols, DType, Field, Schema
from repro.util.timeutil import Day

__all__ = [
    "LIVE_STREAM_COLUMNS",
    "NDT_SCHEMA",
    "NdtMeasurement",
    "check_geo_labels",
    "check_metric_columns",
    "check_metrics",
    "check_protocol",
]

#: Column layout of the NDT download table the analyses consume.  ``city``/
#: ``oblast`` carry the geo-DB labels (None for the paper's 11.7% unlabeled
#: tests); ``city_true`` is the simulation's ground truth, used only by
#: validation tests, never by the reproduced analyses.
NDT_SCHEMA = Schema(
    [
        Field(Cols.TEST_ID, DType.INT),
        Field(Cols.DAY, DType.INT),
        Field(Cols.DATE, DType.STR),
        Field(Cols.YEAR, DType.INT),
        Field(Cols.CITY, DType.STR),
        Field(Cols.OBLAST, DType.STR),
        Field(Cols.CITY_TRUE, DType.STR),
        Field(Cols.ASN, DType.INT),
        Field(Cols.CLIENT_IP, DType.STR),
        Field(Cols.SITE, DType.STR),
        Field(Cols.SERVER_IP, DType.STR),
        Field(Cols.PROTOCOL, DType.STR),
        Field(Cols.CCA, DType.STR),
        Field(Cols.TPUT, DType.FLOAT),
        Field(Cols.MIN_RTT, DType.FLOAT),
        Field(Cols.LOSS_RATE, DType.FLOAT),
    ]
)


#: The columns the live replay stream (``repro.obs.live.source``) needs
#: from an NDT table: the day bucket, the scope labels, and the three
#: health metrics.  A table missing any of these cannot be streamed.
LIVE_STREAM_COLUMNS = (
    Cols.DAY,
    Cols.OBLAST,
    Cols.CITY,
    Cols.ASN,
    Cols.SITE,
    Cols.TPUT,
    Cols.MIN_RTT,
    Cols.LOSS_RATE,
)


def check_metrics(tput_mbps: float, min_rtt_ms: float, loss_rate: float) -> None:
    """Require a positive throughput and min RTT and a loss in [0, 1]."""
    if tput_mbps <= 0:
        raise ValueError(f"tput_mbps must be positive, got {tput_mbps}")
    if min_rtt_ms <= 0:
        raise ValueError(f"min_rtt_ms must be positive, got {min_rtt_ms}")
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")


def check_metric_columns(
    test_ids: Sequence[int],
    tput_mbps: Sequence[float],
    min_rtt_ms: Sequence[float],
    loss_rate: Sequence[float],
) -> None:
    """:func:`check_metrics` over whole columns, naming the first bad test."""
    tput = np.asarray(tput_mbps, dtype=np.float64)
    rtt = np.asarray(min_rtt_ms, dtype=np.float64)
    loss = np.asarray(loss_rate, dtype=np.float64)
    bad = (tput <= 0) | (rtt <= 0) | ~((loss >= 0.0) & (loss <= 1.0))
    if bad.any():
        i = int(bad.argmax())
        try:
            check_metrics(tput[i], rtt[i], loss[i])
        except ValueError as exc:
            raise ValueError(f"test {test_ids[i]}: {exc}") from None


def check_geo_labels(city: Optional[str], oblast: Optional[str]) -> None:
    """Require geo-DB city and oblast labels to be both set or both None."""
    if (city is None) != (oblast is None):
        raise ValueError("city and oblast labels must be both set or both None")


def check_protocol(protocol: str, cca: str) -> None:
    """Require a known NDT version and congestion-control algorithm."""
    if protocol not in ("ndt5", "ndt7"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if cca not in ("reno", "cubic", "bbr"):
        raise ValueError(f"unknown cca {cca!r}")


@dataclass(frozen=True)
class NdtMeasurement:
    """One NDT download test result with its client context."""

    test_id: int
    day: Day
    city: Optional[str]  # geo-DB label (may be None)
    oblast: Optional[str]  # geo-DB label (may be None)
    city_true: str
    asn: int
    client_ip: str
    site: str
    server_ip: str
    protocol: str  # "ndt5" | "ndt7"
    cca: str  # "reno" | "cubic" | "bbr"
    tput_mbps: float
    min_rtt_ms: float
    loss_rate: float

    def __post_init__(self) -> None:
        check_metrics(self.tput_mbps, self.min_rtt_ms, self.loss_rate)
        check_geo_labels(self.city, self.oblast)
        check_protocol(self.protocol, self.cca)

    def to_row(self) -> Dict[str, object]:
        """Flatten into a row matching :data:`NDT_SCHEMA`."""
        return {
            "test_id": self.test_id,
            "day": self.day.ordinal,
            "date": self.day.iso(),
            "year": self.day.date().year,
            "city": self.city,
            "oblast": self.oblast,
            "city_true": self.city_true,
            "asn": self.asn,
            "client_ip": self.client_ip,
            "site": self.site,
            "server_ip": self.server_ip,
            "protocol": self.protocol,
            "cca": self.cca,
            "tput_mbps": self.tput_mbps,
            "min_rtt_ms": self.min_rtt_ms,
            "loss_rate": self.loss_rate,
        }
