"""The bulk-transfer metric model behind each simulated NDT test.

Each test draws its three NDT metrics from calibrated distributions, then
adjusts them for the conditions of the specific route the test took:

* ``MinRTT`` — lognormal draw around the calibrated mean, plus the actual
  path's extra propagation (alternate routes are longer) and per-link
  degradation penalties;
* ``LossRate`` — beta draw around the calibrated mean, plus loss
  contributed by degraded links on the path;
* ``MeanTput`` — lognormal draw, damped by path loss (weak coupling: NDT7
  uses BBR, which is loss-tolerant, so the calibrated baseline dominates)
  and by outage-day multipliers.

The model deliberately does not impose a Mathis-style loss/throughput law:
NDT's reported loss counts retransmitted segments over a BBR connection,
and the paper's own tables (e.g. Kyiv: 64 Mbps at 1.37% loss) are far off
any Reno-model curve.  Calibration to the published moments, with path
conditions layered on top, preserves the relationships the analyses
measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.stats.distributions import (
    beta_params_from_mean,
    lognormal_params_from_moments,
)
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["BulkTransferModel", "MetricParams", "PathConditions", "clamp_loss"]

#: Lower bound on a test's reported minimum RTT (ms).
_MIN_RTT_FLOOR_MS = 0.1
#: Spread (alpha+beta) of the per-test beta loss draw.
_LOSS_CONCENTRATION = 3.0
#: How strongly path loss suppresses throughput (BBR: weakly).
_LOSS_TPUT_DAMPING = 4.0


@dataclass(frozen=True)
class MetricParams:
    """Calibrated metric moments for one (context, day) combination.

    The distribution parameters every test of the combination draws with
    are derived once, here: the lognormal ``(mu, sigma)`` of RTT and
    throughput, and the beta ``(alpha, beta)`` of loss (None when
    ``loss_mean`` is 0, which draws no loss at all).
    """

    tput_mean_mbps: float
    tput_std_mbps: float
    rtt_mean_ms: float
    rtt_std_ms: float
    loss_mean: float
    rtt_lognormal: Tuple[float, float] = field(init=False, repr=False, compare=False)
    tput_lognormal: Tuple[float, float] = field(init=False, repr=False, compare=False)
    loss_beta: Optional[Tuple[float, float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_positive("tput_mean_mbps", self.tput_mean_mbps)
        check_positive("tput_std_mbps", self.tput_std_mbps)
        check_positive("rtt_mean_ms", self.rtt_mean_ms)
        check_positive("rtt_std_ms", self.rtt_std_ms)
        if not 0.0 <= self.loss_mean < 1.0:
            raise ValueError(f"loss_mean must be in [0, 1), got {self.loss_mean}")
        object.__setattr__(
            self,
            "rtt_lognormal",
            lognormal_params_from_moments(self.rtt_mean_ms, self.rtt_std_ms),
        )
        object.__setattr__(
            self,
            "tput_lognormal",
            lognormal_params_from_moments(self.tput_mean_mbps, self.tput_std_mbps),
        )
        object.__setattr__(
            self,
            "loss_beta",
            beta_params_from_mean(self.loss_mean, _LOSS_CONCENTRATION)
            if self.loss_mean > 0
            else None,
        )


@dataclass(frozen=True)
class PathConditions:
    """What the selected route contributes to this test's metrics."""

    extra_rtt_ms: float = 0.0  # detour length + degraded-link latency
    extra_loss: float = 0.0  # loss added by degraded links
    tput_factor: float = 1.0  # outage-day / capacity multiplier

    def __post_init__(self) -> None:
        check_nonnegative("extra_rtt_ms", self.extra_rtt_ms)
        if not 0.0 <= self.extra_loss <= 1.0:
            raise ValueError(f"extra_loss must be in [0, 1], got {self.extra_loss}")
        if not 0.0 < self.tput_factor <= 1.0:
            raise ValueError(
                f"tput_factor must be in (0, 1], got {self.tput_factor}"
            )


def clamp_loss(x: float) -> float:
    """``float(np.clip(x, 0.0, 1.0))``, without numpy for the common case.

    Inside the open unit interval the clip is the identity, so only the
    ends, the outside and NaN go through ``np.clip``.
    """
    if 0.0 < x < 1.0:
        return float(x)
    return float(np.clip(x, 0.0, 1.0))


class BulkTransferModel:
    """Draws (tput, min RTT, loss) for one NDT download test."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def measure(
        self, params: MetricParams, conditions: PathConditions = PathConditions()
    ) -> tuple:
        """One test's ``(tput_mbps, min_rtt_ms, loss_rate)``.

        Three draws at most, in this order: lognormal RTT, beta loss (only
        when ``params.loss_mean > 0``), lognormal throughput.
        """
        rtt_mu, rtt_sigma = params.rtt_lognormal
        min_rtt = self._rng.lognormal(rtt_mu, rtt_sigma) + conditions.extra_rtt_ms
        min_rtt = max(_MIN_RTT_FLOOR_MS, min_rtt)

        loss_beta = params.loss_beta
        base_loss = self._rng.beta(*loss_beta) if loss_beta is not None else 0.0
        loss = clamp_loss(base_loss + conditions.extra_loss)

        tput_mu, tput_sigma = params.tput_lognormal
        tput = self._rng.lognormal(tput_mu, tput_sigma)
        tput *= conditions.tput_factor
        tput /= 1.0 + _LOSS_TPUT_DAMPING * conditions.extra_loss
        tput = max(0.01, tput)
        return float(tput), float(min_rtt), loss
