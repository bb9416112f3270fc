"""Samplers parameterized by observable moments.

The calibration tables give per-city/AS *means and standard deviations* of
throughput, RTT and loss (Tables 1, 4, 5).  The generator needs samplers that
hit those moments while staying in each metric's natural support: throughput
and RTT are positive and right-skewed (paper Figs 7-8), loss is a fraction.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.util.errors import NumericsError
from repro.util.validation import check_fraction, check_positive

__all__ = [
    "beta_params_from_mean",
    "lognormal_params_from_moments",
    "sample_beta_loss",
    "sample_lognormal_mean_std",
    "sample_truncated_normal",
]


def lognormal_params_from_moments(mean: float, std: float) -> Tuple[float, float]:
    """(mu, sigma) of the underlying normal for a lognormal with given moments.

    Solves E[X] = exp(mu + sigma^2/2), Var[X] = (exp(sigma^2)-1) E[X]^2.
    """
    check_positive("mean", mean)
    check_positive("std", std)
    sigma2 = math.log1p((std / mean) ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    return mu, math.sqrt(sigma2)


def beta_params_from_mean(mean: float, concentration: float) -> Tuple[float, float]:
    """(alpha, beta) of a beta distribution with the given mean.

    ``concentration`` is alpha + beta.  ``mean`` must lie strictly inside
    (0, 1); the degenerate ends have no beta shape.
    """
    check_positive("concentration", concentration)
    if not 0.0 < mean < 1.0:
        raise ValueError(f"mean must be in (0, 1), got {mean!r}")
    return mean * concentration, (1.0 - mean) * concentration


def sample_lognormal_mean_std(
    rng: np.random.Generator, mean: float, std: float, size: int
) -> np.ndarray:
    """Lognormal draws whose population mean/std equal ``mean``/``std``.

    The natural shape for throughput and RTT samples (positive, skewed —
    matching the paper's Figures 7-8 distributions).
    """
    mu, sigma = lognormal_params_from_moments(mean, std)
    return rng.lognormal(mean=mu, sigma=sigma, size=size)


def sample_truncated_normal(
    rng: np.random.Generator,
    mean: float,
    std: float,
    low: float,
    size: int,
    max_tries: int = 100,
) -> np.ndarray:
    """Normal draws resampled until all lie at or above ``low``.

    Used where a metric is roughly symmetric but physically bounded below
    (e.g. per-hop latencies).  Raises ``NumericsError`` if the truncation
    region is so improbable that resampling keeps failing.
    """
    check_positive("std", std)
    out = rng.normal(mean, std, size)
    for _ in range(max_tries):
        bad = out < low
        if not bad.any():
            return out
        out[bad] = rng.normal(mean, std, int(bad.sum()))
    raise NumericsError(
        f"truncated normal (mean={mean}, std={std}, low={low}) did not fill "
        f"after {max_tries} rounds"
    )


def sample_beta_loss(
    rng: np.random.Generator, mean: float, concentration: float, size: int
) -> np.ndarray:
    """Beta-distributed loss-rate draws with the given mean.

    ``concentration`` (= alpha + beta) controls spread; small values give the
    heavy right skew visible in the paper's loss distributions.
    """
    check_fraction("mean", mean)
    check_positive("concentration", concentration)
    if mean == 0.0:
        return np.zeros(size)
    if mean >= 1.0:  # validated to [0, 1]; >= keeps the boundary exact
        return np.ones(size)
    alpha, beta = beta_params_from_mean(mean, concentration)
    return rng.beta(alpha, beta, size)
