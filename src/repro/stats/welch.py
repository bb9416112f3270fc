"""Welch's unequal-variance t-test (the paper's significance test).

The paper (Appendix B) uses Welch's t-test because prewar/wartime samples
have unequal variances.  This module implements the statistic, the
Welch–Satterthwaite degrees of freedom, and two-sided p-values via a
from-scratch Student-t survival function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.stats.special import regularized_incomplete_beta

__all__ = [
    "WelchResult",
    "student_t_cdf",
    "student_t_sf",
    "welch_df",
    "welch_t_from_moments",
    "welch_t_test",
]


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if math.isnan(t):
        return float("nan")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    x = df / (df + t * t)
    half_tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - half_tail if t > 0 else half_tail


def student_t_sf(t: float, df: float) -> float:
    """Survival function P(T > t); more accurate than 1 - cdf in the tail."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if math.isnan(t):
        return float("nan")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    half_tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return half_tail if t > 0 else 1.0 - half_tail


def welch_df(var1: float, n1: int, var2: float, n2: int) -> float:
    """Welch–Satterthwaite effective degrees of freedom."""
    if n1 < 2 or n2 < 2:
        raise ValueError(f"each sample needs n >= 2; got n1={n1}, n2={n2}")
    a = var1 / n1
    b = var2 / n2
    if a + b == 0.0:
        raise ValueError("both samples have zero variance; t-test undefined")
    num = (a + b) ** 2
    den = a * a / (n1 - 1) + b * b / (n2 - 1)
    if den == 0.0:
        # Subnormal variances can underflow when squared; fall back to the
        # conservative lower bound on Welch's df.
        return float(min(n1, n2) - 1)
    return num / den


@dataclass(frozen=True)
class WelchResult:
    """Outcome of a Welch's t-test."""

    statistic: float
    p_value: float
    df: float
    n1: int
    n2: int
    mean1: float
    mean2: float

    def significant(self, alpha: float = 0.05) -> bool:
        """True when p < alpha (the paper uses alpha = 0.05)."""
        return self.p_value < alpha

    @property
    def mean_delta(self) -> float:
        """mean2 - mean1 (wartime minus prewar in the paper's usage)."""
        return self.mean2 - self.mean1


def welch_t_from_moments(
    n1: int,
    mean1: float,
    var1: float,
    n2: int,
    mean2: float,
    var2: float,
) -> WelchResult:
    """Two-sided Welch's t-test from summary moments.

    The streaming detector (:mod:`repro.obs.live`) never holds raw
    samples — only exact counts, means, and sample variances per window —
    so the test runs on those summaries directly, and
    :func:`welch_t_test` runs on the moments of its samples.  Raises
    ``ValueError`` where the test is undefined (n < 2 or both variances
    zero).
    """
    if n1 < 2 or n2 < 2:
        raise ValueError(
            f"welch_t_from_moments needs n >= 2 per sample; got {n1} and {n2}"
        )
    df = welch_df(var1, n1, var2, n2)
    se = math.sqrt(var1 / n1 + var2 / n2)
    t = (mean1 - mean2) / se
    p = 2.0 * student_t_sf(abs(t), df)
    p = min(1.0, max(0.0, p))
    return WelchResult(
        statistic=t, p_value=p, df=df, n1=n1, n2=n2, mean1=mean1, mean2=mean2
    )


def welch_t_test(sample1: Sequence[float], sample2: Sequence[float]) -> WelchResult:
    """Two-sided Welch's t-test between two independent samples.

    NaN values are dropped (NDT rows occasionally miss a metric).  Raises
    ``ValueError`` when either sample has fewer than two finite values or
    both variances are zero, matching the conditions under which the test is
    undefined.
    """
    x = np.asarray(sample1, dtype=np.float64)
    y = np.asarray(sample2, dtype=np.float64)
    x = x[~np.isnan(x)]
    y = y[~np.isnan(y)]
    n1, n2 = len(x), len(y)
    if n1 < 2 or n2 < 2:
        raise ValueError(
            f"welch_t_test needs >= 2 finite values per sample; got {n1} and {n2}"
        )
    return welch_t_from_moments(
        n1, float(np.mean(x)), float(np.var(x, ddof=1)),
        n2, float(np.mean(y)), float(np.var(y, ddof=1)),
    )
