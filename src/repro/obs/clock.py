"""The sanctioned monotonic clock.

Every duration the repo measures flows through :func:`monotonic` (or a
span, which uses it internally).  Direct ``time.time()`` /
``time.perf_counter()`` calls outside ``repro/obs/`` and ``benchmarks/``
are a lint finding (``no-bare-timing``): ad-hoc timing reads bypass the
tracer, cannot be attributed to a stage, and are invisible in run
reports.  Keeping the one real clock read here also gives tests a single
seam — most obs classes accept a ``clock=`` callable instead of touching
this module.
"""

from __future__ import annotations

import time

__all__ = ["monotonic"]


def monotonic() -> float:
    """Seconds on a monotonic high-resolution clock (for durations)."""
    return time.perf_counter()
