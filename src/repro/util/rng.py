"""Deterministic, named random-number substreams.

The synthetic dataset is assembled by many independent components (arrival
processes, the damage model, the TCP model, geolocation noise, ...).  If they
all shared one ``numpy.random.Generator``, adding a draw in one component
would silently reshuffle every other component's output.  :class:`RngHub`
avoids that by deriving an independent generator per *name*: the stream for
``hub.stream("ndt.tcp")`` depends only on the master seed and the string
``"ndt.tcp"``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["RngHub", "choice_cdf"]


class RngHub:
    """Factory of deterministic, independently seeded numpy generators.

    Parameters
    ----------
    seed:
        Master seed.  Two hubs with the same seed produce identical streams
        for identical names.

    Examples
    --------
    >>> hub = RngHub(7)
    >>> a = hub.stream("damage").integers(0, 100, 3)
    >>> b = RngHub(7).stream("damage").integers(0, 100, 3)
    >>> (a == b).all()
    True
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this hub was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so draws within one component advance a private stream.
        """
        if not name:
            raise ValueError("stream name must be a non-empty string")
        if name not in self._streams:
            self._streams[name] = np.random.Generator(
                np.random.PCG64(self._derive(name))
            )
        return self._streams[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name``, at its initial state.

        Unlike :meth:`stream` this does not cache; every call restarts the
        substream.  Useful when a component must be re-runnable in isolation.
        """
        if not name:
            raise ValueError("stream name must be a non-empty string")
        return np.random.Generator(np.random.PCG64(self._derive(name)))

    def child(self, name: str) -> "RngHub":
        """Derive a sub-hub whose streams are independent of this hub's.

        Used when a component itself owns multiple sub-components (e.g. one
        hub per simulated year).
        """
        return RngHub(self._derive(name))

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def __repr__(self) -> str:
        return f"RngHub(seed={self._seed}, streams={sorted(self._streams)})"


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(len(probs), p=probs)`` searches.

    ``choice`` checks ``probs`` and builds this CDF on every call, then
    returns ``cdf.searchsorted(rng.random(), side="right")``.  A caller that
    draws many times from fixed weights runs the same checks and builds
    the CDF once, then searches it with one ``rng.random()`` per draw: the
    same index from the same draw.
    """
    if probs.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if probs.size == 0:
        raise ValueError("a must be a positive integer unless no samples are taken")
    total = math.fsum(probs)
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("Probabilities do not sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf
