"""The seam table: which files may read clocks, draw randomness, write
files, profile or open sockets directly.

A *seam* is a module whose job is one of those effects: ``util/rng.py``
owns seeded randomness, ``repro/obs/`` the clock shim, ``repro/storage/``
atomic artifact writes, ``repro/obs/profile/`` the profiler machinery and
``repro/obs/live/`` the health service's sockets.  Everyone else reaches
the effect through the seam.

Both lint layers read this one table:

* the per-file rules (``unseeded-random``, ``no-bare-timing``,
  ``unsafe-artifact-write``, the network half of ``forbidden-import``)
  ask :func:`allowed` whether a file may do an effect directly — a file
  may when *any* row matching its path allows it, so ``repro/obs/live/``
  reads clocks through the ``repro/obs/`` row;
* the flow pass names a file's seam with :func:`seam_of` (first matching
  row, so the more specific ``obs.profile``/``obs.live`` rows precede
  ``obs``), and lets only a seam that allows ``network`` touch sockets.

The ``benchmarks/`` row is an allowance of the per-file rules only:
benchmarks time real work, measure the profiler and load-test the health
service, but they are not a seam the flow pass records.

The effect vocabulary (network modules, clock reads, seeded constructors,
write modes and methods) and the two AST helpers the detectors share live
here too, so a rule and the flow pass cannot disagree on what an effect
looks like.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

__all__ = [
    "CLOCK_READS",
    "NETWORK_MODULES",
    "SEAMS",
    "SEEDED_CONSTRUCTORS",
    "Seam",
    "WRITE_METHODS",
    "WRITE_MODE_CHARS",
    "allowed",
    "dotted_name",
    "mode_literal",
    "seam_allows",
    "seam_of",
]

#: Top-level modules that touch the network.
NETWORK_MODULES: FrozenSet[str] = frozenset(
    {
        "aiohttp", "ftplib", "http", "httpx", "requests", "smtplib",
        "socket", "telnetlib", "urllib", "xmlrpc",
    }
)

#: ``time`` attributes that read a clock.
CLOCK_READS: FrozenSet[str] = frozenset(
    {
        "time", "perf_counter", "monotonic", "process_time",
        "time_ns", "perf_counter_ns", "monotonic_ns", "process_time_ns",
    }
)

#: ``np.random`` attributes that construct explicitly *seeded* generators —
#: the one sanctioned shape of ``np.random`` use outside the rng seam.
SEEDED_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"Generator", "PCG64", "SeedSequence"}
)

#: Mode characters that make an ``open`` call a write.
WRITE_MODE_CHARS: FrozenSet[str] = frozenset("wax+")

#: pathlib spellings of an unprotected write.
WRITE_METHODS: FrozenSet[str] = frozenset({"write_text", "write_bytes"})


@dataclass(frozen=True)
class Seam:
    """One row: the path fragments of a seam and what code there may do."""

    name: str
    fragments: Tuple[str, ...]
    #: effects (``rng``, ``reads-clock``, ``filesystem-write``, ``network``)
    #: plus ``profiling``, the raw profiler machinery
    allows: FrozenSet[str]
    #: False for an allowance of the per-file rules that is not a seam
    flow: bool = True

    def matches(self, relpath: str) -> bool:
        return any(fragment in relpath for fragment in self.fragments)


#: The seam table, in :func:`seam_of` match order.
SEAMS: Tuple[Seam, ...] = (
    Seam("util.rng", ("repro/util/rng.py",), frozenset({"rng"})),
    Seam("obs.profile", ("repro/obs/profile/",), frozenset({"profiling"})),
    Seam("obs.live", ("repro/obs/live/",), frozenset({"network"})),
    Seam("obs", ("repro/obs/",), frozenset({"reads-clock"})),
    Seam("storage", ("repro/storage/",), frozenset({"filesystem-write"})),
    Seam(
        "benchmarks", ("benchmarks/",),
        frozenset({"reads-clock", "profiling", "network"}), flow=False,
    ),
)


def allowed(relpath: str, what: str) -> bool:
    """Whether code at ``relpath`` may do ``what`` directly (per-file rules)."""
    return any(what in seam.allows and seam.matches(relpath) for seam in SEAMS)


def seam_of(relpath: str) -> Optional[str]:
    """The seam a file belongs to for the flow pass, if any."""
    for seam in SEAMS:
        if seam.flow and seam.matches(relpath):
            return seam.name
    return None


def seam_allows(name: Optional[str], what: str) -> bool:
    """Whether the seam called ``name`` (a :func:`seam_of` result) allows ``what``."""
    return any(seam.name == name and what in seam.allows for seam in SEAMS)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def mode_literal(node: ast.Call) -> Optional[str]:
    """The mode string of an ``open(...)`` call, when given as a literal."""
    mode_node: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None
