"""Traceroute records, derived identities, and the path text format.

The trace table stores each trace's hops (``path``) and AS path
(``as_path``) as ``|``-joined text, and this module is that format's one
owner: writers call :func:`join`; readers call :func:`split`,
:func:`parse_hops` or :func:`parse_as_path`, which raise
:class:`~repro.util.errors.DataError` on malformed text.  Values derived
from a path are computed once per distinct path through ``Column.map``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.netbase.asn import ASRegistry
from repro.netbase.ipaddr import IPv4Address
from repro.util.errors import DataError

__all__ = [
    "TracerouteRecord",
    "border_crossing",
    "hop_count",
    "join",
    "parse_as_path",
    "parse_hops",
    "split",
]

#: Separator between the hops of ``path`` and the ASNs of ``as_path``.
SEP = "|"


def join(parts: Iterable[str]) -> str:
    """Path text of a hop or AS sequence, as the trace table stores it."""
    return SEP.join(parts)


def split(text: Optional[str]) -> List[str]:
    """The hop or AS strings of path text; ``[]`` for ``""`` or None."""
    return text.split(SEP) if text else []


def hop_count(text: Optional[str]) -> int:
    """``len(split(text))`` without building the list."""
    return text.count(SEP) + 1 if text else 0


def parse_hops(
    text: Optional[str], memo: Optional[Dict[str, int]] = None
) -> Tuple[int, ...]:
    """The hop addresses of ``path`` text as int values, server first.

    A caller walking many paths passes one ``memo`` (hop text → value) so
    each distinct hop is parsed once.
    """
    if not text:
        raise DataError("empty hop path")
    memo = {} if memo is None else memo
    parts = text.split(SEP)
    for part in parts:
        if part not in memo:
            try:
                memo[part] = IPv4Address.parse(part).value
            except ValueError as exc:
                raise DataError(f"malformed hop path {text!r}") from exc
    return tuple([memo[part] for part in parts])


def parse_as_path(text: Optional[str]) -> Tuple[int, ...]:
    """The ASNs of ``as_path`` text; empty or malformed text raises DataError."""
    if not text:
        raise DataError("empty AS path")
    try:
        return tuple(int(part) for part in text.split(SEP))
    except ValueError as exc:
        raise DataError(f"malformed AS path {text!r}") from exc


@dataclass(frozen=True)
class TracerouteRecord:
    """One sidecar traceroute, from the M-Lab server toward the client.

    ``hop_ips``/``hop_asns`` are ordered server→client and include the
    server as the first entry and the client as the last.
    """

    test_id: int
    client_ip: IPv4Address
    server_ip: IPv4Address
    hop_ips: Tuple[IPv4Address, ...]
    hop_asns: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.hop_ips) != len(self.hop_asns):
            raise ValueError(
                f"hop_ips ({len(self.hop_ips)}) and hop_asns "
                f"({len(self.hop_asns)}) must align"
            )
        if len(self.hop_ips) < 2:
            raise ValueError("a traceroute needs at least server and client hops")
        if self.hop_ips[0] != self.server_ip:
            raise ValueError("first hop must be the server")
        if self.hop_ips[-1] != self.client_ip:
            raise ValueError("last hop must be the client")

    @property
    def connection_key(self) -> Tuple[int, int]:
        """The paper's connection identity: the (source, destination) IP pair."""
        return (self.client_ip.value, self.server_ip.value)

    @property
    def path_key(self) -> str:
        """The paper's path identity: the traceroute IP address sequence."""
        return join(ip.dotted() for ip in self.hop_ips)

    @property
    def as_path(self) -> Tuple[int, ...]:
        """Deduplicated AS-level path (consecutive same-AS hops collapsed)."""
        out = []
        for asn in self.hop_asns:
            if not out or out[-1] != asn:
                out.append(asn)
        return tuple(out)

    @property
    def as_path_key(self) -> str:
        """The deduplicated AS path as text (the ``as_path`` column)."""
        return join(str(a) for a in self.as_path)

    @property
    def n_hops(self) -> int:
        return len(self.hop_ips)

    def to_row(self) -> Dict[str, object]:
        """Flatten into a table row (IPs dotted, sequences as path text)."""
        return {
            "test_id": self.test_id,
            "client_ip": self.client_ip.dotted(),
            "server_ip": self.server_ip.dotted(),
            "path": self.path_key,
            "as_path": self.as_path_key,
            "n_hops": self.n_hops,
        }


def border_crossing(
    as_path: Sequence[int], registry: ASRegistry
) -> Optional[Tuple[int, int]]:
    """The (foreign AS, Ukrainian AS) pair where the trace enters Ukraine.

    Scans the server→client AS path for the first adjacency whose left side
    is non-Ukrainian and right side Ukrainian — the paper's "border AS" hop
    (Figure 5).  Returns None when the trace never enters Ukraine or an AS
    is unknown to the registry.
    """
    for left, right in zip(as_path, as_path[1:]):
        left_as = registry.maybe_get(left)
        right_as = registry.maybe_get(right)
        if left_as is None or right_as is None:
            return None
        if not left_as.is_ukrainian and right_as.is_ukrainian:
            return (left, right)
    return None
