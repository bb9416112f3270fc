"""Valley-free (Gao-Rexford) route computation and selection.

An AS path is *valley-free* when it climbs customer→provider links, crosses
at most one peering link, then descends provider→customer links.  Candidate
paths are ranked the way BGP policy prefers routes — customer routes over
peer routes over provider routes, then shorter AS paths, then a
deterministic tie-break — and the :class:`RouteSelector` samples among the
top candidates with weights derived from link quality.  That last step
models the traffic engineering the paper observes (operators steering away
from degraded upstreams, e.g. AS199995 shifting toward Hurricane Electric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.asgraph import ASGraph, Link, LinkKind
from repro.util.errors import TopologyError

__all__ = ["AsPath", "RouteSelector", "StickyRouter", "valley_free_paths"]

LinkKey = Tuple[int, int]

#: Default search depth, result count and raw-path cap of
#: :func:`valley_free_paths`, which the route selector's candidate lists use.
_MAX_HOPS = 7
_MAX_PATHS = 64
_RAW_CAP = _MAX_PATHS * 4


@dataclass(frozen=True)
class AsPath:
    """A candidate AS-level route with its policy rank ingredients."""

    asns: Tuple[int, ...]
    used_up: bool  # traversed any customer->provider link
    used_peer: bool  # traversed a peering link

    @property
    def n_hops(self) -> int:
        return len(self.asns) - 1

    def rank(self) -> Tuple[int, int, int, Tuple[int, ...]]:
        """Lexicographic policy preference (smaller is better)."""
        return (int(self.used_up), int(self.used_peer), self.n_hops, self.asns)

    def links(self, graph: ASGraph) -> List[Link]:
        out = []
        for x, y in zip(self.asns, self.asns[1:]):
            link = graph.link_between(x, y)
            if link is None:
                raise TopologyError(f"path references missing link AS{x}-AS{y}")
            out.append(link)
        return out

    def __str__(self) -> str:
        return " ".join(f"AS{a}" for a in self.asns)


def valley_free_paths(
    graph: ASGraph,
    src: int,
    dst: int,
    excluded: FrozenSet[LinkKey] = frozenset(),
    max_hops: int = _MAX_HOPS,
    max_paths: int = _MAX_PATHS,
) -> List[AsPath]:
    """Enumerate valley-free paths from ``src`` to ``dst``, best-ranked first.

    ``excluded`` holds canonical link keys (see :attr:`Link.key`) that are
    currently down.  Enumeration is a depth-first search over the
    up*-peer?-down* automaton with per-path loop prevention, bounded by
    ``max_hops``; results are sorted by :meth:`AsPath.rank` and truncated to
    ``max_paths``.

    The search also stops descending once it holds ``max_paths * 4`` raw
    paths.  Below that cap the result is exact: the best ``max_paths`` of
    every valley-free path within ``max_hops``.  At the cap it is the best of
    whichever paths the depth-first order reached first, so it depends on
    the order :class:`ASGraph` lists neighbours in, and excluding a link can
    surface a path that the unrestricted search never reached.
    """
    return _ranked_paths(graph, src, dst, excluded, max_hops, max_paths * 4)[:max_paths]


def _ranked_paths(
    graph: ASGraph,
    src: int,
    dst: int,
    excluded: FrozenSet[LinkKey],
    max_hops: int,
    raw_cap: int,
) -> List[AsPath]:
    """Every path the capped search finds (see :func:`valley_free_paths`), by rank.

    The list is complete -- no branch was cut by the cap -- exactly when it
    holds fewer than ``raw_cap`` paths.
    """
    if src == dst:
        return [AsPath((src,), used_up=False, used_peer=False)]
    for asn in (src, dst):
        if asn not in graph.registry:
            raise TopologyError(f"unknown AS{asn}")

    results: List[AsPath] = []
    # Phase: 0 = may still climb, 1 = crossed the peak (peer edge), 2 = descending.
    def dfs(node: int, phase: int, path: List[int], used_up: bool, used_peer: bool) -> None:
        if len(results) >= raw_cap:
            return  # enough raw candidates; ranking keeps the best
        if len(path) - 1 >= max_hops:
            return
        steps: List[Tuple[int, int, bool, bool]] = []
        if phase == 0:
            for nxt in graph.providers(node):
                steps.append((nxt, 0, True, used_peer))
            for nxt in graph.peers(node):
                steps.append((nxt, 1, used_up, True))
        for nxt in graph.customers(node):
            steps.append((nxt, 2, used_up, used_peer))
        for nxt, nxt_phase, up, peer in steps:
            if nxt in path:
                continue
            link = graph.link_between(node, nxt)
            if link is not None and link.key in excluded:
                continue
            if nxt == dst:
                results.append(AsPath(tuple(path + [nxt]), up, peer))
                continue
            path.append(nxt)
            dfs(nxt, nxt_phase, path, up, peer)
            path.pop()

    dfs(src, 0, [src], False, False)
    results.sort(key=AsPath.rank)
    return results


class RouteSelector:
    """Samples an AS path for a test, weighting by policy rank and quality.

    Candidate routes are grouped into *tiers* by Gao-Rexford class and AS
    hop count.  A lower tier strongly dominates (``rank_decay`` per tier —
    BGP prefers customer routes and shorter paths outright); within a tier,
    selection follows link local-preferences and current link quality, with
    a mild positional decay over a stable per-pair permutation (different
    AS pairs break policy ties differently).

    Parameters
    ----------
    quality_fn:
        ``quality_fn(link, day_ordinal) -> float in (0, 1]``; down links are
        excluded before sampling (see :func:`valley_free_paths`).  It must be
        a function of (link, day) alone for the selector's lifetime: the
        :class:`StickyRouter` built on the selector keeps the routes that
        quality decides and reuses them.
    rank_decay:
        Weight multiplier per (class, hops) tier.
    within_decay:
        Weight multiplier per position inside one tier.
    """

    def __init__(
        self,
        graph: ASGraph,
        quality_fn: Callable[[Link, int], float],
        rank_decay: float = 0.25,
        within_decay: float = 0.6,
        max_candidates: int = 8,
    ):
        if not 0.0 < rank_decay <= 1.0:
            raise ValueError(f"rank_decay must be in (0, 1], got {rank_decay}")
        if not 0.0 < within_decay <= 1.0:
            raise ValueError(f"within_decay must be in (0, 1], got {within_decay}")
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self._graph = graph
        self._quality_fn = quality_fn
        self._rank_decay = rank_decay
        self._within_decay = within_decay
        self._max_candidates = max_candidates
        self._path_cache: dict = {}
        self._pair_paths: Dict[Tuple[int, int], List[AsPath]] = {}
        self._tie_breaks: Dict[Tuple[int, int, Tuple[int, ...]], float] = {}
        self._links: Dict[Tuple[int, ...], Tuple[List[Link], FrozenSet[LinkKey]]] = {}

    def candidates(
        self, src: int, dst: int, excluded: FrozenSet[LinkKey]
    ) -> List[AsPath]:
        """Cached top candidate paths for a (src, dst, outage-set) triple.

        Within each (route class, hop count) tier the order is a stable
        per-(src, dst) permutation rather than a global rule: real AS pairs
        break policy ties differently (IGP distances, contracts), and a
        global tie-break would funnel the whole country through whichever
        carrier happens to sort first.

        The pair's paths are enumerated once, without exclusions; an outage
        set keeps those that use no down link.  Exclusion only prunes the
        search, so that equals searching with the exclusions, as long as the
        unrestricted search stayed under its raw cap.  A pair that reached
        the cap is searched again with the exclusions.
        """
        key = (src, dst, excluded)
        cached = self._path_cache.get(key)
        if cached is None:
            ranked = self._pair_paths.get((src, dst))
            if ranked is None:
                ranked = _ranked_paths(
                    self._graph, src, dst, frozenset(), _MAX_HOPS, _RAW_CAP
                )
                self._pair_paths[(src, dst)] = ranked
            if len(ranked) < _RAW_CAP or not excluded:
                paths = [p for p in ranked if self.link_keys(p).isdisjoint(excluded)]
                del paths[_MAX_PATHS:]
            else:
                paths = valley_free_paths(self._graph, src, dst, excluded)
            paths.sort(
                key=lambda p: (
                    int(p.used_up),
                    int(p.used_peer),
                    p.n_hops,
                    self._tie_break(src, dst, p),
                )
            )
            cached = self._path_cache[key] = paths[: self._max_candidates]
        return cached

    def _tie_break(self, src: int, dst: int, path: AsPath) -> float:
        key = (src, dst, path.asns)
        draw = self._tie_breaks.get(key)
        if draw is None:
            draw = self._tie_breaks[key] = _stable_rng(src, dst, *path.asns).random()
        return draw

    def _path_links(self, path: AsPath) -> Tuple[List[Link], FrozenSet[LinkKey]]:
        entry = self._links.get(path.asns)
        if entry is None:
            links = path.links(self._graph)
            entry = self._links[path.asns] = (links, frozenset(l.key for l in links))
        return entry

    def links(self, path: AsPath) -> List[Link]:
        """``path.links(graph)``, resolved once per path; do not mutate."""
        return self._path_links(path)[0]

    def link_keys(self, path: AsPath) -> FrozenSet[LinkKey]:
        """Canonical keys of the path's links."""
        return self._path_links(path)[1]

    def _link_factor(self, path: AsPath, day_ordinal: int) -> float:
        """Product of local-pref x quality over the path's links."""
        factor = 1.0
        for link in self.links(path):
            quality = self._quality_fn(link, day_ordinal)
            if not 0.0 < quality <= 1.0:
                raise ValueError(
                    f"quality_fn returned {quality} for link {link.key}; "
                    "must be in (0, 1]"
                )
            factor *= quality * link.pref
        return factor

    def path_weights(
        self, candidates: Sequence[AsPath], day_ordinal: int
    ) -> np.ndarray:
        """Unnormalized selection weights for an ordered candidate list."""
        weights = np.empty(len(candidates))
        tier_index = -1
        within = 0
        last_tier = None
        for i, path in enumerate(candidates):
            tier = (path.used_up, path.used_peer, path.n_hops)
            if tier != last_tier:
                tier_index += 1
                within = 0
                last_tier = tier
            else:
                within += 1
            weights[i] = (
                self._rank_decay**tier_index
                * self._within_decay**within
                * self._link_factor(path, day_ordinal)
            )
        return weights

    def select(
        self,
        src: int,
        dst: int,
        day_ordinal: int,
        excluded: FrozenSet[LinkKey],
        rng: np.random.Generator,
    ) -> Optional[AsPath]:
        """Pick the AS path a test uses on a given day (None if unreachable)."""
        candidates = self.candidates(src, dst, excluded)
        if not candidates:
            return None
        weights = self.path_weights(candidates, day_ordinal)
        total = weights.sum()
        if total <= 0.0:
            return candidates[0]
        idx = rng.choice(len(candidates), p=weights / total)
        return candidates[int(idx)]

    def cache_size(self) -> int:
        return len(self._path_cache)


def _stable_rng(*parts: int) -> np.random.Generator:
    """A generator seeded purely by its integer arguments (process-stable)."""
    import hashlib

    data = ",".join(str(p) for p in parts).encode("ascii")
    seed = int.from_bytes(hashlib.blake2s(data, digest_size=8).digest(), "little")
    return np.random.Generator(np.random.PCG64(seed))


class StickyRouter:
    """BGP-like route stability on top of :class:`RouteSelector`.

    Real inter-domain routes do not change per flow: an AS pair keeps one
    selected route until an event (failure, policy/traffic-engineering
    change) replaces it.  The sticky router therefore:

    * gives each (src, dst) pair a *frozen Gumbel-max* choice: candidate
      scores are ``log(weight) + pair_noise + EPOCH_JITTER * epoch_noise``,
      where the pair noise never changes.  Across many pairs the selected
      routes follow the weight distribution (so local-prefs and quality
      shape aggregate shares), while each single pair keeps its route until
      the underlying weights move — exactly how a degrading upstream (the
      Figure-6 AS 6663 ramp) sheds pairs one by one.  The small
      epoch-scoped noise adds the occasional routine reconvergence.
    * fails over deterministically-for-the-day when the sticky route
      traverses a link that is down, and reverts once it is repaired —
      wartime outages are what inject the *new* paths of Table 2.

    Every draw is seeded by its arguments alone, so the router resolves
    each (src, dst, epoch) choice and each (src, dst, day, down set)
    failover once and returns the same path on a repeat.  That assumes the
    selector's ``quality_fn`` is a function of (link, day) for the router's
    lifetime.  A call that raises is not remembered and raises again.
    """

    #: Relative strength of the per-epoch jitter vs the frozen pair noise.
    #: Kept small: routine reconvergence is rare next to genuine
    #: quality-driven migration, or baseline path churn would swamp the
    #: war signal (DESIGN.md ablation 1).
    EPOCH_JITTER = 0.2

    def __init__(self, selector: RouteSelector, seed: int, epoch_days: int = 14):
        if epoch_days < 1:
            raise ValueError(f"epoch_days must be >= 1, got {epoch_days}")
        self._selector = selector
        self._seed = int(seed)
        self._epoch_days = epoch_days
        self._epoch_choice: dict = {}
        self._offsets: Dict[Tuple[int, int], int] = {}
        self._pair_noise: Dict[Tuple[int, int, Tuple[int, ...]], float] = {}
        self._failovers: Dict[Tuple[int, int, int, FrozenSet[LinkKey]], Optional[AsPath]] = {}

    def _pair_offset(self, src: int, dst: int) -> int:
        offset = self._offsets.get((src, dst))
        if offset is None:
            offset = int(_stable_rng(self._seed, src, dst, 1).integers(self._epoch_days))
            self._offsets[(src, dst)] = offset
        return offset

    @staticmethod
    def _gumbel(rng: np.random.Generator) -> float:
        u = rng.random()
        return -np.log(-np.log(min(max(u, 1e-12), 1.0 - 1e-12)))

    def _frozen_noise(self, src: int, dst: int, path: AsPath) -> float:
        key = (src, dst, path.asns)
        noise = self._pair_noise.get(key)
        if noise is None:
            noise = self._gumbel(_stable_rng(self._seed, src, dst, *path.asns))
            self._pair_noise[key] = noise
        return noise

    def _choose(self, src: int, dst: int, epoch: int, epoch_start: int) -> Optional[AsPath]:
        candidates = self._selector.candidates(src, dst, frozenset())
        if not candidates:
            return None
        weights = self._selector.path_weights(candidates, epoch_start)
        best_index = 0
        best_score = -np.inf
        for i, (path, weight) in enumerate(zip(candidates, weights)):
            if weight <= 0:
                continue
            pair_noise = self._frozen_noise(src, dst, path)
            epoch_noise = self._gumbel(
                _stable_rng(self._seed, src, dst, epoch, *path.asns)
            )
            score = float(np.log(weight)) + pair_noise + self.EPOCH_JITTER * epoch_noise
            if score > best_score:
                best_score = score
                best_index = i
        return candidates[best_index]

    def route(
        self,
        src: int,
        dst: int,
        day_ordinal: int,
        down_links: FrozenSet[LinkKey] = frozenset(),
    ) -> Optional[AsPath]:
        """The route in effect for (src, dst) on a day (None if partitioned)."""
        offset = self._pair_offset(src, dst)
        epoch = (day_ordinal + offset) // self._epoch_days
        key = (src, dst, epoch)
        if key not in self._epoch_choice:
            epoch_start = epoch * self._epoch_days - offset
            self._epoch_choice[key] = self._choose(src, dst, epoch, epoch_start)
        path = self._epoch_choice[key]
        if path is None:
            return None
        if down_links and not self._selector.link_keys(path).isdisjoint(down_links):
            return self._failover(src, dst, day_ordinal, down_links)
        return path

    def _failover(
        self, src: int, dst: int, day_ordinal: int, down_links: FrozenSet[LinkKey]
    ) -> Optional[AsPath]:
        key = (src, dst, day_ordinal, down_links)
        if key not in self._failovers:
            rng = _stable_rng(self._seed, src, dst, day_ordinal, 2)
            self._failovers[key] = self._selector.select(
                src, dst, day_ordinal, down_links, rng
            )
        return self._failovers[key]
