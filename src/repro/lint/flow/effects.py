"""The effect lattice: direct effects, transitive propagation, purity gate.

The lattice is the powerset of :data:`EFFECTS` ordered by inclusion —
bottom is the empty set (pure), join is set union.  Inference is a
monotone fixpoint over the call graph:

    effects(f) = direct(f) ∪ ⋃ { effects(g) : f calls g, g not a seam }

Monotonicity (adding a call edge can only grow an effect set) is what the
hypothesis property test in ``tests/lint/flow`` pins down; it is also why
the fixpoint terminates — each iteration only adds elements of a finite
set.

Sanctioned seams are modules whose *job* is the effect — the rows of the
seam table in :mod:`repro.lint.seams`: ``util/rng.py`` (seeded
randomness), ``repro/obs/`` (the clock shim and metrics),
``repro/storage/`` (atomic artifact writes).  A call into a seam does not
propagate the seam's raw effects to the caller; it records the seam's
name in the caller's ``sanctioned`` set instead, so ``effects.json``
still shows which seams a function ultimately leans on.  The kernel
purity gate (:func:`check_kernel_purity`) then has a precise statement:
functions reachable from ``tables/kernels.py`` / ``stats/`` must have an
*empty raw effect set* — seams are fine, bare effects are findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.flow.callgraph import Project
from repro.lint.flow.summarize import DirectEffect
from repro.lint.seams import seam_allows, seam_of

__all__ = [
    "EFFECTS",
    "EffectAnalysis",
    "check_kernel_purity",
    "check_network_seam",
    "infer_effects",
]

#: The effect alphabet, in canonical report order.
EFFECTS: Tuple[str, ...] = (
    "rng",
    "reads-clock",
    "filesystem-write",
    "global-mutation",
    "network",
)

#: Path fragments whose functions the purity gate covers (roots).
DEFAULT_KERNEL_PACKAGES: Tuple[str, ...] = (
    "repro/tables/kernels.py",
    "repro/stats/",
    # The lazy layer executes kernels: expression evaluation, the plan
    # nodes/optimizer and the executor must stay effect-free (obs is a
    # sanctioned seam) or optimized plans could diverge from eager runs.
    "repro/tables/expr.py",
    "repro/tables/plan/nodes.py",
    "repro/tables/plan/optimizer.py",
    "repro/tables/plan/executor.py",
)


@dataclass
class EffectAnalysis:
    """Fixpoint result: per-function raw effects and seams leaned on."""

    #: qualname → frozen raw effect set (transitive, seams excluded)
    effects: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: qualname → frozen seam-name set (transitive)
    sanctioned: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    project: Optional[Project] = None

    def effects_of(self, qualname: str) -> FrozenSet[str]:
        return self.effects.get(qualname, frozenset())

    def sanctioned_of(self, qualname: str) -> FrozenSet[str]:
        return self.sanctioned.get(qualname, frozenset())

    def witness_path(
        self, root: str, effect: str
    ) -> Optional[List[Tuple[str, Optional[DirectEffect]]]]:
        """Shortest call chain from ``root`` to a direct source of ``effect``.

        Returns ``[(qualname, None), ..., (qualname, DirectEffect)]`` or
        ``None`` when the root does not carry the effect.  Deterministic:
        BFS over sorted callee lists.
        """
        if self.project is None or effect not in self.effects_of(root):
            return None
        parents: Dict[str, Optional[str]] = {root: None}
        queue = [root]
        while queue:
            current = queue.pop(0)
            info = self.project.functions.get(current)
            if info is not None:
                for direct in info.direct_effects:
                    if direct.effect == effect:
                        chain: List[Tuple[str, Optional[DirectEffect]]] = []
                        node: Optional[str] = current
                        while node is not None:
                            chain.append((node, None))
                            node = parents[node]
                        chain.reverse()
                        chain[-1] = (current, direct)
                        return chain
            for callee in self.project.callees_of(current):
                callee_info = self.project.functions.get(callee)
                if callee_info is not None and seam_of(callee_info.relpath):
                    continue
                if callee not in parents and effect in self.effects_of(callee):
                    parents[callee] = current
                    queue.append(callee)
        return None


def infer_effects(project: Project) -> EffectAnalysis:
    """Run the monotone fixpoint over the whole project call graph."""
    direct: Dict[str, FrozenSet[str]] = {}
    is_seam: Dict[str, Optional[str]] = {}
    for qual, info in project.functions.items():
        direct[qual] = frozenset(e.effect for e in info.direct_effects)
        is_seam[qual] = seam_of(info.relpath)

    effects: Dict[str, FrozenSet[str]] = dict(direct)
    sanctioned: Dict[str, FrozenSet[str]] = {q: frozenset() for q in direct}

    # Round-robin to fixpoint.  The lattice height is |EFFECTS| + |seams|
    # per function, so this terminates quickly; deterministic because the
    # iteration order is sorted and join is commutative anyway.
    order = sorted(project.functions)
    changed = True
    while changed:
        changed = False
        for qual in order:
            raw = set(effects[qual])
            seams = set(sanctioned[qual])
            for callee in project.callees_of(qual):
                callee_seam = is_seam.get(callee)
                if callee_seam is not None:
                    seams.add(callee_seam)
                    continue
                raw |= effects.get(callee, frozenset())
                seams |= sanctioned.get(callee, frozenset())
            if raw != set(effects[qual]) or seams != set(sanctioned[qual]):
                effects[qual] = frozenset(raw)
                sanctioned[qual] = frozenset(seams)
                changed = True
    return EffectAnalysis(effects=effects, sanctioned=sanctioned, project=project)


def _format_witness(
    analysis: EffectAnalysis, root: str, effect: str
) -> str:
    chain = analysis.witness_path(root, effect)
    if not chain:
        return effect
    # Show bare function names; the diagnostic's path/line carry the rest.
    shown = " -> ".join(qual.split(".")[-1] for qual, _ in chain)
    terminal = chain[-1][1]
    if terminal is not None:
        info = analysis.project.functions.get(chain[-1][0]) if analysis.project \
            else None
        where = f"{info.relpath}:{terminal.line}" if info else f"l{terminal.line}"
        return f"{effect} via {shown} ({terminal.detail} at {where})"
    return f"{effect} via {shown}"


def check_kernel_purity(
    analysis: EffectAnalysis,
    kernel_packages: Iterable[str] = DEFAULT_KERNEL_PACKAGES,
) -> List[Diagnostic]:
    """``impure-kernel``: effectful functions reachable from kernels/stats.

    One diagnostic per kernel-package *root* function that carries raw
    effects, anchored at the root's ``def`` line and carrying a witness
    call chain to the nearest direct effect.
    """
    assert analysis.project is not None
    findings: List[Diagnostic] = []
    fragments = tuple(kernel_packages)
    for qual in sorted(analysis.project.functions):
        info = analysis.project.functions[qual]
        if not any(fragment in info.relpath for fragment in fragments):
            continue
        raw = analysis.effects_of(qual)
        if not raw:
            continue
        witnesses = "; ".join(
            _format_witness(analysis, qual, effect) for effect in EFFECTS
            if effect in raw
        )
        findings.append(
            Diagnostic(
                rule="impure-kernel",
                severity=Severity.ERROR,
                path=info.relpath,
                line=info.line,
                col=0,
                message=(
                    f"kernel/stats function {info.name!r} is not effect-free: "
                    f"{witnesses}; route the effect through a sanctioned seam "
                    f"(util/rng.py, obs clock, storage) or hoist it out of "
                    f"the kernel"
                ),
            )
        )
    return findings


def check_network_seam(analysis: EffectAnalysis) -> List[Diagnostic]:
    """``unsanctioned-network``: socket/HTTP use outside ``repro/obs/live/``.

    The health service (``obs.live``, the one seam whose row allows
    ``network``) is the repo's one sanctioned network seam; everything
    else in ``src/`` is an offline pipeline over a synthetic dataset, so a
    *direct* network effect anywhere else is a finding.  Direct effects
    only — a caller that reaches the network through the seam records
    ``obs.live`` in its sanctioned set instead, and flagging every
    transitive caller of one offender would bury the actual call site.
    Anchored at the offending call, not the ``def``.
    """
    assert analysis.project is not None
    findings: List[Diagnostic] = []
    for qual in sorted(analysis.project.functions):
        info = analysis.project.functions[qual]
        if seam_allows(seam_of(info.relpath), "network"):
            continue
        for direct in info.direct_effects:
            if direct.effect != "network":
                continue
            findings.append(
                Diagnostic(
                    rule="unsanctioned-network",
                    severity=Severity.ERROR,
                    path=info.relpath,
                    line=direct.line,
                    col=0,
                    message=(
                        f"function {info.name!r} touches the network "
                        f"({direct.detail}) outside the sanctioned seam "
                        f"repro/obs/live/; move the I/O behind the health "
                        f"service or drop it"
                    ),
                )
            )
    return findings
