"""``Table.lazy()``: the deferred, optimizer-driven query API.

A :class:`Plan` wraps a logical plan tree and mirrors the eager ``Table``
verbs — ``filter``, ``select``, ``sort_by``, ``join``, ``group_by(...)
.aggregate(...)`` — but builds nodes instead of executing.  ``collect()``
optimizes the tree (predicate pushdown, projection pruning, filter
fusion, fused filter→aggregate) and runs it through the default
executor, optionally against the process-wide content-fingerprint reuse
cache.  ``explain()`` renders the before/after trees, which is also what
``repro plan explain`` prints.

>>> from repro.tables import Table, col
>>> t = Table.from_dict({"k": ["a", "b", "a"], "v": [1.0, 2.0, 3.0]})
>>> plan = t.lazy().filter(col("v") > 1.0).group_by("k").aggregate(
...     {"n": ("v", "count")}
... )
>>> plan.collect().sort_by("k").to_dicts()
[{'k': 'a', 'n': 1}, {'k': 'b', 'n': 1}]
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

from repro import obs
from repro.tables.plan import executor as _executor
from repro.tables.plan import optimizer as _optimizer
from repro.tables.plan.nodes import (
    Filter,
    GroupByAgg,
    Join,
    PlanNode,
    Project,
    Scan,
    Sort,
    render,
    spec_as_items,
)

__all__ = ["LazyGroupBy", "Plan"]


class Plan:
    """A deferred relational query over one or more tables."""

    def __init__(self, node: PlanNode):
        self._node = node

    # -- builders ----------------------------------------------------------
    def filter(self, predicate) -> "Plan":
        """Defer a row filter (an ``Expr`` or a raw boolean mask)."""
        return Plan(Filter(self._node, predicate))

    def select(self, names: Sequence[str]) -> "Plan":
        """Defer a projection onto ``names``, in order."""
        return Plan(Project(self._node, names))

    def sort_by(
        self, names: Union[str, Sequence[str]], descending: bool = False
    ) -> "Plan":
        """Defer a stable sort."""
        if isinstance(names, str):
            names = [names]
        return Plan(Sort(self._node, names, descending))

    def join(
        self,
        other,
        on: Union[str, Sequence[str]],
        how: str = "inner",
        suffix: str = "_right",
    ) -> "Plan":
        """Defer a join; ``other`` may be another :class:`Plan` or a table."""
        if isinstance(on, str):
            on = [on]
        right = other._node if isinstance(other, Plan) else Scan(other)
        return Plan(Join(self._node, right, on, how, suffix))

    def group_by(self, keys: Union[str, Sequence[str]]) -> "LazyGroupBy":
        """Defer a grouping; finish with ``.aggregate(spec)``."""
        if isinstance(keys, str):
            keys = [keys]
        return LazyGroupBy(self._node, tuple(keys))

    # -- introspection -----------------------------------------------------
    def optimized(self) -> Tuple[PlanNode, Dict[str, int]]:
        """The optimized tree plus the rewrite-rule tally."""
        return _optimizer.optimize(self._node)

    def explain(self) -> str:
        """Before/after tree rendering plus applied rewrite counts."""
        optimized, counts = self.optimized()
        lines = ["logical plan:", _indent(render(self._node))]
        lines += ["optimized plan:", _indent(render(optimized))]
        if counts:
            applied = "  ".join(
                f"{rule}={n}" for rule, n in sorted(counts.items())
            )
        else:
            applied = "(none)"
        lines.append(f"rewrites: {applied}")
        return "\n".join(lines)

    # -- execution ---------------------------------------------------------
    def collect(self, optimize: bool = True, reuse: bool = True):
        """Execute the plan and return the result :class:`Table`.

        ``optimize=False`` runs the raw logical tree (the eager-equivalent
        oracle); ``reuse=False`` skips the content-fingerprint subplan
        cache.
        """
        node = self._node
        counts: Dict[str, int] = {}
        if optimize:
            node, counts = _optimizer.optimize(node)
        cache = _executor.global_plan_cache() if reuse else None
        with obs.span(
            "plan.collect",
            metric="plan.collect_ms",
            optimized=bool(optimize),
            rewrites=sum(counts.values()),
        ):
            return _executor.execute(node, cache=cache)

    def __repr__(self) -> str:
        return f"Plan({self._node.label()})"


class LazyGroupBy:
    """The deferred counterpart of :class:`repro.tables.groupby.GroupBy`."""

    def __init__(self, node: PlanNode, keys: Tuple[str, ...]):
        self._node = node
        self._keys = keys

    def aggregate(self, spec) -> Plan:
        """Defer ``{out: (src, how)}`` aggregation over the grouping."""
        return Plan(GroupByAgg(self._node, self._keys, spec_as_items(spec)))

    def __repr__(self) -> str:
        return f"LazyGroupBy(keys={list(self._keys)})"


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


def lazy_scan(table) -> Plan:
    """Entry point used by ``Table.lazy()``."""
    return Plan(Scan(table))
