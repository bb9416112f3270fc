"""Per-file distillation: one AST pass producing a cacheable ModuleSummary.

Everything the whole-program passes need from a file is extracted here in a
single walk and serialized as plain JSON types, so the analyzer can cache
summaries by content hash and skip re-parsing unchanged files on warm runs.

What gets recorded per function (including nested functions and methods):

* the calls it makes, each resolved as far as one file allows — to a
  sibling/enclosing definition (``project`` ref), through the module's
  import table to an absolute dotted path (``absolute`` ref), or left
  ``dynamic`` when the callee is a runtime value;
* its *direct* effects (clock reads, rng, filesystem writes, mutation of
  module-level or closed-over state, network), found by pattern-matching
  call sites and assignment targets against the shared vocabulary in
  :mod:`repro.lint.seams` and the tables below;
* the string keys it reads out of each parameter via ``param["key"]`` /
  ``param.get("key", ...)`` — the raw material of the stage-contract check.

Module-level facts: the import alias table (needed again at link time to
follow re-export chains) and every ``Stage(...)`` construction site with
its literal name, resolved ``fn`` and declared ``inputs``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.lint.seams import (
    CLOCK_READS,
    NETWORK_MODULES,
    SEEDED_CONSTRUCTORS,
    WRITE_METHODS,
    WRITE_MODE_CHARS,
    dotted_name,
    mode_literal,
)

__all__ = [
    "CallRef",
    "DirectEffect",
    "FunctionInfo",
    "ModuleSummary",
    "StageSite",
    "module_name_for",
    "summarize_source",
]

#: Bump whenever effect detection changes, so cached summaries are redone.
SUMMARY_VERSION = 2

#: os/shutil calls that mutate the filesystem.
_FS_WRITE_CALLS = frozenset(
    {
        "os.remove", "os.unlink", "os.rename", "os.replace", "os.rmdir",
        "os.makedirs", "os.mkdir", "os.truncate", "os.symlink", "os.link",
        "os.chmod", "os.dup2", "shutil.rmtree", "shutil.copy",
        "shutil.copyfile", "shutil.copytree", "shutil.move",
    }
)

#: Clock-reading datetime constructors.
_CLOCK_CALLS = frozenset(
    {"datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today"}
)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "clear", "pop", "popitem",
        "add", "discard", "update", "setdefault", "sort", "reverse",
    }
)

#: The class whose construction sites carry stage contracts.
_STAGE_CLASS = "repro.runtime.pipeline.Stage"


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/repro/tables/kernels.py`` → ``repro.tables.kernels``;
    ``repro/obs/__init__.py`` → ``repro.obs``.
    """
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass(frozen=True)
class CallRef:
    """One call site, resolved as far as a single file allows."""

    raw: str  # the dotted name as written ("obs.span", "factorize")
    target: str  # resolved qualname / absolute dotted path ("" when dynamic)
    kind: str  # "project" | "absolute" | "dynamic"
    line: int

    def to_json(self) -> Dict[str, Any]:
        return {"raw": self.raw, "target": self.target,
                "kind": self.kind, "line": self.line}

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "CallRef":
        return cls(d["raw"], d["target"], d["kind"], d["line"])


@dataclass(frozen=True)
class DirectEffect:
    """One effect a function performs with its own hands."""

    effect: str  # one of effects.EFFECTS
    line: int
    detail: str  # what matched, e.g. "call to time.perf_counter"

    def to_json(self) -> Dict[str, Any]:
        return {"effect": self.effect, "line": self.line, "detail": self.detail}

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "DirectEffect":
        return cls(d["effect"], d["line"], d["detail"])


@dataclass
class FunctionInfo:
    """Everything the whole-program passes need to know about one function."""

    qualname: str  # "repro.runtime.run._build_stages.ingest"
    module: str
    relpath: str
    line: int
    name: str
    params: Tuple[str, ...] = ()
    calls: Tuple[CallRef, ...] = ()
    direct_effects: Tuple[DirectEffect, ...] = ()
    #: param/local name → sorted string keys *hard*-read via ``name[key]``
    #: (raises if absent, so the key must exist on every execution path)
    subscript_reads: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: param/local name → sorted string keys *soft*-read via ``.get(key, ...)``
    #: (tolerates absence — weaker contract obligation than a hard read)
    get_reads: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: names subscripted with a non-literal key (reads unknowable statically)
    dynamic_reads: Tuple[str, ...] = ()
    is_method: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "relpath": self.relpath,
            "line": self.line,
            "name": self.name,
            "params": list(self.params),
            "calls": [c.to_json() for c in self.calls],
            "direct_effects": [e.to_json() for e in self.direct_effects],
            "subscript_reads": {k: list(v) for k, v in self.subscript_reads.items()},
            "get_reads": {k: list(v) for k, v in self.get_reads.items()},
            "dynamic_reads": list(self.dynamic_reads),
            "is_method": self.is_method,
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "FunctionInfo":
        return cls(
            qualname=d["qualname"],
            module=d["module"],
            relpath=d["relpath"],
            line=d["line"],
            name=d["name"],
            params=tuple(d["params"]),
            calls=tuple(CallRef.from_json(c) for c in d["calls"]),
            direct_effects=tuple(
                DirectEffect.from_json(e) for e in d["direct_effects"]
            ),
            subscript_reads={
                k: tuple(v) for k, v in d["subscript_reads"].items()
            },
            get_reads={k: tuple(v) for k, v in d["get_reads"].items()},
            dynamic_reads=tuple(d["dynamic_reads"]),
            is_method=d["is_method"],
        )


@dataclass
class StageSite:
    """One ``Stage(...)`` construction found in source."""

    relpath: str
    line: int
    col: int
    name: Optional[str]  # literal stage name, None when dynamic
    fn_target: str  # resolved qualname of the fn argument ("" when dynamic)
    inputs: Tuple[str, ...]  # union of literal input names over all branches
    #: one tuple per conditional arm of the ``inputs=`` expression — a plain
    #: literal has one arm; ``(a,) if flag else (b,)`` has two.  A hard read
    #: must be declared in *every* arm or the lineage DAG drops the edge
    #: whenever the omitting arm is taken.
    input_arms: Tuple[Tuple[str, ...], ...] = ()
    inputs_dynamic: bool = False  # a non-literal input element was present
    has_inputs_kw: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "relpath": self.relpath,
            "line": self.line,
            "col": self.col,
            "name": self.name,
            "fn_target": self.fn_target,
            "inputs": list(self.inputs),
            "input_arms": [list(arm) for arm in self.input_arms],
            "inputs_dynamic": self.inputs_dynamic,
            "has_inputs_kw": self.has_inputs_kw,
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "StageSite":
        return cls(
            relpath=d["relpath"],
            line=d["line"],
            col=d["col"],
            name=d["name"],
            fn_target=d["fn_target"],
            inputs=tuple(d["inputs"]),
            input_arms=tuple(tuple(arm) for arm in d["input_arms"]),
            inputs_dynamic=d["inputs_dynamic"],
            has_inputs_kw=d["has_inputs_kw"],
        )


@dataclass
class ModuleSummary:
    """The distilled, JSON-round-trippable view of one source file."""

    relpath: str
    module: str
    source_hash: str
    imports: Dict[str, str] = field(default_factory=dict)  # alias → dotted
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    stage_sites: Tuple[StageSite, ...] = ()
    module_level_names: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": SUMMARY_VERSION,
            "relpath": self.relpath,
            "module": self.module,
            "source_hash": self.source_hash,
            "imports": dict(self.imports),
            "functions": {q: f.to_json() for q, f in self.functions.items()},
            "stage_sites": [s.to_json() for s in self.stage_sites],
            "module_level_names": list(self.module_level_names),
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            relpath=d["relpath"],
            module=d["module"],
            source_hash=d["source_hash"],
            imports=dict(d["imports"]),
            functions={
                q: FunctionInfo.from_json(f) for q, f in d["functions"].items()
            },
            stage_sites=tuple(StageSite.from_json(s) for s in d["stage_sites"]),
            module_level_names=tuple(d["module_level_names"]),
        )


def _stored_names(fn_node: ast.AST) -> Set[str]:
    """Every name the function body binds, nested scopes excluded.

    Python scoping makes a name local from the function's *first* line if it
    is stored *anywhere* in the body, so binding analysis must not depend on
    traversal order.
    """
    stored: Set[str] = set()

    def walk(node: ast.AST, top: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    stored.add(child.name)
                continue
            if isinstance(child, ast.ClassDef):
                stored.add(child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                stored.add(child.id)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    stored.add(
                        alias.asname or alias.name.split(".")[0]
                    )
            walk(child, False)

    walk(fn_node, True)
    return stored


def _collect_input_arms(expr: ast.expr) -> Tuple[List[Tuple[str, ...]], bool]:
    """Literal strings of an ``inputs=`` expression, one tuple per IfExp arm.

    A plain tuple/list yields a single arm; conditional expressions yield
    one arm per alternative (nested conditionals flatten).  Returns
    ``(arms, dynamic)`` where ``dynamic`` means a non-literal element or
    shape was present and the literal view is incomplete.
    """
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        literals: List[str] = []
        dynamic = False
        for elt in expr.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                literals.append(elt.value)
            else:
                dynamic = True
        return [tuple(sorted(set(literals)))], dynamic
    if isinstance(expr, ast.IfExp):
        arms: List[Tuple[str, ...]] = []
        dynamic = False
        for arm in (expr.body, expr.orelse):
            sub, dyn = _collect_input_arms(arm)
            arms.extend(sub)
            dynamic = dynamic or dyn
        return arms, dynamic
    if isinstance(expr, ast.Constant) and expr.value in ((), None):
        return [()], False
    return [], True


class _Scope:
    """One lexical scope: names it binds and definitions it contains."""

    def __init__(self, qualname: str, kind: str):
        self.qualname = qualname  # "" for the module scope
        self.kind = kind  # "module" | "function" | "class"
        self.defs: Dict[str, Tuple[str, str]] = {}  # name → (qualname, kind)
        self.bound: Set[str] = set()  # every name assigned in this scope


class _Summarizer(ast.NodeVisitor):
    """The single AST walk behind :func:`summarize_source`."""

    def __init__(self, relpath: str, module: str):
        self.relpath = relpath
        self.module = module
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.stage_sites: List[StageSite] = []
        self.scopes: List[_Scope] = [_Scope("", "module")]
        # Per-function accumulators, stacked for nested defs.
        self._fn_stack: List[Dict[str, Any]] = []

    # -- scope bookkeeping ---------------------------------------------------
    def _qual(self, name: str) -> str:
        path = [s.qualname.rsplit(".", 1)[-1] for s in self.scopes[1:]]
        prefix = [self.module] if self.module else []
        return ".".join(prefix + path + [name])

    def _current_fn(self) -> Optional[Dict[str, Any]]:
        return self._fn_stack[-1] if self._fn_stack else None

    def _is_local(self, name: str) -> bool:
        """Bound in the innermost function (or class-body) scope?"""
        for scope in reversed(self.scopes):
            if scope.kind in ("function", "class"):
                return name in scope.bound
        return name in self.scopes[0].bound

    def _names_shared_state(self, name: str) -> bool:
        """Is ``name`` module-level or closed-over (enclosing-scope) state?"""
        for scope in reversed(self.scopes[:-1]):
            if name in scope.bound or name in scope.defs:
                return scope.kind in ("module", "function")
        return False

    def _shared_kind(self, name: str) -> str:
        for scope in reversed(self.scopes[:-1]):
            if name in scope.bound or name in scope.defs:
                return "module-level" if scope.kind == "module" else "closed-over"
        return "module-level"

    def _is_module_import_alias(self, name: str) -> bool:
        """Does ``name`` resolve to a module-level import?

        ``np.append(...)`` calls a function *from* numpy; it does not mutate
        ``np``.  Without this, every module alias whose attribute happens to
        share a name with ``list.append``/``dict.update`` would read as
        global mutation.
        """
        for scope in reversed(self.scopes[:-1]):
            if name in scope.bound or name in scope.defs:
                return scope.kind == "module" and name in self.imports
        return False

    # -- resolution ----------------------------------------------------------
    def _resolve(self, dotted: str) -> Tuple[str, str]:
        """Resolve a dotted name to ('project'|'absolute'|'dynamic', target)."""
        head, _, rest = dotted.partition(".")
        if head == "self":
            for scope in reversed(self.scopes):
                if scope.kind == "class":
                    target = scope.qualname + ("." + rest if rest else "")
                    return "project", target
            return "dynamic", ""
        for scope in reversed(self.scopes):
            if head in scope.defs:
                qual, _kind = scope.defs[head]
                return "project", qual + ("." + rest if rest else "")
            if head in scope.bound:
                if scope.kind == "module" and head in self.imports:
                    break  # module-level import alias: resolve below
                return "dynamic", ""  # shadowed by a local runtime value
        if head in self.imports:
            target = self.imports[head] + ("." + rest if rest else "")
            return "absolute", target
        return "dynamic", ""

    # -- imports -------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.imports[local] = target
            self.scopes[-1].bound.add(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # Relative import: ``from .x import y`` resolves against this
            # module's package.  An __init__.py *is* its package, so one
            # level of dots drops nothing there; elsewhere it drops the
            # module's own name.
            pkg = self.module.split(".")
            keep = len(pkg) - node.level
            if self.relpath.endswith("__init__.py"):
                keep += 1
            anchor = pkg[: max(keep, 0)]
            base = ".".join(anchor + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.imports[local] = f"{base}.{alias.name}" if base else alias.name
            self.scopes[-1].bound.add(local)

    # -- definitions ---------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual(node.name)
        self.scopes[-1].defs[node.name] = (qual, "class")
        self.scopes[-1].bound.add(node.name)
        for deco in node.decorator_list:
            self.visit(deco)
        for base in node.bases:
            self.visit(base)
        scope = _Scope(qual, "class")
        self.scopes.append(scope)
        for child in node.body:
            self.visit(child)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        qual = self._qual(node.name)
        self.scopes[-1].defs[node.name] = (qual, "function")
        self.scopes[-1].bound.add(node.name)
        in_class = self.scopes[-1].kind == "class"
        args = node.args
        params = tuple(
            a.arg
            for a in (
                list(getattr(args, "posonlyargs", [])) + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        )
        # Decorator and default expressions evaluate in the enclosing scope.
        for deco in node.decorator_list:
            self.visit(deco)
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            self.visit(default)
        fn_acc: Dict[str, Any] = {
            "calls": [],
            "effects": [],
            "reads": {},
            "get_reads": {},
            "dynamic_reads": set(),
            "globals": set(),
        }
        scope = _Scope(qual, "function")
        scope.bound.update(params)
        # Pre-bind every name the body stores anywhere: Python scoping makes
        # them local from line one, so mutation checks must not depend on
        # whether the binding statement has been walked yet.
        scope.bound.update(_stored_names(node))
        self.scopes.append(scope)
        self._fn_stack.append(fn_acc)
        for child in node.body:
            if isinstance(child, ast.Global):
                fn_acc["globals"].update(child.names)
        for child in node.body:
            self.visit(child)
        self._fn_stack.pop()
        self.scopes.pop()
        self.functions[qual] = FunctionInfo(
            qualname=qual,
            module=self.module,
            relpath=self.relpath,
            line=node.lineno,
            name=node.name,
            params=params,
            calls=tuple(fn_acc["calls"]),
            direct_effects=tuple(fn_acc["effects"]),
            subscript_reads={
                k: tuple(sorted(v)) for k, v in sorted(fn_acc["reads"].items())
            },
            get_reads={
                k: tuple(sorted(v))
                for k, v in sorted(fn_acc["get_reads"].items())
            },
            dynamic_reads=tuple(sorted(fn_acc["dynamic_reads"])),
            is_method=in_class,
        )

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda body charges its calls/effects to whoever defined it.
        scope = _Scope(self._qual("<lambda>"), "function")
        scope.bound.update(a.arg for a in node.args.args)
        self.scopes.append(scope)
        self.visit(node.body)
        self.scopes.pop()

    # -- name binding and stores ---------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            fn = self._current_fn()
            if fn is not None and node.id in fn["globals"]:
                fn["effects"].append(
                    DirectEffect(
                        "global-mutation", node.lineno,
                        f"assignment to global {node.id!r}",
                    )
                )
            else:
                self.scopes[-1].bound.add(node.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target)
            self.visit(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target)
        self.visit(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store_target(node.target)
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def _check_store_target(self, target: ast.expr) -> None:
        """Flag ``shared[k] = v`` / ``shared.attr = v`` on non-local names."""
        fn = self._current_fn()
        if fn is None:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store_target(elt)
            return
        via = None
        base: ast.expr = target
        if isinstance(base, ast.Subscript):
            via, base = "subscript", base.value
        elif isinstance(base, ast.Attribute):
            via, base = "attribute", base.value
        if via is None:
            return
        dotted = dotted_name(base)
        if dotted is None:
            return
        head = dotted.split(".")[0]
        if self._is_local(head):
            return
        if self._is_module_import_alias(head) or head in self.imports:
            # e.g. ``os.environ["X"] = ...`` — interpreter-global state
            # owned by another module (``from os import environ`` included).
            kind, resolved = self._resolve(dotted)
            if kind == "absolute" and not resolved.startswith("repro"):
                fn["effects"].append(
                    DirectEffect(
                        "global-mutation", target.lineno,
                        f"{via} store on module {resolved!r}",
                    )
                )
        elif self._names_shared_state(head):
            fn["effects"].append(
                DirectEffect(
                    "global-mutation", target.lineno,
                    f"{via} store on {self._shared_kind(head)} {head!r}",
                )
            )

    # -- subscript reads (stage-contract raw material) -----------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        fn = self._current_fn()
        if (
            fn is not None
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
        ):
            name = node.value.id
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                fn["reads"].setdefault(name, set()).add(key.value)
            else:
                fn["dynamic_reads"].add(name)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._maybe_stage_site(node)
        self._record_get_read(node)
        fn = self._current_fn()
        dotted = dotted_name(node.func)
        if fn is not None:
            if dotted is not None:
                kind, target = self._resolve(dotted)
                fn["calls"].append(
                    CallRef(raw=dotted, target=target, kind=kind,
                            line=node.lineno)
                )
                self._detect_call_effects(node, dotted, kind, target)
            self._detect_method_effects(node)
        self.generic_visit(node)

    def _record_get_read(self, node: ast.Call) -> None:
        fn = self._current_fn()
        if (
            fn is not None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.args
        ):
            key = node.args[0]
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                fn["get_reads"].setdefault(
                    node.func.value.id, set()
                ).add(key.value)
            else:
                fn["dynamic_reads"].add(node.func.value.id)

    def _detect_call_effects(
        self, node: ast.Call, dotted: str, kind: str, target: str
    ) -> None:
        fn = self._current_fn()
        assert fn is not None
        line = node.lineno
        if dotted == "open" and kind == "dynamic":
            mode = mode_literal(node)
            if mode is not None and (WRITE_MODE_CHARS & set(mode)):
                fn["effects"].append(
                    DirectEffect("filesystem-write", line,
                                 f"open(..., {mode!r})")
                )
            return
        resolved = target if kind == "absolute" else dotted
        parts = resolved.split(".")
        if resolved in _FS_WRITE_CALLS:
            fn["effects"].append(
                DirectEffect("filesystem-write", line, f"call to {resolved}")
            )
        elif resolved in _CLOCK_CALLS:
            fn["effects"].append(
                DirectEffect("reads-clock", line, f"call to {resolved}")
            )
        elif parts[0] == "time" and len(parts) == 2 and parts[1] in CLOCK_READS:
            fn["effects"].append(
                DirectEffect("reads-clock", line, f"call to {resolved}")
            )
        elif (
            len(parts) >= 3
            and parts[0] in ("numpy", "np")
            and parts[1] == "random"
            and parts[2] not in SEEDED_CONSTRUCTORS
        ):
            fn["effects"].append(DirectEffect("rng", line, f"call to {resolved}"))
        elif len(parts) >= 2 and parts[0] == "random":
            fn["effects"].append(DirectEffect("rng", line, f"call to {resolved}"))
        elif len(parts) >= 2 and parts[0] in NETWORK_MODULES:
            fn["effects"].append(
                DirectEffect("network", line, f"call to {resolved}")
            )

    def _detect_method_effects(self, node: ast.Call) -> None:
        """Receiver-based effects: pathlib writes, shared-state mutators."""
        fn = self._current_fn()
        if fn is None or not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        line = node.lineno
        if attr in WRITE_METHODS:
            fn["effects"].append(
                DirectEffect("filesystem-write", line, f".{attr}(...) write")
            )
            return
        if attr in _MUTATING_METHODS and isinstance(node.func.value, ast.Name):
            name = node.func.value.id
            if (
                not self._is_local(name)
                and self._names_shared_state(name)
                and not self._is_module_import_alias(name)
            ):
                fn["effects"].append(
                    DirectEffect(
                        "global-mutation", line,
                        f"{name}.{attr}(...) mutates "
                        f"{self._shared_kind(name)} state",
                    )
                )

    # -- Stage(...) construction sites ----------------------------------------
    def _maybe_stage_site(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        kind, target = self._resolve(dotted)
        if kind != "absolute" or target != _STAGE_CLASS:
            return
        name: Optional[str] = None
        fn_target = ""
        inputs: Set[str] = set()
        inputs_dynamic = False
        has_inputs_kw = False
        slots: Dict[str, ast.expr] = {}
        for i, arg in enumerate(node.args):
            if i == 0:
                slots["name"] = arg
            elif i == 1:
                slots["fn"] = arg
        for kw in node.keywords:
            if kw.arg in ("name", "fn", "inputs"):
                slots[kw.arg] = kw.value
        if "name" in slots:
            v = slots["name"]
            if isinstance(v, ast.Constant) and isinstance(v.value, str):
                name = v.value
        if "fn" in slots:
            fdotted = dotted_name(slots["fn"])
            if fdotted is not None:
                fkind, ftarget = self._resolve(fdotted)
                if fkind == "project":
                    fn_target = ftarget
        input_arms: Tuple[Tuple[str, ...], ...] = ((),)
        if "inputs" in slots:
            has_inputs_kw = True
            arms, inputs_dynamic = _collect_input_arms(slots["inputs"])
            input_arms = tuple(arms) or ((),)
            for arm in arms:
                inputs.update(arm)
        self.stage_sites.append(
            StageSite(
                relpath=self.relpath,
                line=node.lineno,
                col=node.col_offset,
                name=name,
                fn_target=fn_target,
                inputs=tuple(sorted(inputs)),
                input_arms=input_arms,
                inputs_dynamic=inputs_dynamic,
                has_inputs_kw=has_inputs_kw,
            )
        )


def summarize_source(
    source: str, relpath: str, source_hash: str = ""
) -> ModuleSummary:
    """Distil one file's source into a :class:`ModuleSummary`.

    Raises ``SyntaxError`` when the file does not parse — the analyzer skips
    unparseable files (the per-file pass already reported them).
    """
    tree = ast.parse(source, filename=relpath)
    module = module_name_for(relpath)
    summ = _Summarizer(relpath, module)
    # Pre-register every top-level def/class so forward references resolve:
    # by the time any module code *runs*, the whole module is loaded, so
    # ``def even(): return odd()`` legitimately calls a later definition.
    for child in tree.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summ.scopes[0].defs[child.name] = (summ._qual(child.name), "function")
            summ.scopes[0].bound.add(child.name)
        elif isinstance(child, ast.ClassDef):
            summ.scopes[0].defs[child.name] = (summ._qual(child.name), "class")
            summ.scopes[0].bound.add(child.name)
    for child in tree.body:
        summ.visit(child)
    return ModuleSummary(
        relpath=relpath,
        module=module,
        source_hash=source_hash,
        imports=summ.imports,
        functions=summ.functions,
        stage_sites=tuple(summ.stage_sites),
        module_level_names=tuple(sorted(summ.scopes[0].bound)),
    )
