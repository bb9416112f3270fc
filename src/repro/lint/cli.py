"""The ``repro lint`` subcommand.

Exit codes: 0 clean (or every finding baselined), 5 findings above the
baseline, 1 framework error (bad baseline file, unknown rule id).

Besides the per-file rule pass this front-end drives the whole-program
flow pass (``--flow``), the forked per-file pool (``--jobs``), git-aware
incremental linting (``--changed-only``), and the effect-explanation
view (``repro lint effects <function>``).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import DEFAULT_BASELINE_PATH, Baseline
from repro.lint.engine import changed_python_files, lint_paths
from repro.lint.registry import build_rules
from repro.lint.report import render_json, render_text

__all__ = ["configure_parser", "cmd_lint"]


def configure_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``lint`` subparser to the main CLI."""
    lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis rules (exit 5 on new findings)",
        description=(
            "AST-based static analysis: schema-aware column checking, "
            "seeded-RNG and typed-error enforcement, forbidden imports, "
            "float equality, mutable defaults.  See docs/LINT.md."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help=(
            "files or directories to lint (default: src); or "
            "'effects <function>' to explain one function's inferred effects"
        ),
    )
    lint.add_argument(
        "--flow", action="store_true",
        help=(
            "also run the whole-program flow pass: stage-contract "
            "verification, kernel purity, network seam"
        ),
    )
    lint.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "worker processes for the per-file rule pass "
            "(0 = one per CPU; default: %(default)s)"
        ),
    )
    lint.add_argument(
        "--changed-only", action="store_true",
        help="lint only .py files git reports as modified/staged/untracked",
    )
    lint.add_argument(
        "--effects-out", default=None, metavar="PATH",
        help=(
            "with --flow, also write the schema-validated effects report "
            "(effects.json) to PATH"
        ),
    )
    lint.add_argument(
        "--no-flow-cache", action="store_true",
        help="disable the flow pass's content-hash summary cache",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default: %(default)s)",
    )
    lint.add_argument(
        "--baseline", default=DEFAULT_BASELINE_PATH,
        help="baseline file of grandfathered findings (default: %(default)s)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file; report every finding as new",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also show baselined findings in text output",
    )


def _selected_rules(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]


def _cmd_effects(args: argparse.Namespace) -> int:
    """``repro lint effects <function>`` — explain one function's effects."""
    from repro.lint.flow import analyze_paths
    from repro.util.errors import LintError

    if len(args.paths) < 2:
        raise LintError(
            "usage: repro lint effects <function> [paths...] — name the "
            "function to explain (qualname or bare name)"
        )
    needle = args.paths[1]
    paths = args.paths[2:] or ["src"]
    result = analyze_paths(
        paths, root=Path.cwd(), cache_path=_flow_cache_path(args)
    )
    rendered = result.explain(needle)
    print(rendered)
    return 0 if result.analysis.project.find_function(needle) else 1


def _flow_cache_path(args: argparse.Namespace) -> Optional[Path]:
    if getattr(args, "no_flow_cache", False):
        return None
    from repro.lint.flow.cache import DEFAULT_CACHE_PATH

    return Path(DEFAULT_CACHE_PATH)


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in build_rules():
            print(f"{rule.id:18s} {rule.severity.value:7s} {rule.description}")
        return 0
    if args.paths and args.paths[0] == "effects":
        return _cmd_effects(args)
    paths = list(args.paths)
    if args.changed_only:
        # Restrict to changed files under the requested (or default) lint
        # roots: tests and benchmarks are not part of the gate, and a
        # changed-file run must never flag more than a full run would.
        roots = [Path.cwd() / p for p in paths]
        paths = [
            f
            for f in changed_python_files(Path.cwd())
            if any(f == r or r in f.parents for r in roots)
        ]
        if not paths:
            print("0 files changed; nothing to lint")
            return 0
    baseline = None
    if not args.no_baseline and not args.write_baseline:
        baseline = Baseline.load(args.baseline)
    run = lint_paths(
        paths,
        rule_ids=_selected_rules(args.rules),
        baseline=baseline,
        root=Path.cwd(),
        jobs=args.jobs,
        flow=args.flow,
        flow_cache=_flow_cache_path(args) if args.flow else None,
    )
    if args.write_baseline:
        Baseline.from_diagnostics(run.diagnostics).save(args.baseline)
        print(
            f"wrote {len(run.diagnostics)} finding(s) to {args.baseline}; "
            f"lint now passes until new findings appear"
        )
        return 0
    if args.flow and run.flow_result is not None and args.effects_out:
        from repro.lint.flow.report import write_effects_report

        write_effects_report(run.flow_result.report, args.effects_out)
    if args.format == "json":
        print(render_json(run))
    else:
        print(render_text(run, verbose=args.verbose))
    return run.exit_code
