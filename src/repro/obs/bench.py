"""The benchmark registry: one row shape, one writer, one history, one gate.

Every benchmark number is a **registry row**, ``{"seconds": s, ...meta}``
under its final name (``engine.*``, ``obs.*_disabled``,
``storage.*_committed``, ``hotspot.*``, ``live.*``, ``micro.*``,
``pytest.*``).  ``seconds`` is the one number the gate reads; everything
else in the row (``rows``, ``calls``, a row's own ``floor_ms`` noise
floor, a before/after pair) is context for the reader.

* :class:`BenchRegistry` — an in-process accumulator of rows; its
  :meth:`~BenchRegistry.record` is where a row is checked (``seconds`` a
  finite number >= 0), and :func:`session_registry` is the process-wide
  instance the benchmark suite records into;
* :func:`write_bench` — the one writer the benchmark modules call: it
  checks the rows, stamps the ``machine``, commits ``BENCH_<kind>.json``
  through :func:`write_snapshot` and records the same rows into the
  session registry;
* :func:`load_rows` / :func:`load_snapshots` — the one loader: a file's
  rows (a snapshot, a run record, or a bare ``name -> row`` map) through
  the same checks, and every checked-in snapshot merged;
* :func:`append_history` — an **append-only** JSONL history
  (``BENCH_history.jsonl`` at the repo root): one run record per line,
  keyed by an *externally supplied* sha/timestamp (``--sha``/``--ts`` or
  the ``REPRO_BENCH_SHA``/``REPRO_BENCH_TS`` env vars) so the file stays
  deterministic and diffable — no clock reads at record time;
* :func:`compare` — noise-tolerant baseline comparison: a benchmark
  regresses when it slows beyond a configurable threshold (default
  +20%), and sub-``min_seconds`` timings are ignored entirely because a
  3ms kernel cannot be compared across runs with a wall clock;
* :func:`best_of` — the one best-of-N timer, shared by ``repro bench
  run`` and the benchmark modules.

:func:`write_snapshot` is the **one sanctioned writer** of
``BENCH_*.json`` files.  The ``no-bare-timing`` lint rule flags
``BENCH_*`` path literals anywhere else, so ad-hoc baseline files
cannot quietly reappear.

``repro bench run|compare|record`` is the CLI face (exit code 6 on
regressions); ``make bench-compare`` wires the comparison into the
default test flow.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import numbers
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import storage
from repro.obs.clock import monotonic
from repro.util.errors import ReproError

logger = logging.getLogger(__name__)

__all__ = [
    "BenchRegistry",
    "BenchRowError",
    "ComparisonResult",
    "DEFAULT_MIN_SECONDS",
    "DEFAULT_THRESHOLD",
    "EXIT_PERF_REGRESSION",
    "Regression",
    "SNAPSHOT_KINDS",
    "append_history",
    "baseline_path",
    "best_of",
    "cmd_bench",
    "compare",
    "configure_parser",
    "history_path",
    "load_history",
    "load_rows",
    "load_snapshots",
    "render_comparison",
    "repo_root",
    "session_registry",
    "write_bench",
    "write_snapshot",
]

#: ``repro bench compare`` exit code when regressions exceed the threshold
#: (0-5 are taken: ok, typed error, usage, generation, analysis, lint).
EXIT_PERF_REGRESSION = 6

#: A benchmark regresses when ``current > baseline * (1 + threshold)``.
DEFAULT_THRESHOLD = 0.20

#: Timings under this floor (both sides) are never compared: wall-clock
#: noise on millisecond kernels would fire the gate randomly.
DEFAULT_MIN_SECONDS = 0.01

#: The checked-in snapshots, one ``BENCH_<kind>.json`` per benchmark module.
SNAPSHOT_KINDS = ("engine", "obs", "storage", "profile", "live")
_HISTORY_BASENAME = "BENCH_history.jsonl"


def repo_root() -> Path:
    """The repository root in the dev layout (``src/repro/obs/`` → root)."""
    return Path(__file__).resolve().parents[3]


def baseline_path(kind: str, root: Optional[Path] = None) -> Path:
    """Path of one snapshot: ``engine``/``obs``/``storage``/``profile``/``live``."""
    if kind not in SNAPSHOT_KINDS:
        raise ValueError(
            f"unknown baseline kind {kind!r}; use {'|'.join(SNAPSHOT_KINDS)}"
        )
    return (root or repo_root()) / f"BENCH_{kind}.json"


def history_path(root: Optional[Path] = None) -> Path:
    """Path of the append-only run-record history."""
    return (root or repo_root()) / _HISTORY_BASENAME


class BenchRowError(ReproError, ValueError):
    """A benchmark row is not a registry row."""


def _registry_row(name: Any, row: Any) -> Dict[str, Any]:
    """``row`` as a registry row, or :class:`BenchRowError`.

    A row is a number (its seconds) or an object whose ``seconds`` is a
    finite number >= 0; the rest of the object is kept as the row's meta.
    """
    if not isinstance(name, str) or not name:
        raise BenchRowError(f"benchmark name must be a non-empty string: {name!r}")
    if not isinstance(row, dict):
        row = {"seconds": row}
    seconds = row.get("seconds")
    if not isinstance(seconds, numbers.Real) or isinstance(seconds, bool):
        raise BenchRowError(
            f"benchmark {name!r}: seconds must be a number, got {seconds!r}"
        )
    if not math.isfinite(seconds):
        raise BenchRowError(f"benchmark {name!r}: seconds must be finite: {seconds}")
    if seconds < 0:
        raise BenchRowError(f"benchmark {name!r}: negative seconds {seconds}")
    return {**row, "seconds": float(seconds)}


class BenchRegistry:
    """Accumulates ``name -> {seconds, meta...}`` benchmark rows for one run."""

    def __init__(self):
        self._records: Dict[str, Dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def record(self, name: str, seconds: float, **meta: Any) -> None:
        """Record one checked row (last write wins per name)."""
        self._records[name] = _registry_row(name, {"seconds": seconds, **meta})

    def as_benchmarks(self) -> Dict[str, Dict[str, Any]]:
        """A name-sorted copy, ready for :func:`append_history`."""
        return {n: dict(self._records[n]) for n in sorted(self._records)}


_session = BenchRegistry()


def session_registry() -> BenchRegistry:
    """The process-wide registry benchmark modules record into."""
    return _session


def best_of(fn: Callable[[], Any], repeat: int = 3) -> Tuple[float, Any]:
    """Best-of-``repeat`` wall time of ``fn()`` (at least one call), with
    the last call's result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = monotonic()
        result = fn()
        best = min(best, monotonic() - t0)
    return best, result


# -- snapshots and history ---------------------------------------------------
def write_snapshot(path, payload: Dict[str, Any]) -> str:
    """Write a ``BENCH_*.json`` snapshot — the one sanctioned writer.

    Human-readable (indent 2, trailing newline), and committed atomically
    through :mod:`repro.storage` — a crash mid-write leaves the previous
    snapshot, never a torn JSON file.
    """
    path = Path(path)
    storage.commit_text(
        str(path),
        json.dumps(payload, indent=2) + "\n",
        label=f"bench.{path.name}",
    )
    return str(path)


def _machine() -> Dict[str, str]:
    """The interpreter, numpy and platform a snapshot was measured on."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write_bench(
    kind: str,
    benchmarks: Dict[str, Any],
    *,
    root: Optional[Path] = None,
    **context: Any,
) -> str:
    """Commit ``BENCH_<kind>.json`` and record its rows in the session registry.

    ``benchmarks`` maps each row's final name to its registry row;
    ``context`` holds file-level facts that are not rows (a budget, the
    scale), written beside ``benchmarks`` after the ``machine`` stamp.
    Every row is checked before anything is written, so a bad row leaves
    the previous snapshot in place.  Returns the snapshot's path.
    """
    rows = {name: _registry_row(name, row) for name, row in benchmarks.items()}
    path = write_snapshot(
        baseline_path(kind, root),
        {"machine": _machine(), **context, "benchmarks": rows},
    )
    for name, row in rows.items():
        _session.record(name, **row)
    return path


def load_rows(path) -> Dict[str, Dict[str, Any]]:
    """The checked registry rows of one JSON file.

    The file is a snapshot or a run record (rows under ``benchmarks``) or
    a bare ``name -> row`` map; each row passes :class:`BenchRegistry`'s
    checks.  Anything else — a missing file, invalid JSON, an array or a
    number, a row without numeric ``seconds`` — raises a
    :class:`~repro.util.errors.ReproError` naming the file.
    """
    try:
        data = json.loads(storage.read_text(str(path)))
    except FileNotFoundError:
        raise ReproError(f"no such file: {path}") from None
    except ValueError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "benchmarks" in data:
        data = data["benchmarks"]
    if not isinstance(data, dict):
        raise BenchRowError(
            f"{path}: expected an object of benchmark rows, "
            f"got {type(data).__name__}"
        )
    rows: Dict[str, Dict[str, Any]] = {}
    for name, row in data.items():
        try:
            rows[name] = _registry_row(name, row)
        except BenchRowError as exc:
            raise BenchRowError(f"{path}: {exc}") from None
    return rows


def load_snapshots(root: Optional[Path] = None) -> Dict[str, Dict[str, Any]]:
    """The rows of every ``BENCH_<kind>.json`` under ``root``, merged.

    Missing files are skipped, so a fresh clone without recorded
    snapshots still works.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for kind in SNAPSHOT_KINDS:
        path = baseline_path(kind, root)
        if path.exists():
            out.update(load_rows(path))
    return out


def external_run_key() -> Dict[str, str]:
    """The externally supplied (sha, timestamp) identity for run records."""
    return {
        "sha": os.environ.get("REPRO_BENCH_SHA", "unknown"),
        "timestamp": os.environ.get("REPRO_BENCH_TS", "unknown"),
    }


def append_history(
    benchmarks: Dict[str, Dict[str, Any]],
    sha: str,
    timestamp: str,
    path=None,
) -> Dict[str, Any]:
    """Append one run record to the JSONL history; returns the record.

    The history is append-only by construction: records only ever reach
    the file through :func:`repro.storage.append_text` (one write of a
    complete line, then fsync), and readers tolerate — skip and warn on —
    any torn tail a crash mid-append may still leave.
    """
    record = {
        "sha": sha,
        "timestamp": timestamp,
        "benchmarks": {n: benchmarks[n] for n in sorted(benchmarks)},
    }
    path = Path(path) if path is not None else history_path()
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    storage.append_text(str(path), line, label=f"bench-history.{path.name}")
    return record


def load_history(path=None) -> List[Dict[str, Any]]:
    """All run records, oldest first; missing file → empty list.

    A torn tail — the partial last line a crash mid-append can leave —
    is skipped with a warning and counted (``bench.history_torn_lines``),
    never parsed into a half-record baseline.
    """
    from repro import obs

    path = Path(path) if path is not None else history_path()
    if not path.exists():
        return []
    out: List[Dict[str, Any]] = []
    lines = storage.read_text(str(path)).splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            obs.counter("bench.history_torn_lines").inc()
            logger.warning(
                "%s:%d: skipping malformed history line (%s)%s",
                path, lineno, exc,
                " — torn tail from an interrupted append"
                if lineno == len(lines) else "",
            )
            continue
        if not isinstance(record, dict):
            obs.counter("bench.history_torn_lines").inc()
            logger.warning(
                "%s:%d: skipping non-object history line", path, lineno
            )
            continue
        out.append(record)
    return out


# -- comparison --------------------------------------------------------------
def _seconds_entry(value: Any) -> Optional[float]:
    if isinstance(value, dict):
        value = value.get("seconds")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _floor_entry(value: Any) -> Optional[float]:
    """A row's own noise floor in seconds (``floor_ms`` key), if declared."""
    if not isinstance(value, dict):
        return None
    floor = value.get("floor_ms")
    if isinstance(floor, (int, float)) and not isinstance(floor, bool):
        if floor < 0:
            raise BenchRowError(f"floor_ms must be >= 0, got {floor}")
        return float(floor) / 1000.0
    return None


@dataclass(frozen=True)
class Regression:
    """One benchmark that slowed beyond the threshold."""

    name: str
    baseline_s: float
    current_s: float

    @property
    def ratio(self) -> float:
        return self.current_s / self.baseline_s if self.baseline_s else float("inf")


@dataclass
class ComparisonResult:
    """Everything one baseline comparison found."""

    threshold: float
    min_seconds: float
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[Regression] = field(default_factory=list)
    compared: int = 0
    skipped_noise: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else EXIT_PERF_REGRESSION


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> ComparisonResult:
    """Compare two ``name -> seconds|{seconds: ...}`` maps.

    Noise tolerance is explicit: benchmarks where *either* side is under
    the noise floor are reported under ``skipped_noise`` and never gate,
    and a slowdown only counts when it exceeds ``threshold`` (fractional,
    e.g. 0.2 = +20%).  The floor is ``min_seconds`` (10ms) by default,
    but a registry row may declare its own ``floor_ms`` — sub-10ms
    measurements that are *not* wall-clock noise (e.g. the live health
    service's request percentiles, timed over thousands of requests)
    would otherwise never gate.  When both sides declare ``floor_ms``
    the larger (more tolerant) one wins.  Symmetric speedups land in
    ``improvements`` for the report but never fail anything.
    """
    result = ComparisonResult(threshold=threshold, min_seconds=min_seconds)
    for name in sorted(set(current) | set(baseline)):
        cur_s = _seconds_entry(current.get(name))
        base_s = _seconds_entry(baseline.get(name))
        if cur_s is None and base_s is None:
            continue
        if base_s is None:
            result.added.append(name)
            continue
        if cur_s is None:
            result.missing.append(name)
            continue
        floors = [
            f for f in (
                _floor_entry(current.get(name)),
                _floor_entry(baseline.get(name)),
            )
            if f is not None
        ]
        floor_s = max(floors) if floors else min_seconds
        if cur_s < floor_s or base_s < floor_s:
            result.skipped_noise.append(name)
            continue
        result.compared += 1
        if cur_s > base_s * (1.0 + threshold):
            result.regressions.append(Regression(name, base_s, cur_s))
        elif cur_s < base_s / (1.0 + threshold):
            result.improvements.append(Regression(name, base_s, cur_s))
    return result


def render_comparison(result: ComparisonResult) -> str:
    """The ``repro bench compare`` text report."""
    lines = [
        f"bench compare: {result.compared} compared, threshold "
        f"+{result.threshold:.0%}, noise floor {result.min_seconds * 1000:g}ms"
    ]
    for reg in result.regressions:
        lines.append(
            f"  REGRESSION {reg.name}: {reg.baseline_s:.4f}s -> "
            f"{reg.current_s:.4f}s ({reg.ratio:.2f}x)"
        )
    for imp in result.improvements:
        lines.append(
            f"  improved   {imp.name}: {imp.baseline_s:.4f}s -> "
            f"{imp.current_s:.4f}s ({imp.ratio:.2f}x)"
        )
    if result.skipped_noise:
        lines.append(
            f"  skipped (under noise floor): {', '.join(result.skipped_noise)}"
        )
    if result.added:
        lines.append(f"  new benchmarks (no baseline): {', '.join(result.added)}")
    if result.missing:
        lines.append(f"  missing from current run: {', '.join(result.missing)}")
    lines.append("PASS" if result.ok else "FAIL: performance regressions")
    return "\n".join(lines)


# -- the built-in micro suite ------------------------------------------------
def run_micro_suite(
    rows: int = 200_000, repeat: int = 3, registry: Optional[BenchRegistry] = None
) -> BenchRegistry:
    """Time the engine's hot relational kernels on a synthetic table.

    This is ``repro bench run``: a fast, self-contained measurement of
    group-by / join / isin / sort on a dictionary-encoded workload shaped
    like the NDT tables (a few hundred string keys over many rows).
    Imports are local so the obs package stays import-light for everyone
    who never benchmarks.
    """
    import numpy as np

    from repro.tables.join import join
    from repro.tables.schema import DType
    from repro.tables.table import Table

    registry = registry if registry is not None else BenchRegistry()
    rng = np.random.Generator(np.random.PCG64(20220224))
    keys = np.array([f"city_{i:03d}" for i in range(300)], dtype=object)
    big = Table.from_dict(
        {
            "k": keys[rng.integers(0, len(keys), rows)].tolist(),
            "k2": rng.integers(0, 40, rows),
            "v": rng.normal(50.0, 20.0, rows),
        },
        dtypes={"k": DType.STR, "k2": DType.INT, "v": DType.FLOAT},
    )
    right = Table.from_dict(
        {"k": keys.tolist(), "w": rng.normal(0.0, 1.0, len(keys))},
        dtypes={"k": DType.STR, "w": DType.FLOAT},
    )
    allowed = {f"city_{i:03d}" for i in range(0, 300, 7)}
    suite = {
        "micro.groupby_mean": lambda: big.group_by("k").aggregate(
            {"m": ("v", "mean"), "n": ("v", "count")}
        ),
        "micro.join_inner": lambda: join(big, right, on="k"),
        "micro.filter_isin": lambda: big.column("k").isin(allowed),
        "micro.sort_by": lambda: big.sort_by(["k", "k2"]),
    }
    for name, fn in suite.items():
        best, _ = best_of(fn, repeat)
        registry.record(name, best, rows=rows, repeat=repeat)
    return registry


# -- CLI ---------------------------------------------------------------------
def configure_parser(sub: argparse._SubParsersAction) -> None:
    bench = sub.add_parser(
        "bench",
        help="run / compare / record benchmark registry entries",
        description=(
            "The benchmark registry over BENCH_history.jsonl: run the "
            "built-in micro suite, compare current numbers against the "
            "recorded baseline (exit 6 on regressions beyond the "
            "threshold), or append a new run record.  See "
            "docs/OBSERVABILITY.md."
        ),
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run = bench_sub.add_parser(
        "run", help="time the built-in engine micro suite"
    )
    run.add_argument(
        "--rows", type=int, default=200_000,
        help="synthetic table size (default: %(default)s)",
    )
    run.add_argument(
        "--repeat", type=int, default=3,
        help="best-of repetitions per benchmark (default: %(default)s)",
    )
    run.add_argument(
        "--json", action="store_true", help="print the rows as JSON"
    )
    run.add_argument(
        "--record", action="store_true",
        help="append the results to the history (see 'record' for keying)",
    )
    _add_key_args(run)

    comp = bench_sub.add_parser(
        "compare", help="compare current numbers against the recorded baseline"
    )
    comp.add_argument(
        "--current", default=None, metavar="PATH",
        help="JSON of current rows: a BENCH_*.json snapshot, a run record "
        "or a name->row map (default: every checked-in BENCH_<kind>.json)",
    )
    comp.add_argument(
        "--history", default=None, metavar="PATH",
        help="history file holding the baseline (default: BENCH_history.jsonl)",
    )
    comp.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="regression threshold as a fraction (default: %(default)s)",
    )
    comp.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help="noise floor; faster timings never gate (default: %(default)s)",
    )

    rec = bench_sub.add_parser(
        "record", help="append a run record to the history"
    )
    rec.add_argument(
        "--input", default=None, metavar="PATH",
        help="JSON of rows to record: a BENCH_*.json snapshot, a run record "
        "or a name->row map (default: every checked-in BENCH_<kind>.json)",
    )
    rec.add_argument(
        "--history", default=None, metavar="PATH",
        help="history file to append to (default: BENCH_history.jsonl)",
    )
    _add_key_args(rec)


def _add_key_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sha", default=None,
        help="run key: commit sha (default: REPRO_BENCH_SHA env, else 'unknown')",
    )
    parser.add_argument(
        "--ts", default=None,
        help="run key: timestamp (default: REPRO_BENCH_TS env, else 'unknown')",
    )


def _run_key(args) -> Dict[str, str]:
    key = external_run_key()
    if getattr(args, "sha", None):
        key["sha"] = args.sha
    if getattr(args, "ts", None):
        key["timestamp"] = args.ts
    return key


def _load_benchmarks_arg(path: Optional[str]) -> Dict[str, Any]:
    """Current/recorded rows from a file, or every checked-in snapshot."""
    return load_snapshots() if path is None else load_rows(path)


def _cmd_run(args) -> int:
    registry = run_micro_suite(rows=args.rows, repeat=args.repeat)
    benchmarks = registry.as_benchmarks()
    if args.json:
        print(json.dumps({"benchmarks": benchmarks}, indent=2, sort_keys=True))
    else:
        for name, row in benchmarks.items():
            print(f"{name:<24s} {row['seconds'] * 1000:>10.3f} ms  "
                  f"(rows={row.get('rows')}, best of {row.get('repeat')})")
    if args.record:
        key = _run_key(args)
        path = history_path()
        record = append_history(benchmarks, key["sha"], key["timestamp"], path)
        print(
            f"recorded {len(record['benchmarks'])} benchmark(s) to "
            f"{path} (sha {key['sha']})"
        )
    return 0


def _cmd_compare(args) -> int:
    current = _load_benchmarks_arg(args.current)
    history = load_history(args.history)
    if not history:
        print(
            "bench compare: no baseline recorded yet "
            f"({args.history or history_path()}); run 'repro bench record' first",
            file=sys.stderr,
        )
        return 0
    baseline = history[-1].get("benchmarks", {})
    result = compare(
        current, baseline,
        threshold=args.threshold, min_seconds=args.min_seconds,
    )
    print(render_comparison(result))
    return result.exit_code


def _cmd_record(args) -> int:
    benchmarks = _load_benchmarks_arg(args.input)
    if not benchmarks:
        print("bench record: nothing to record (no snapshots found)",
              file=sys.stderr)
        return 1
    key = _run_key(args)
    path = Path(args.history) if args.history else history_path()
    record = append_history(benchmarks, key["sha"], key["timestamp"], path)
    print(
        f"recorded {len(record['benchmarks'])} benchmark(s) to {path} "
        f"(sha {key['sha']}, ts {key['timestamp']})"
    )
    return 0


def cmd_bench(args) -> int:
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "record": _cmd_record,
    }
    return handlers[args.bench_command](args)
