"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so no cache of the
program (the global plan cache, route caches) carries over from one
repetition to the next.  The last line on standard output is one JSON
object: the repetition's timings, checks, output digest and, when traced,
its per-layer metrics, and the speed probe's counters at the start and end
of the timed call (``speed.py``).  A seed for which the generator cannot
calibrate a dataset is not run: the object is then ``{"rejected": <why>}``.

``serve`` talks to its parent over the pipes: it prints ``READY <port>``
once the health service listens, waits for ``GO``, prints ``FIRST`` when
the first day has closed, creates the ``--done`` file when the replay
ends, and waits for ``STOP`` before it shuts the service down.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import checks
import speed


def _root(tracer: Any):
    return tracer.root() if tracer is not None else nullcontext()


def _rejection(exc: BaseException) -> Optional[str]:
    """Why the generator refused this seed, or None for a real failure."""
    from repro.util.errors import CalibrationError, StageFailure

    if isinstance(exc, StageFailure) and exc.stage == "generate":
        exc = exc.cause
    return f"{type(exc).__name__}: {exc}" if isinstance(exc, CalibrationError) else None


def _section_ready_ms(report: Any) -> List[float]:
    """When each of the 18 sections was ready, from the start of the run."""
    ready, elapsed = [], 0.0
    for stage in report.results:
        elapsed += stage.duration_s
        if stage.name not in ("generate", "inject-faults", "ingest"):
            ready.append(elapsed * 1000.0)
    return ready


def run_report(args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    from repro.runtime.experiments import EXPERIMENT_NAMES
    from repro.runtime.run import run_pipeline
    from repro.synth.generator import GeneratorConfig

    config = GeneratorConfig(seed=args.seed, scale=args.scale)
    with tempfile.TemporaryDirectory(dir=args.workdir) as checkpoints:
        setup_s = time.time() - args.t0
        probe = [speed.read(args.probe)]
        start = time.perf_counter()
        with _root(tracer):
            run = run_pipeline(config, checkpoint_dir=checkpoints)
        wall_s = time.perf_counter() - start
        probe.append(speed.read(args.probe))
    failed = [r.name for r in run.report.failures()]
    problems = [f"experiment {name} failed" for name in failed]
    if run.exit_code != 0:
        problems.append(f"exit code {run.exit_code}")
    if len(run.sections) != len(EXPERIMENT_NAMES):
        problems.append(f"{len(run.sections)}/{len(EXPERIMENT_NAMES)} sections")
    if run.dataset is not None:
        problems += checks.paper_claims(
            run.dataset, every_claim=args.seed == checks.DEFAULT_SEED)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe": probe,
        "items_ms": _section_ready_ms(run.report),
        "attempted": len(EXPERIMENT_NAMES),
        "failed": len(failed),
        "problems": problems,
        "digest": checks.digest(run.render(include_report=False)),
    }


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def run_serve(args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    from repro.obs.live.daemon import LiveDaemon
    from repro.obs.live.service import HealthService
    from repro.obs.live.source import ReplaySource
    from repro.synth.generator import DatasetGenerator, GeneratorConfig

    dataset = DatasetGenerator(GeneratorConfig(seed=args.seed, scale=args.scale)).generate()
    daemon = LiveDaemon(
        ReplaySource(dataset.ndt), checkpoint_dir=tempfile.mkdtemp(dir=args.workdir))
    service = HealthService(daemon, port=0)
    _host, port = service.start()
    setup_s = time.time() - args.t0
    closes: List[float] = []

    def on_close(_day: int, _changes: Any) -> None:
        # Subscribed after the service, so a day's close includes its publish.
        closes.append(time.perf_counter())
        if len(closes) == 1:
            _say("FIRST")

    daemon.subscribe(on_close)
    try:
        _say(f"READY {port}")
        if sys.stdin.readline().strip() != "GO":
            raise SystemExit("serve worker: expected GO")
        probe = [speed.read(args.probe)]
        start = time.perf_counter()
        with _root(tracer):
            daemon.run()
        wall_s = time.perf_counter() - start
        probe.append(speed.read(args.probe))
        with open(args.done, "w", encoding="utf-8"):
            pass
        if sys.stdin.readline().strip() != "STOP":
            raise SystemExit("serve worker: expected STOP")
    finally:
        service.stop()
    doc = daemon.alerts_doc()
    marks = [start] + closes
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe": probe,
        "items_ms": [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])],  # day closes
        "problems": checks.alerts_timeline(doc, args.seed),
        "digest": checks.digest(checks.canonical(doc)),
    }
    if tracer is not None:
        out["respond_ms"] = tracer.respond_ms()
    return out


WORKLOADS = {"report": run_report, "serve": run_serve}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True, help="wall clock at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", default="", help="write spans to this file")
    parser.add_argument("--done", default="", help="serve: file created when the replay ends")
    parser.add_argument("--probe", required=True, help="the speed probe's counter file")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer(os.path.splitext(os.path.basename(args.trace))[0])
        install(tracer)
    try:
        out = WORKLOADS[args.workload](args, tracer)
    except Exception as exc:
        why = _rejection(exc)
        if why is None:
            raise
        _say(json.dumps({"rejected": why}))
        return 0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.dump(args.trace)
    _say(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
