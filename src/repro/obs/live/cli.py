"""The ``repro live`` subcommand: replay, serve, smoke.

``replay``  Run the clock-driven daemon over the study window (the full
            108-day timeline by default), checkpointing through
            ``repro.runtime.checkpoint`` when ``--checkpoint-dir`` is
            set, and write the canonical ``alerts.json`` plus the final
            window snapshot under ``--out``.
``serve``   Replay, then serve the health API (``/healthz``,
            ``/metrics``, ``/oblasts``, ``/oblast/<name>``,
            ``/national``, ``/alerts``, ``/sites``) until interrupted
            (or ``--serve-seconds``).
``smoke``   Short replay → serve on an ephemeral port → probe every
            path of ``HealthService.paths()`` and ``/metrics`` →
            validate ``alerts.json`` against
            ``docs/alerts.schema.json``; exit 1 on any failure.  This is
            what ``make live-smoke`` runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import List, Optional, Tuple

from repro import obs, storage
from repro.mlab.sites import SiteRegistry
from repro.obs.live.daemon import LiveDaemon
from repro.obs.live.detect import DetectorConfig, validate_alerts_doc
from repro.obs.live.service import HealthService
from repro.obs.live.source import STUDY_END, STUDY_START, ReplaySource
from repro.obs.live.window import WindowConfig
from repro.obs.metrics import snapshot_to_json
from repro.synth.generator import DatasetGenerator, GeneratorConfig
from repro.util.errors import ReproError

__all__ = ["cmd_live", "configure_parser"]


def configure_parser(sub: argparse._SubParsersAction) -> None:
    live = sub.add_parser(
        "live",
        help="live observability: replay the stream, detect, serve health",
        description=(
            "Stream the synthetic NDT timeline through the live "
            "aggregator and alert engine (repro.obs.live); serve the "
            "health API over the resulting windows.  See "
            "docs/OBSERVABILITY.md, 'Live observability'."
        ),
    )
    live_sub = live.add_subparsers(dest="live_command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--start", default=STUDY_START,
            help="first replay day (default: %(default)s)",
        )
        p.add_argument(
            "--end", default=STUDY_END,
            help="last replay day (default: %(default)s)",
        )
        p.add_argument(
            "--batch-rows", type=int, default=0, metavar="N",
            help="ingest chunk size within a day (0 = whole day at once); "
            "any value produces byte-identical aggregates and alerts",
        )
        p.add_argument(
            "--window-days", type=int, default=3,
            help="service health window (default: %(default)s)",
        )
        p.add_argument(
            "--checkpoint-every", type=int, default=7, metavar="DAYS",
            help="checkpoint cadence in closed days (default: %(default)s)",
        )
        p.add_argument(
            "--out", default="results/live",
            help="artifact directory for alerts.json + window.json "
            "(default: %(default)s)",
        )

    rep = live_sub.add_parser(
        "replay", help="replay the study window; write alerts.json"
    )
    common(rep)

    srv = live_sub.add_parser("serve", help="replay, then serve the health API")
    common(srv)
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=8618,
        help="bind port (0 = ephemeral; default: %(default)s)",
    )
    srv.add_argument(
        "--serve-seconds", type=float, default=None, metavar="S",
        help="serve for S seconds then exit (default: until interrupted)",
    )

    smoke = live_sub.add_parser(
        "smoke", help="short replay + serve + probe + schema-validate"
    )
    common(smoke)
    smoke.set_defaults(end="2022-03-12")


def _build_daemon(args) -> Tuple[LiveDaemon, SiteRegistry]:
    config = GeneratorConfig(seed=args.seed, scale=args.scale)
    dataset = DatasetGenerator(config).generate()
    source = ReplaySource(
        dataset.ndt, start=args.start, end=args.end, batch_rows=args.batch_rows
    )
    daemon = LiveDaemon(
        source,
        window_config=WindowConfig(window_days=args.window_days),
        detector_config=DetectorConfig(),
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
    )
    if args.resume and daemon.resume():
        print(
            f"live: resumed from checkpoint at day "
            f"{daemon.clock.today().iso()}",
            file=sys.stderr,
        )
    return daemon, SiteRegistry.from_topology(dataset.topology)


def _write_artifacts(daemon: LiveDaemon, out_dir: str) -> List[str]:
    doc = daemon.alerts_doc()
    errors = validate_alerts_doc(doc)
    if errors:
        raise ReproError(
            "alerts document violates docs/alerts.schema.json: "
            + "; ".join(errors[:5])
        )
    alerts_path = f"{out_dir}/alerts.json"
    storage.commit_text(
        alerts_path, snapshot_to_json(doc), label="live.alerts"
    )
    window_path = f"{out_dir}/window.json"
    storage.commit_text(
        window_path,
        snapshot_to_json(daemon.window_snapshot()),
        label="live.window",
    )
    return [alerts_path, window_path]


def _print_alert_summary(daemon: LiveDaemon) -> None:
    doc = daemon.alerts_doc()
    counts = doc["counts"]
    print(
        f"live: {daemon.days_processed} days, "
        f"{daemon.agg.rows_ingested} rows, "
        f"{counts['total']} alerts ({counts['active']} active, "
        f"{counts['resolved']} resolved)"
    )
    for alert in doc["alerts"]:
        resolved = alert["resolved"] or "-"
        print(
            f"  [{alert['severity']:8s}] {alert['rule']:24s} "
            f"{alert['scope']:24s} {alert['raised']} .. {resolved}"
        )


def _cmd_replay(args) -> int:
    daemon, _sites = _build_daemon(args)
    daemon.run()
    paths = _write_artifacts(daemon, args.out)
    _print_alert_summary(daemon)
    for path in paths:
        print(f"live: wrote {path}", file=sys.stderr)
    return 0


def _probe(base: str, paths: List[str]) -> List[str]:
    """GET every path; returns failure descriptions (empty = all good)."""
    failures = []
    for path in paths:
        try:
            url = base + urllib.parse.quote(path)
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                body = resp.read()
                json.loads(body.decode("utf-8"))
        except (urllib.error.URLError, ValueError, OSError) as exc:
            failures.append(f"{path}: {exc}")
    return failures


def _cmd_serve(args) -> int:
    daemon, sites = _build_daemon(args)
    daemon.run()
    service = HealthService(
        daemon, host=args.host, port=args.port, sites=sites.describe()
    )
    host, port = service.start()
    _print_alert_summary(daemon)
    print(f"live: serving on http://{host}:{port}/ (Ctrl-C to stop)")
    try:
        if args.serve_seconds is not None:
            time.sleep(args.serve_seconds)
        else:
            while True:
                time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def _cmd_smoke(args) -> int:
    daemon, sites = _build_daemon(args)
    daemon.run()
    paths = _write_artifacts(daemon, args.out)
    service = HealthService(daemon, port=0, sites=sites.describe())
    try:
        host, port = service.start()
        base = f"http://{host}:{port}"
        endpoints = service.paths() + ["/metrics"]
        failures = _probe(base, endpoints)
    finally:
        service.stop()
    _print_alert_summary(daemon)
    if failures:
        for failure in failures:
            print(f"live: smoke FAILED {failure}", file=sys.stderr)
        return 1
    print(
        f"live: smoke ok ({len(endpoints)} endpoints probed, "
        f"alerts.json schema-valid)"
    )
    for path in paths:
        print(f"live: wrote {path}", file=sys.stderr)
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    handlers = {
        "replay": _cmd_replay,
        "serve": _cmd_serve,
        "smoke": _cmd_smoke,
    }
    return handlers[args.live_command](args)
