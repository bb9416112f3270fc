"""The health service: a stdlib threaded HTTP API over live state.

``repro live serve`` binds :class:`HealthService` to a
:class:`~repro.obs.live.daemon.LiveDaemon`: every day close publishes a
fresh set of **immutable, pre-rendered** JSON views, swapped in with one
atomic reference assignment.  Request threads read whatever view-set
reference they grabbed — snapshot isolation without read locks — so
thousands of concurrent readers never block the ingest loop and never
observe a half-updated window.  Request latencies land in the obs
histograms (``live.request_ms``) and gate through ``BENCH_live.json``.

This module (with the rest of ``repro/obs/live/``) is the repo's one
sanctioned network seam; the flow lint's ``unsanctioned-network`` rule
flags socket/HTTP use anywhere else under ``src/``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.obs.live.daemon import LiveDaemon
from repro.obs.live.detect import Alert
from repro.obs.live.window import ScopeKey
from repro.obs.metrics import snapshot_to_json
from repro.util.timeutil import Day

__all__ = ["HealthService"]


def _render(doc: object) -> bytes:
    """Canonical JSON bytes (same dialect as ``obs.snapshot_to_json``)."""
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """One GET handler; the service instance hangs off the server."""

    server_version = "repro-live/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args: object) -> None:
        pass  # request logging goes through obs counters instead

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service: "HealthService" = self.server.service  # type: ignore[attr-defined]
        with obs.span("live.request", metric="live.request_ms", path=self.path):
            status, body = service.respond(self.path)
        obs.counter(f"live.http.{status}").inc()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _Server(ThreadingHTTPServer):
    """The threaded server with a listen backlog for many concurrent clients.

    ``socketserver``'s default backlog of 5 drops the connection attempts
    of a burst of clients beyond it; each dropped SYN is retried a full
    second later, which is the whole tail of the request latency.
    """

    daemon_threads = True
    request_queue_size = 128


class HealthService:
    """Snapshot-isolated read API over a live daemon's state.

    Endpoints: ``/healthz``, ``/metrics`` (rendered per request from the
    current obs registry), ``/oblasts``, ``/oblast/<name>``, ``/alerts``,
    and ``/sites`` when a site registry was provided.  Everything else
    is a 404 with a JSON error body.
    """

    def __init__(
        self,
        daemon: LiveDaemon,
        host: str = "127.0.0.1",
        port: int = 0,
        sites: Optional[List[Dict[str, object]]] = None,
    ):
        self.daemon = daemon
        self.host = host
        self.port = port
        self._sites = sites
        self._views: Dict[str, bytes] = {}
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        daemon.subscribe(self._on_day_close)
        self.publish()  # serve an initial (possibly empty) view-set

    # -- view publication ----------------------------------------------------
    def _on_day_close(self, day: int, changes: List[Alert]) -> None:
        self.publish()

    def publish(self) -> None:
        """Render the full view-set and swap it in atomically."""
        daemon = self.daemon
        agg = daemon.agg
        day = agg.last_day
        views: Dict[str, bytes] = {}
        window = agg.window_state(day) if day is not None else {}
        oblasts = sorted(
            ScopeKey.from_label(label).name
            for label in window
            if label.startswith("oblast:")
        )
        views["/healthz"] = _render(
            {
                "status": "ok",
                "day": Day(day).iso() if day is not None else None,
                "days_processed": daemon.days_processed,
                "rows_ingested": agg.rows_ingested,
                "window_days": agg.config.window_days,
                "active_alerts": len(daemon.engine.active),
                "oblasts": len(oblasts),
            }
        )
        views["/alerts"] = _render(daemon.alerts_doc())
        # One snapshot per oblast: /oblast/<name> shows it whole and
        # /oblasts without its histograms.
        snaps = {name: window[f"oblast:{name}"].snapshot() for name in oblasts}
        views["/oblasts"] = _render(
            {
                "day": Day(day).iso() if day is not None else None,
                "oblasts": {
                    name: {k: v for k, v in snap.items() if k != "histograms"}
                    for name, snap in snaps.items()
                },
            }
        )
        for name, snap in snaps.items():
            views[f"/oblast/{name}"] = _render(
                {
                    "day": Day(day).iso() if day is not None else None,
                    "oblast": name,
                    "window": snap,
                }
            )
        national = window.get("national")
        views["/national"] = _render(
            {
                "day": Day(day).iso() if day is not None else None,
                "window": national.snapshot() if national is not None else None,
            }
        )
        if self._sites is not None:
            views["/sites"] = _render({"sites": self._sites})
        self._views = views  # atomic swap: readers keep their old reference

    # -- request handling ----------------------------------------------------
    def respond(self, path: str) -> Tuple[int, bytes]:
        # Percent-decode after stripping the query: oblast names carry
        # spaces and apostrophes ("Kiev City"), which clients must encode.
        path = unquote(path.split("?", 1)[0]).rstrip("/") or "/healthz"
        if path == "/metrics":
            return 200, snapshot_to_json(obs.metrics_snapshot()).encode("utf-8")
        views = self._views  # one reference grab = one consistent snapshot
        body = views.get(path)
        if body is None:
            return 404, _render({"error": "not found", "path": path})
        return 200, body

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; returns (host, port)."""
        server = _Server((self.host, self.port), _Handler)
        server.service = self  # type: ignore[attr-defined]
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-live-http", daemon=True
        )
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HealthService":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()
