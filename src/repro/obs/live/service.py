"""The health service: a stdlib threaded HTTP API over live state.

``repro live serve`` binds :class:`HealthService` to a
:class:`~repro.obs.live.daemon.LiveDaemon`: every day close publishes a
fresh view-set, swapped in with one atomic reference assignment.
``/healthz`` and ``/alerts`` (and ``/sites``) are rendered at the close,
because they read the daemon and its alert engine, which move on.  The
window paths (``/oblasts``, ``/oblast/<name>``, ``/national``) read only
the day's :class:`~repro.obs.live.window.WindowView`, a view of closed
days that never changes, so each body is rendered on its first request
and kept in that day's view-set: a close nobody reads renders none of
them.  Request threads read whatever view-set reference they grabbed —
snapshot isolation without read locks — so concurrent readers never
block the ingest loop and never observe a half-updated window.  Request
latencies land in the obs histograms (``live.request_ms``) and gate
through ``BENCH_live.json``.

This module (with the rest of ``repro/obs/live/``) is the repo's one
sanctioned network seam; the flow lint's ``unsanctioned-network`` rule
flags socket/HTTP use anywhere else under ``src/``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote
from typing import Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.obs.live.daemon import LiveDaemon
from repro.obs.live.detect import Alert
from repro.obs.live.window import KeyState, ScopeKey
from repro.obs.metrics import snapshot_to_json
from repro.util.timeutil import Day

__all__ = ["HealthService"]


def _render(doc: object) -> bytes:
    """Canonical JSON bytes (same dialect as ``obs.snapshot_to_json``)."""
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class _ViewSet(dict):
    """One day close's view-set: path → body, for the bodies rendered so far.

    It arrives holding the bodies rendered at the close; :meth:`body`
    renders a window path on its first request and keeps it.  Those read
    only ``day`` and ``window``, a view of closed days, so a body rendered
    long after the close has the bytes it would have had at it.  Readers
    racing for one path render equal bytes and all get the first one kept.
    """

    def __init__(
        self,
        rendered: Dict[str, bytes],
        day: Optional[str],
        window: Mapping[str, KeyState],
        oblasts: List[str],
    ):
        super().__init__(rendered)
        self.day = day
        self.window = window
        self.oblasts = oblasts
        self.paths = sorted(
            [*rendered, "/oblasts", "/national"]
            + [f"/oblast/{name}" for name in oblasts]
        )
        # One snapshot per oblast: /oblast/<name> shows it whole and
        # /oblasts without its histograms.
        self._snaps: Dict[str, Dict[str, object]] = {}

    def values(self) -> List[bytes]:  # type: ignore[override]
        # A list, not a live view: request threads add bodies, and a dict
        # that grows while another thread iterates it raises RuntimeError.
        return list(dict.values(self))

    def body(self, path: str) -> Optional[bytes]:
        """The body of ``path``, rendered on first request; None if unserved."""
        body = self.get(path)
        if body is None:
            doc = self._doc(path)
            if doc is None:
                return None
            body = self.setdefault(path, _render(doc))
        return body

    def _doc(self, path: str) -> Optional[Dict[str, object]]:
        if path == "/oblasts":
            return {
                "day": self.day,
                "oblasts": {
                    name: {
                        k: v for k, v in self._snapshot(name).items()
                        if k != "histograms"
                    }
                    for name in self.oblasts
                },
            }
        if path == "/national":
            national = self.window.get("national")
            return {
                "day": self.day,
                "window": national.snapshot() if national is not None else None,
            }
        if path.startswith("/oblast/"):
            name = path[len("/oblast/"):]
            if f"oblast:{name}" in self.window:
                return {"day": self.day, "oblast": name, "window": self._snapshot(name)}
        return None

    def _snapshot(self, name: str) -> Dict[str, object]:
        snap = self._snaps.get(name)
        if snap is None:
            snap = self._snaps.setdefault(
                name, self.window[f"oblast:{name}"].snapshot()
            )
        return snap


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
    current obs registry), ``/oblasts``, ``/oblast/<name>``,
    ``/national``, ``/alerts``, and ``/sites`` when a site registry was
    provided.  Everything else is a 404 with a JSON error body.
    ``_views`` is the current view-set, a dict of the bodies rendered
    so far (perfbench's publish hook sums their sizes).
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
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        daemon.subscribe(self._on_day_close)
        self.publish()  # serve an initial (possibly empty) view-set

    # -- view publication ----------------------------------------------------
    def _on_day_close(self, day: int, changes: List[Alert]) -> None:
        self.publish()

    def publish(self) -> None:
        """Swap in the view-set of the last closed day.

        Renders ``/healthz`` and ``/alerts`` (and ``/sites``) now: they
        read the daemon and its engine, which move on.  The window paths
        keep the day's window view, the one the detector read, and render
        on their first request.
        """
        daemon = self.daemon
        agg = daemon.agg
        day = agg.last_closed
        iso = Day(day).iso() if day is not None else None
        window = agg.window_state(day) if day is not None else {}
        oblasts = sorted(
            ScopeKey.from_label(label).name
            for label in window
            if label.startswith("oblast:")
        )
        rendered = {
            "/healthz": _render(
                {
                    "status": "ok",
                    "day": iso,
                    "days_processed": daemon.days_processed,
                    "rows_ingested": agg.rows_ingested,
                    "window_days": agg.config.window_days,
                    "active_alerts": len(daemon.engine.active),
                    "oblasts": len(oblasts),
                }
            ),
            "/alerts": _render(daemon.alerts_doc()),
        }
        if self._sites is not None:
            rendered["/sites"] = _render({"sites": self._sites})
        # One reference assignment: readers keep the set they grabbed.
        self._views = _ViewSet(rendered, iso, window, oblasts)

    def paths(self) -> List[str]:
        """Every path the current view-set serves, sorted (``/metrics`` aside)."""
        return list(self._views.paths)

    # -- request handling ----------------------------------------------------
    def respond(self, path: str) -> Tuple[int, bytes]:
        # Percent-decode after stripping the query: oblast names carry
        # spaces and apostrophes ("Kiev City"), which clients must encode.
        path = unquote(path.split("?", 1)[0]).rstrip("/") or "/healthz"
        if path == "/metrics":
            return 200, snapshot_to_json(obs.metrics_snapshot()).encode("utf-8")
        # One reference grab = one consistent snapshot.
        body = self._views.body(path)
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
