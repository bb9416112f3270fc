"""Health-service tests: endpoints, snapshot isolation, concurrency.

``respond()`` is exercised directly for endpoint logic (no sockets), and
one real threaded-server round-trip plus a small concurrent burst cover
the HTTP path; the ≥1000-request load test with recorded percentiles
lives in ``benchmarks/test_live_service.py``.
"""

import json
import socket
import threading
import urllib.parse
import urllib.request

import pytest

from repro.obs.live.daemon import LiveDaemon
from repro.obs.live.service import HealthService, _Handler, _Server
from repro.obs.live.source import ReplaySource


@pytest.fixture(scope="module")
def daemon(live_table):
    daemon = LiveDaemon(ReplaySource(live_table, "2022-02-01", "2022-03-01"))
    daemon.run()
    return daemon


@pytest.fixture()
def service(daemon):
    return HealthService(daemon, sites=[{"code": "iev01", "asn": 1}])


def body_of(service, path):
    status, body = service.respond(path)
    assert status == 200, f"{path} -> {status}: {body!r}"
    return json.loads(body.decode("utf-8"))


class TestEndpoints:
    def test_healthz(self, service, daemon):
        doc = body_of(service, "/healthz")
        assert doc["status"] == "ok"
        assert doc["days_processed"] == daemon.days_processed
        assert doc["rows_ingested"] == daemon.agg.rows_ingested

    def test_alerts_matches_daemon_doc(self, service, daemon):
        doc = body_of(service, "/alerts")
        assert doc == json.loads(json.dumps(daemon.alerts_doc()))

    def test_oblasts_and_single_oblast(self, service):
        oblasts = body_of(service, "/oblasts")["oblasts"]
        assert oblasts
        name = sorted(oblasts)[0]
        detail = body_of(service, f"/oblast/{name}")
        assert detail["oblast"] == name
        assert detail["window"]["rows"] == oblasts[name]["rows"]
        # The per-oblast view carries full histograms; the roll-up not.
        assert "histograms" in detail["window"]
        assert "histograms" not in oblasts[name]

    def test_national_and_sites(self, service):
        assert body_of(service, "/national")["window"]["rows"] > 0
        assert body_of(service, "/sites") == {
            "sites": [{"code": "iev01", "asn": 1}]
        }

    def test_metrics_is_canonical_obs_snapshot(self, service):
        doc = body_of(service, "/metrics")
        assert set(doc) == {"counters", "gauges", "histograms"}

    def test_unknown_path_is_404(self, service):
        status, body = service.respond("/nope")
        assert status == 404
        assert "error" in json.loads(body.decode("utf-8"))

    def test_root_and_query_normalize(self, service):
        assert service.respond("")[0] == 200
        assert service.respond("/healthz?verbose=1")[0] == 200
        assert service.respond("/healthz/")[0] == 200

    def test_percent_encoded_oblast_names_resolve(self, service):
        # HTTP clients must encode spaces/apostrophes in the request line;
        # the service decodes them back to the oblast key.
        name = sorted(body_of(service, "/oblasts")["oblasts"])[0]
        encoded = urllib.parse.quote(f"/oblast/{name}")
        assert json.loads(service.respond(encoded)[1])["oblast"] == name


class TestSnapshotIsolation:
    def test_views_swap_atomically_on_day_close(self, live_table):
        daemon = LiveDaemon(ReplaySource(live_table, "2022-02-01", "2022-02-10"))
        service = HealthService(daemon)
        versions = []
        daemon.subscribe(
            lambda day, changes: versions.append(
                json.loads(service.respond("/healthz")[1])["day"]
            )
        )
        daemon.run()
        # Each day close republished a complete, consistent view.
        assert versions == sorted(versions)
        assert len(versions) == daemon.days_processed


class TestHttpRoundTrip:
    def test_threaded_server_serves_concurrent_readers(self, daemon):
        service = HealthService(daemon, port=0)
        host, port = service.start()
        try:
            base = f"http://{host}:{port}"
            results = []
            errors = []

            def hit(path):
                try:
                    with urllib.request.urlopen(base + path, timeout=10) as r:
                        results.append(json.loads(r.read().decode("utf-8")))
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=hit, args=(p,)
                )
                for p in ("/healthz", "/alerts", "/oblasts", "/national") * 8
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 32
        finally:
            service.stop()

    def test_a_burst_of_connections_waits_in_the_backlog(self):
        # Nothing accepts, so all 32 connections must fit the listen
        # backlog; a dropped one would only connect on a retry 1 s later.
        server = _Server(("127.0.0.1", 0), _Handler)
        clients = []
        try:
            for _ in range(32):
                clients.append(
                    socket.create_connection(server.server_address, timeout=0.5)
                )
        finally:
            for client in clients:
                client.close()
            server.server_close()
