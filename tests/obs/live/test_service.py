"""Health-service tests: endpoints, lazy view-sets, snapshot isolation.

``respond()`` is exercised directly for endpoint logic (no sockets), and
one real threaded-server round-trip plus a small concurrent burst cover
the HTTP path; the ≥1000-request load test with recorded percentiles
lives in ``benchmarks/test_live_service.py``.
"""

import json
import socket
import sys
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

    def test_the_kth_close_publishes_k_days_processed(self, live_table):
        daemon = LiveDaemon(ReplaySource(live_table, "2022-02-01", "2022-02-10"))
        service = HealthService(daemon)
        counted = [json.loads(service.respond("/healthz")[1])["days_processed"]]
        daemon.subscribe(lambda day, changes: counted.append(
            json.loads(service.respond("/healthz")[1])["days_processed"]
        ))
        daemon.run()
        assert counted == list(range(11)) and daemon.days_processed == 10


#: Spans the invasion, so alerts and windows change from close to close.
LAZY_START, LAZY_END = "2022-02-15", "2022-03-12"
SITES = [{"code": "iev01", "asn": 1}]


class TestLazyViewSet:
    """Window bodies render on first read, from the state of their close."""

    def test_an_unread_replay_renders_only_the_daemon_paths(self, live_table):
        daemon = LiveDaemon(ReplaySource(live_table, LAZY_START, LAZY_END))
        service = HealthService(daemon, sites=SITES)
        rendered = []
        daemon.subscribe(lambda day, changes: rendered.append(set(service._views)))
        daemon.run()
        assert rendered == [{"/healthz", "/alerts", "/sites"}] * daemon.days_processed
        assert len(service.paths()) > 6  # the window paths are served, not rendered

    def test_a_read_renders_the_body_once(self, service):
        assert "/oblasts" not in service._views
        status, body = service.respond("/oblasts")
        assert status == 200 and service._views["/oblasts"] is body
        assert service.respond("/oblasts")[1] is body

    def test_sizing_a_view_set_while_a_read_renders_into_it(self, service):
        # perfbench's publish hook iterates values() as readers add bodies.
        views = service._views
        sizes = []
        for body in views.values():
            sizes.append(len(body))
            service.respond("/national")
        assert len(sizes) == 3 and "/national" in views

    def test_held_view_sets_render_the_bytes_of_their_close(self, live_table):
        def replay(on_close):
            daemon = LiveDaemon(ReplaySource(live_table, LAZY_START, LAZY_END))
            service = HealthService(daemon, sites=SITES)
            daemon.subscribe(lambda day, changes: on_close(service))
            daemon.run()

        at_close, held = [], []
        replay(lambda service: at_close.append(
            {path: service.respond(path)[1] for path in service.paths()}
        ))
        replay(lambda service: held.append(service._views))
        # Every held set is rendered only now, after the whole replay.
        late = [{path: views.body(path) for path in views.paths} for views in held]
        assert len(late) == len(at_close) == 26
        assert late == at_close

    def test_readers_during_a_replay_see_whole_view_sets(self, live_table):
        daemon = LiveDaemon(ReplaySource(live_table, LAZY_START, LAZY_END))
        service = HealthService(daemon, sites=SITES)
        # Sizing each view-set as it is published, as perfbench's publish
        # hook does, iterates it while the readers add bodies to it.
        sizes = []
        daemon.subscribe(lambda day, changes: sizes.append(
            sum(len(v) for v in service._views.values())
        ))
        done = threading.Event()
        errors, days = [], [[] for _ in range(4)]

        def read(seen):
            try:
                while not done.is_set():
                    for path in service.paths():
                        status, body = service.respond(path)
                        doc = json.loads(body.decode("utf-8"))
                        # An oblast of the set listed can be gone from the next.
                        assert status == 200 or path.startswith("/oblast/")
                        if path == "/healthz" and doc["day"] is not None:
                            seen.append(doc["day"])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        readers = [threading.Thread(target=read, args=(seen,)) for seen in days]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            daemon.run()
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors
        assert len(sizes) == daemon.days_processed
        for seen in days:
            assert seen and seen == sorted(seen)


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
