"""Live-service load test: ≥1000 concurrent requests, gated percentiles.

Replays a slice of the timeline through the live daemon (measuring
aggregator throughput), then hammers the health API from a thread pool
and records client-observed request latencies.  The p50/p99 land in
``BENCH_live.json`` with per-key ``floor_ms`` noise floors, so
``repro bench compare`` gates them individually — sub-10ms percentiles
measured over a thousand requests are signal, not wall-clock noise.
"""

import json
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from bench_common import emit

from repro.obs.bench import write_bench
from repro.obs.clock import monotonic
from repro.obs.live.daemon import LiveDaemon
from repro.obs.live.source import ReplaySource

REPLAY_START, REPLAY_END = "2022-02-01", "2022-03-12"

#: The load profile: comfortably past the 1000-request acceptance bar.
N_WORKERS = 16
N_REQUESTS = 1200

#: Sanity ceiling on the client-observed p99 — generous on purpose: the
#: real gate is the recorded baseline in BENCH_live.json (+20%).
MAX_P99_S = 0.5

ENDPOINTS = ("/healthz", "/alerts", "/oblasts", "/national")


@pytest.fixture(scope="module")
def results():
    return {}


@pytest.fixture(scope="module")
def loaded_daemon(bench_dataset, results):
    source = ReplaySource(bench_dataset.ndt, REPLAY_START, REPLAY_END)
    daemon = LiveDaemon(source)
    t0 = monotonic()
    days = daemon.run()
    replay_s = monotonic() - t0
    results["replay"] = {
        "rows": daemon.agg.rows_ingested,
        "days": days,
        "seconds": replay_s,
        "rows_per_s": daemon.agg.rows_ingested / replay_s,
    }
    return daemon


class TestLiveServiceLoad:
    def test_aggregator_throughput(self, loaded_daemon, results):
        replay = results["replay"]
        assert replay["rows"] > 0
        # The streaming aggregator must keep far ahead of the synthetic
        # arrival rate (~hundreds of rows/day): thousands of rows/second.
        assert replay["rows_per_s"] > 1000, (
            f"aggregator ingests {replay['rows_per_s']:.0f} rows/s"
        )

    def test_concurrent_load(self, loaded_daemon, results):
        from repro.obs.live.service import HealthService

        service = HealthService(loaded_daemon, port=0)
        host, port = service.start()
        base = f"http://{host}:{port}"
        latencies = []
        failures = []

        def hit(i):
            path = ENDPOINTS[i % len(ENDPOINTS)]
            t0 = monotonic()
            try:
                with urllib.request.urlopen(base + path, timeout=30) as resp:
                    body = resp.read()
                    if resp.status != 200 or not json.loads(body):
                        failures.append(path)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(f"{path}: {exc}")
            latencies.append(monotonic() - t0)

        try:
            t0 = monotonic()
            with ThreadPoolExecutor(max_workers=N_WORKERS) as pool:
                list(pool.map(hit, range(N_REQUESTS)))
            wall_s = monotonic() - t0
        finally:
            service.stop()

        assert not failures, f"{len(failures)} failed: {failures[:5]}"
        assert len(latencies) >= 1000
        ordered = sorted(latencies)
        p50 = ordered[len(ordered) // 2]
        p99 = ordered[int(len(ordered) * 0.99)]
        assert p99 < MAX_P99_S, f"p99 {p99 * 1000:.1f}ms over ceiling"
        results["load"] = {
            "requests": N_REQUESTS,
            "workers": N_WORKERS,
            "wall_s": wall_s,
            "requests_per_s": N_REQUESTS / wall_s,
            "p50_s": p50,
            "p99_s": p99,
        }

    def test_zz_write_baseline(self, results, results_dir):
        """Persist BENCH_live.json (runs last: named zz, module fixtures)."""
        assert "replay" in results and "load" in results
        replay, load = results["replay"], results["load"]
        write_bench("live", {
            "live.replay": {
                "seconds": replay["seconds"],
                "rows": replay["rows"],
                "days": replay["days"],
                "rows_per_s": replay["rows_per_s"],
            },
            # Request percentiles carry their own noise floor: they sit
            # under the global 10ms floor but are measured over >1000
            # requests, so a regression there is real.
            "live.request_p50": {
                "seconds": load["p50_s"],
                "requests": load["requests"],
                "floor_ms": 0.2,
            },
            "live.request_p99": {
                "seconds": load["p99_s"],
                "requests": load["requests"],
                "floor_ms": 0.2,
            },
        })
        emit(
            results_dir,
            "live_service",
            "\n".join(
                [
                    f"replay: {replay['rows']} rows over {replay['days']} "
                    f"days in {replay['seconds']:.2f}s "
                    f"({replay['rows_per_s']:.0f} rows/s)",
                    f"load: {load['requests']} requests x {load['workers']} "
                    f"workers in {load['wall_s']:.2f}s "
                    f"({load['requests_per_s']:.0f} req/s)",
                    f"latency: p50 {load['p50_s'] * 1000:.2f}ms, "
                    f"p99 {load['p99_s'] * 1000:.2f}ms",
                ]
            ),
        )
