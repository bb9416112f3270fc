"""Pinned outputs of the live replay: alerts, views, checkpoints, window.

``test_daemon.py`` compares two runs of the same code, so a change that
alters every run alike passes it.  These constants pin sha256 digests of
what a full replay of the 2022 study window (default seed, scale 0.05)
publishes and checkpoints, with a checkpoint directory and a subscribed
health service that is never started:

* ``alerts``: the canonical alerts document;
* ``views``: every view-set the service published, in close order,
  each recorded at its close as every path of ``HealthService.paths()``
  (sorted) with its ``respond(path)`` body: path, newline, body;
* ``checkpoints``: every checkpointed ``LiveDaemon.to_state()`` (the
  stream position and the alert engine; schema 3 holds no aggregator
  state);
* ``window``: the final ``window_snapshot()``.

Speed-ups to window assembly, detection or publication must leave them
alone.  ``PINNED_WORK`` also pins how much window work the replay does:
``live.window.views`` (views assembled) and ``live.window.folds`` (scope
states folded from two or more day states).  Views fold a scope only
when it is read, so folding every scope of every view again, or any
other new fold, moves it.

A resume rebuilds the aggregator from the source, so the same replay
also checks every checkpoint it wrote: a fresh daemon restored from it
has the aggregator state the uninterrupted run had at that day, and
replays forward to the same view-sets, alerts and window.

Re-baselining on purpose -- a change that is meant to alter what the
daemon publishes or checkpoints, such as a new rule, view or state
field -- goes like this: print the new values with::

    PYTHONPATH=src:tests/obs/live python -c "
    import tempfile
    from repro import obs
    from test_replay_fingerprint import replay_digests
    from repro.synth import DatasetGenerator, GeneratorConfig
    ds = DatasetGenerator(GeneratorConfig(seed=20220224, scale=0.05)).generate()
    obs.enable(trace=False, metrics=True)
    print(replay_digests(ds.ndt, tempfile.mkdtemp()))
    print(obs.metrics_snapshot()['counters'])"

paste them below (the ``live.window.*`` counters into ``PINNED_WORK``),
and say so in the change's description.  The ``views`` digest was last
re-baselined when ``/healthz`` began counting the closing day in its
``days_processed`` (the only bytes that moved: +1 in every ``/healthz``);
``checkpoints`` when the checkpoint stopped holding the aggregator
(schema 3).
"""

import hashlib
import json
from typing import List, NamedTuple

import pytest

from repro import obs
from repro.obs.live.daemon import LiveDaemon
from repro.obs.live.service import HealthService
from repro.obs.live.source import ReplaySource
from repro.obs.metrics import snapshot_to_json
from repro.util.timeutil import Day

START, END = "2022-01-01", "2022-04-18"
REPLAY_DAYS = Day.of(END).ordinal - Day.of(START).ordinal + 1

#: sha256 per output.
PINNED = {
    "alerts": "20eb204f17a64e881cead4495b3bd990a9c2fa9c050dd7feb57cdacdefa8aaf7",
    "views": "f54df5e1acfcbefe3e4234c8e996aa36e4fdf2e3370661312c3a55ce0faa4f6a",
    "checkpoints": "41d0af6c4cf1102833bfc531412eb7c0beba80c375db537d110eeeb22e0605cd",
    "window": "aaae41c6e9b8d4ddc603cc63ac8f97e1cfcfda45163fd1589a59299888466192",
}
#: Alerts raised, view-sets published and checkpoints written.
PINNED_COUNTS = {"alerts": 32, "views": 108, "checkpoints": 16}
#: Window views assembled and scope states folded over the replay.
PINNED_WORK = {"live.window.folds": 2999, "live.window.views": 324}


def _canonical(doc):
    return snapshot_to_json(doc).encode("utf-8")


class _RecordingDaemon(LiveDaemon):
    """Keeps every state it checkpoints, and its aggregator's state then."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checkpointed = []
        self.aggregated = []

    def checkpoint(self):
        self.checkpointed.append(_canonical(self.to_state()))
        self.aggregated.append(_canonical(self.agg.to_state()))
        return super().checkpoint()


class Replay(NamedTuple):
    """What one daemon run published and checkpointed, as canonical bytes."""

    alerts: bytes
    views: List[bytes]  # one per day close, in close order
    window: bytes
    states: List[bytes]  # every checkpointed LiveDaemon.to_state()
    aggregated: List[bytes]  # the aggregator's to_state() at each checkpoint


def run_published(daemon):
    """Run a :class:`_RecordingDaemon` with a subscribed, never-started service."""
    service = HealthService(daemon)  # subscribed; never started, no socket
    view_sets = []
    daemon.subscribe(lambda _day, _changes: view_sets.append(b"".join(
        path.encode("utf-8") + b"\n" + service.respond(path)[1]
        for path in service.paths()
    )))
    daemon.run()
    return Replay(
        alerts=_canonical(daemon.alerts_doc()),
        views=view_sets,
        window=_canonical(daemon.window_snapshot()),
        states=daemon.checkpointed,
        aggregated=daemon.aggregated,
    )


def _sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _digests(run):
    """(digest per output, count per output) of one replay."""
    digests = {
        "alerts": _sha256([run.alerts]),
        "views": _sha256(run.views),
        "checkpoints": _sha256(run.states),
        "window": _sha256([run.window]),
    }
    counts = {
        "alerts": len(json.loads(run.alerts)["alerts"]),
        "views": len(run.views),
        "checkpoints": len(run.states),
    }
    return digests, counts


def replay_digests(table, checkpoint_dir):
    """Replay START..END; returns (digest per output, count per output)."""
    return _digests(run_published(_RecordingDaemon(
        ReplaySource(table, START, END), checkpoint_dir=str(checkpoint_dir)
    )))


@pytest.fixture(scope="module")
def replay(live_dataset, tmp_path_factory):
    """(run, checkpoint dir, window work counters) of one metered replay."""
    checkpoint_dir = tmp_path_factory.mktemp("live")
    obs.reset()
    obs.enable(trace=False, metrics=True)
    try:
        run = run_published(_RecordingDaemon(
            ReplaySource(live_dataset.ndt, START, END),
            checkpoint_dir=str(checkpoint_dir),
        ))
        counters = obs.metrics_snapshot()["counters"]
    finally:
        obs.reset()
    return run, checkpoint_dir, {name: counters.get(name, 0) for name in PINNED_WORK}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_replay_output_pinned(replay, name):
    assert _digests(replay[0])[0][name] == PINNED[name]


def test_replay_counts_pinned(replay):
    assert _digests(replay[0])[1] == PINNED_COUNTS


def test_replay_window_work_pinned(replay):
    assert replay[2] == PINNED_WORK


@pytest.mark.parametrize("index", range(PINNED_COUNTS["checkpoints"]))
def test_resume_from_every_checkpoint(live_table, replay, index):
    run = replay[0]
    state = json.loads(run.states[index])
    daemon = _RecordingDaemon(ReplaySource(live_table, START, END))
    daemon.restore(state)
    assert _canonical(daemon.agg.to_state()) == run.aggregated[index]
    resumed = run_published(daemon)
    assert resumed.views == run.views[state["days_processed"]:]
    assert resumed.states == run.states[index + 1:]
    assert resumed.aggregated == run.aggregated[index + 1:]
    assert resumed.alerts == run.alerts
    assert resumed.window == run.window


def test_a_resume_is_traced_and_counted_apart_from_processing(live_table, replay):
    obs.reset()
    obs.enable(trace=True, metrics=True)
    try:
        daemon = LiveDaemon(
            ReplaySource(live_table, START, END), checkpoint_dir=str(replay[1])
        )
        assert daemon.resume()
        assert daemon.run() == 0
        counters = obs.metrics_snapshot()["counters"]
        resumes = obs.tracer().find("live.resume")
        days = obs.tracer().find("live.day")
    finally:
        obs.reset()
    assert daemon.clock.today().iso() == "2022-04-19"
    assert counters["live.resume.days"] == REPLAY_DAYS == 108
    assert counters["live.resumes"] == 1
    assert counters.get("live.rows", 0) == 0
    assert counters.get("live.batches", 0) == 0
    assert [span.attrs["days"] for span in resumes] == [REPLAY_DAYS]
    assert days == []
