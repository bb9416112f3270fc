"""Pinned outputs of the live replay: alerts, views, checkpoints, window.

``test_daemon.py`` compares two runs of the same code, so a change that
alters every run alike passes it.  These constants pin sha256 digests of
what a full replay of the 2022 study window (default seed, scale 0.05)
publishes and checkpoints, with a checkpoint directory and a subscribed
health service that is never started:

* ``alerts``: the canonical alerts document;
* ``views``: every view-set the service published, in close order;
* ``checkpoints``: every checkpointed ``LiveDaemon.to_state()``;
* ``window``: the final ``window_snapshot()``.

Speed-ups to window assembly, detection or publication must leave them
alone.  ``PINNED_WORK`` also pins how much window work the replay does:
``live.window.views`` (views assembled) and ``live.window.folds`` (scope
states folded from two or more day states).  Views fold a scope only
when it is read, so folding every scope of every view again, or any
other new fold, moves it.

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
and say so in the change's description.
"""

import hashlib

import pytest

from repro import obs
from repro.obs.live.daemon import LiveDaemon
from repro.obs.live.service import HealthService
from repro.obs.live.source import ReplaySource
from repro.obs.metrics import snapshot_to_json

START, END = "2022-01-01", "2022-04-18"

#: sha256 per output.
PINNED = {
    "alerts": "20eb204f17a64e881cead4495b3bd990a9c2fa9c050dd7feb57cdacdefa8aaf7",
    "views": "bbf2c2ef7a6120d3f37e08441076298a10d7551fbc2377daaa8a2d0eef76a733",
    "checkpoints": "b03c3f72918387bb7e451de0768a9c1cbdcf2a8b57e2d8cd37b2cd9edeb10931",
    "window": "aaae41c6e9b8d4ddc603cc63ac8f97e1cfcfda45163fd1589a59299888466192",
}
#: Alerts raised, view-sets published and checkpoints written.
PINNED_COUNTS = {"alerts": 32, "views": 108, "checkpoints": 16}
#: Window views assembled and scope states folded over the replay.
PINNED_WORK = {"live.window.folds": 2999, "live.window.views": 324}


class _RecordingDaemon(LiveDaemon):
    """Keeps the canonical bytes of every state it checkpoints."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checkpointed = []

    def checkpoint(self):
        self.checkpointed.append(snapshot_to_json(self.to_state()).encode("utf-8"))
        return super().checkpoint()


def _sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def replay_digests(table, checkpoint_dir):
    """Replay START..END; returns (digest per output, count per output)."""
    daemon = _RecordingDaemon(
        ReplaySource(table, START, END), checkpoint_dir=str(checkpoint_dir)
    )
    service = HealthService(daemon)  # subscribed; never started, no socket
    view_sets = []
    daemon.subscribe(lambda _day, _changes: view_sets.append(service._views))
    daemon.run()
    alerts = daemon.alerts_doc()
    digests = {
        "alerts": _sha256([snapshot_to_json(alerts).encode("utf-8")]),
        "views": _sha256(
            path.encode("utf-8") + b"\n" + body
            for views in view_sets
            for path, body in sorted(views.items())
        ),
        "checkpoints": _sha256(daemon.checkpointed),
        "window": _sha256([snapshot_to_json(daemon.window_snapshot()).encode("utf-8")]),
    }
    counts = {
        "alerts": len(alerts["alerts"]),
        "views": len(view_sets),
        "checkpoints": len(daemon.checkpointed),
    }
    return digests, counts


@pytest.fixture(scope="module")
def replay(live_dataset, tmp_path_factory):
    """(digests, counts, window work counters) of one metered replay."""
    obs.reset()
    obs.enable(trace=False, metrics=True)
    try:
        digests, counts = replay_digests(
            live_dataset.ndt, tmp_path_factory.mktemp("live")
        )
        counters = obs.metrics_snapshot()["counters"]
    finally:
        obs.reset()
    return digests, counts, {name: counters.get(name, 0) for name in PINNED_WORK}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_replay_output_pinned(replay, name):
    assert replay[0][name] == PINNED[name]


def test_replay_counts_pinned(replay):
    assert replay[1] == PINNED_COUNTS


def test_replay_window_work_pinned(replay):
    assert replay[2] == PINNED_WORK
