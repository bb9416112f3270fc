"""Daemon determinism: chunking invariance, checkpoint/resume, chaos.

The acceptance bar: ``alerts.json`` must be byte-identical across (a)
repeated runs, (b) different ``batch_rows`` chunkings of the same replay,
and (c) a run killed mid-replay at an announced crash point and resumed
from its last checkpoint, which rebuilds the aggregator from the source.
"""

import numpy as np
import pytest

from repro.faults.crashpoints import SimulatedCrash, crash_spec_scope
from repro.obs.live import daemon as daemon_module
from repro.obs.live.daemon import STATE_STAGE, LiveDaemon, StateVersionError
from repro.obs.live.source import ReplaySource
from repro.obs.metrics import snapshot_to_json
from repro.util.errors import ReproError
from repro.util.timeutil import Day

START, END = "2022-02-01", "2022-03-05"


def run_daemon(table, batch_rows=0, checkpoint_dir=None, **kwargs):
    source = ReplaySource(table, START, END, batch_rows=batch_rows)
    daemon = LiveDaemon(source, checkpoint_dir=checkpoint_dir, **kwargs)
    daemon.run()
    return daemon


def alerts_bytes(daemon):
    return snapshot_to_json(daemon.alerts_doc()).encode("utf-8")


def window_bytes(daemon):
    return snapshot_to_json(daemon.window_snapshot()).encode("utf-8")


@pytest.fixture(scope="module")
def reference(live_table):
    daemon = run_daemon(live_table)
    return alerts_bytes(daemon), window_bytes(daemon)


class TestByteIdentity:
    def test_repeat_runs_are_byte_identical(self, live_table, reference):
        daemon = run_daemon(live_table)
        assert alerts_bytes(daemon) == reference[0]
        assert window_bytes(daemon) == reference[1]

    @pytest.mark.parametrize("batch_rows", [1, 17, 256])
    def test_chunking_is_byte_identical(self, live_table, reference, batch_rows):
        daemon = run_daemon(live_table, batch_rows=batch_rows)
        assert alerts_bytes(daemon) == reference[0]
        assert window_bytes(daemon) == reference[1]

    def test_replay_raises_alerts_in_this_window(self, reference):
        # The invasion-day throughput alert must exist even in the short
        # replay the determinism suite uses; the full-timeline acceptance
        # test pins the complete timeline at the benchmark scale.
        assert b"throughput-degradation:national:2022-02-24" in reference[0]


def state_bytes(daemon):
    return snapshot_to_json(daemon.agg.to_state()).encode("utf-8")


class TestCheckpointBytes:
    """Canonical sums make the aggregator's state a function of the rows.

    That is what lets a resume rebuild it from the source instead of
    reading it from the checkpoint.
    """

    @pytest.fixture(scope="class")
    def reference_state(self, live_table):
        return state_bytes(run_daemon(live_table))

    @pytest.mark.parametrize("batch_rows", [1, 7])
    def test_any_batching_checkpoints_the_same_bytes(
        self, live_table, reference_state, batch_rows
    ):
        daemon = run_daemon(live_table, batch_rows=batch_rows)
        assert state_bytes(daemon) == reference_state

    def test_rows_shuffled_within_a_day_checkpoint_the_same_bytes(
        self, live_table, reference_state
    ):
        rng = np.random.Generator(np.random.PCG64(5))
        shuffled = live_table.take(rng.permutation(live_table.n_rows))
        assert state_bytes(run_daemon(shuffled)) == reference_state


class TestCheckpointResume:
    def test_resume_restores_the_exact_state(self, live_table, tmp_path):
        first = run_daemon(
            live_table, checkpoint_dir=str(tmp_path), checkpoint_every=5
        )
        source = ReplaySource(live_table, START, END)
        clone = LiveDaemon(source, checkpoint_dir=str(tmp_path))
        assert clone.resume()
        assert clone.to_state() == first.to_state()
        assert clone.agg.to_state() == first.agg.to_state()
        # Nothing left to replay: the final checkpoint covers the window.
        assert clone.run() == 0
        assert alerts_bytes(clone) == alerts_bytes(first)

    def test_resume_without_checkpoint_is_false(self, live_table, tmp_path):
        source = ReplaySource(live_table, START, END)
        daemon = LiveDaemon(source, checkpoint_dir=str(tmp_path))
        assert not daemon.resume()

    def test_another_table_of_the_same_size_is_not_resumed(
        self, live_table, tmp_path
    ):
        first = run_daemon(live_table, checkpoint_dir=str(tmp_path))
        day = np.asarray(live_table.column("day").values)
        row = int(np.nonzero(day == Day.of(START).ordinal)[0][0])
        tput = np.array(live_table.column("tput_mbps").values, dtype=np.float64)
        tput[row] += 1.0
        other = LiveDaemon(
            ReplaySource(live_table.with_column("tput_mbps", tput), START, END),
            checkpoint_dir=str(tmp_path),
        )
        assert other.source.n_rows == first.source.n_rows
        assert other.key != first.key
        assert not other.resume()

    @pytest.mark.parametrize("every", [0, -5])
    def test_a_cadence_below_one_day_is_refused(self, live_table, every):
        with pytest.raises(ReproError, match="checkpoint_every"):
            LiveDaemon(ReplaySource(live_table, START, END), checkpoint_every=every)

    def test_a_state_outside_the_replay_window_is_refused(self, live_table):
        state = run_daemon(live_table).to_state()
        state["next_day"] += 1  # past the day after the last replay day
        daemon = LiveDaemon(ReplaySource(live_table, START, END))
        with pytest.raises(ReproError, match="outside the replay window"):
            daemon.restore(state)

    def test_kill_mid_replay_resumes_byte_identically(
        self, live_table, reference, tmp_path
    ):
        source = ReplaySource(live_table, START, END)
        daemon = LiveDaemon(
            source, checkpoint_dir=str(tmp_path), checkpoint_every=3
        )
        # Kill at the announced crash point mid-window: the day closed
        # but its alerts were never evaluated or checkpointed.
        with crash_spec_scope("live.day.2022-02-24:closed"):
            with pytest.raises(SimulatedCrash):
                daemon.run()

        resumed = LiveDaemon(
            ReplaySource(live_table, START, END),
            checkpoint_dir=str(tmp_path),
            checkpoint_every=3,
        )
        assert resumed.resume()
        assert resumed.clock.ordinal < source.end  # mid-replay, not done
        resumed.run()
        assert alerts_bytes(resumed) == reference[0]
        assert window_bytes(resumed) == reference[1]

    def test_kill_inside_checkpoint_commit_keeps_previous_generation(
        self, live_table, reference, tmp_path
    ):
        daemon = LiveDaemon(
            ReplaySource(live_table, START, END),
            checkpoint_dir=str(tmp_path),
            checkpoint_every=3,
        )
        with crash_spec_scope("checkpoint.live.state:*"):
            with pytest.raises(SimulatedCrash):
                daemon.run()

        resumed = LiveDaemon(
            ReplaySource(live_table, START, END),
            checkpoint_dir=str(tmp_path),
        )
        # The torn commit never became the newest generation; whatever
        # state is recovered replays forward to identical bytes.
        resumed.resume()
        resumed.run()
        assert alerts_bytes(resumed) == reference[0]


class TestStateVersion:
    @pytest.fixture(scope="class")
    def v1_state(self, live_table):
        state = run_daemon(live_table).to_state()
        state["schema_version"] = 1
        return state

    def test_a_v1_state_is_refused(self, live_table, v1_state):
        daemon = LiveDaemon(ReplaySource(live_table, START, END))
        with pytest.raises(StateVersionError):
            daemon.restore(v1_state)

    def test_a_v2_state_is_refused(self, live_table, v1_state):
        # Schema 2 also held the aggregator; its version alone refuses it.
        v2_state = dict(v1_state, schema_version=2, aggregator={})
        daemon = LiveDaemon(ReplaySource(live_table, START, END))
        with pytest.raises(StateVersionError):
            daemon.restore(v2_state)

    def test_a_v1_checkpoint_under_this_key_is_refused_on_resume(
        self, live_table, v1_state, tmp_path
    ):
        daemon = LiveDaemon(ReplaySource(live_table, START, END),
                            checkpoint_dir=str(tmp_path))
        daemon.store.save(daemon.key, STATE_STAGE, v1_state)
        with pytest.raises(StateVersionError):
            daemon.resume()

    def test_the_version_is_part_of_the_checkpoint_key(
        self, live_table, v1_state, reference, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(daemon_module, "STATE_SCHEMA", 1)
        old = LiveDaemon(ReplaySource(live_table, START, END),
                         checkpoint_dir=str(tmp_path))
        old.store.save(old.key, STATE_STAGE, v1_state)
        monkeypatch.undo()
        new = LiveDaemon(ReplaySource(live_table, START, END),
                         checkpoint_dir=str(tmp_path))
        assert new.key != old.key
        assert not new.resume()  # the v1 state is never found
        new.run()
        assert alerts_bytes(new) == reference[0]
