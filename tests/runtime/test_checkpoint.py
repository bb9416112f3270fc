"""Tests for config-keyed checkpointing."""

import pytest

from repro.runtime.checkpoint import CheckpointStore, config_key
from repro.synth.generator import GeneratorConfig
from repro.util.errors import PipelineError


class TestConfigKey:
    def test_stable_across_instances(self):
        a = GeneratorConfig(seed=7, scale=0.1)
        b = GeneratorConfig(seed=7, scale=0.1)
        assert config_key(a) == config_key(b)

    def test_any_field_changes_the_key(self):
        base = GeneratorConfig(seed=7, scale=0.1)
        assert config_key(base) != config_key(GeneratorConfig(seed=8, scale=0.1))
        assert config_key(base) != config_key(GeneratorConfig(seed=7, scale=0.2))
        assert config_key(base) != config_key(
            GeneratorConfig(seed=7, scale=0.1, war_enabled=False)
        )

    def test_extra_knobs_change_the_key(self):
        config = GeneratorConfig(seed=7, scale=0.1)
        assert config_key(config) != config_key(
            config, extra={"fault_profile": "default"}
        )

    def test_mapping_accepted(self):
        assert config_key({"seed": 1}) == config_key({"seed": 1})
        assert config_key({"seed": 1}) != config_key({"seed": 2})

    def test_non_config_rejected(self):
        with pytest.raises(PipelineError, match="dataclass or mapping"):
            config_key(42)

    def test_key_is_short_hex(self):
        key = config_key(GeneratorConfig(seed=7, scale=0.1))
        assert len(key) == 16
        int(key, 16)  # parses as hex


class TestCheckpointStore:
    def test_roundtrip_counts_hit(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("k", "generate", {"rows": 3})
        assert store.has("k", "generate")
        assert store.load("k", "generate") == {"rows": 3}
        assert store.hits == 1 and store.misses == 0

    def test_missing_checkpoint_raises_and_counts_miss(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert not store.has("k", "generate")
        with pytest.raises(PipelineError, match="no checkpoint"):
            store.load("k", "generate")
        assert store.misses == 1

    def test_corrupt_checkpoint_raises_typed(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save("k", "generate", [1, 2, 3])
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        with pytest.raises(PipelineError, match="corrupt"):
            store.load("k", "generate")

    def test_drop_single_stage(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("k", "a", 1)
        store.save("k", "b", 2)
        store.drop("k", "a")
        assert not store.has("k", "a")
        assert store.has("k", "b")

    def test_drop_whole_key(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("k", "a", 1)
        store.save("k", "b", 2)
        store.drop("k")
        assert not store.has("k", "a")
        assert not store.has("k", "b")

    def test_keys_isolated(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("k1", "generate", "one")
        store.save("k2", "generate", "two")
        assert store.load("k1", "generate") == "one"
        assert store.load("k2", "generate") == "two"


class TestGenerationRecovery:
    """The generation-kept store: fallback, typed corruption, stray files."""

    def test_saves_are_numbered_generations(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.save("k", "gen", 1).endswith(".g0001")
        assert store.save("k", "gen", 2).endswith(".g0002")
        assert store.load("k", "gen") == 2

    def test_keep_bounds_generation_count(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=2)
        paths = [store.save("k", "gen", i) for i in range(5)]
        import os

        survivors = [p for p in paths if os.path.exists(p)]
        assert len(survivors) == 2
        assert store.load("k", "gen") == 4

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("k", "gen", "older")
        newest = store.save("k", "gen", "newest")
        with open(newest, "r+b") as fh:
            fh.write(b"XXXX")
        assert store.load("k", "gen") == "older"
        assert store.hits == 1

    def test_all_corrupt_raises_checkpoint_corrupt(self, tmp_path):
        from repro.util.errors import CheckpointCorruptError

        store = CheckpointStore(str(tmp_path))
        for value in ("a", "b"):
            path = store.save("k", "gen", value)
            with open(path, "r+b") as fh:
                fh.write(b"XXXX")
        with pytest.raises(CheckpointCorruptError, match="corrupt checkpoint"):
            store.load("k", "gen")
        assert store.misses == 1

    def test_checkpoint_corrupt_is_a_pipeline_error(self):
        from repro.util.errors import CheckpointCorruptError

        assert issubclass(CheckpointCorruptError, PipelineError)

    def test_unpicklable_generation_is_corrupt_not_crash(self, tmp_path):
        from repro import storage
        from repro.runtime.checkpoint import CHECKPOINT_KIND
        from repro.util.errors import CheckpointCorruptError

        store = CheckpointStore(str(tmp_path))
        # A frame that verifies but whose payload is not a pickle.
        base = store.save("k", "gen", "x")[: -len(".g0001")]
        gens = storage.GenerationStore(base, CHECKPOINT_KIND)
        gens.commit(b"not a pickle at all")
        with pytest.raises(CheckpointCorruptError, match="does not decode"):
            store.load("k", "gen")

    def test_stray_legacy_pickle_is_ignored(self, tmp_path):
        # Unframed <stage>.pkl files predate checksummed generations; no
        # checksum vouches for them, so they are never unpickled and the
        # stage is recomputed instead.
        import os
        import pickle

        store = CheckpointStore(str(tmp_path))
        legacy_dir = tmp_path / "k"
        os.makedirs(legacy_dir)
        with open(legacy_dir / "gen.pkl", "wb") as fh:
            pickle.dump({"rows": 9}, fh)
        assert not store.has("k", "gen")
        with pytest.raises(PipelineError, match="no checkpoint"):
            store.load("k", "gen")
        assert os.listdir(legacy_dir) == ["gen.pkl"]
        store.drop("k")
        assert not legacy_dir.exists()

    def test_unpicklable_value_raises_on_save(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(PipelineError, match="cannot checkpoint"):
            store.save("k", "gen", lambda: None)
