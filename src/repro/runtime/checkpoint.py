"""Per-stage checkpointing keyed by (config hash, seed).

A checkpoint key is derived from the *content* of the run configuration,
not from CLI spelling: two invocations with the same GeneratorConfig (and
any extra knobs that change the data, e.g. the fault profile) share
checkpoints; changing any knob — seed, scale, an ablation flag — silently
gets a fresh key.  Values are pickled; the store keeps hit/miss counters
so resume behaviour is assertable in tests.

Durability (``docs/ROBUSTNESS.md``): values are committed through
:mod:`repro.storage` as framed, checksummed **generations** —
``<stage>.g0001``, ``.g0002``, ... — with atomic write→fsync→rename and
the newest ``keep`` generations retained.  A truncated or bit-rotten
generation is *detected*, quarantined, and skipped in favour of the
previous one; only when every generation is corrupt does :meth:`load`
raise a typed :class:`~repro.util.errors.CheckpointCorruptError`, which
the pipeline's resume path treats as "recompute the stage", never as a
crash.  Only framed generations are read: a file no checksum vouches for
is never unpickled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
from typing import Any, Mapping, Optional

from repro import obs, storage
from repro.util.errors import (
    ArtifactCorruptError,
    CheckpointCorruptError,
    PipelineError,
    StorageError,
)

__all__ = ["CHECKPOINT_JSON_KIND", "CHECKPOINT_KIND", "CheckpointStore", "config_key"]

#: Container kind stamped into every checkpoint frame.
CHECKPOINT_KIND = "checkpoint/pickle"

#: Frame kind for JSON-codec checkpoints (``codec="json"``).
CHECKPOINT_JSON_KIND = "checkpoint/json"

#: How many generations of each stage checkpoint survive by default.
DEFAULT_KEEP = 3


def config_key(config: Any, extra: Optional[Mapping[str, Any]] = None) -> str:
    """A stable hex key for a run configuration (plus extra knobs).

    ``config`` may be a dataclass (e.g. GeneratorConfig) or any mapping.
    The key covers every field, so it changes whenever the seed, the scale,
    or an ablation flag does.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = {
            "__class__": type(config).__name__,
            **dataclasses.asdict(config),
        }
    elif isinstance(config, Mapping):
        payload = dict(config)
    else:
        raise PipelineError(
            f"config_key needs a dataclass or mapping, got {type(config).__name__}"
        )
    if extra:
        payload.update({f"extra:{k}": v for k, v in extra.items()})
    text = repr(sorted(payload.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class CheckpointStore:
    """Generation-kept, checksummed storage under ``root/<key>/<stage>.g*``.

    ``codec`` picks the payload encoding: ``"pickle"`` (the default —
    arbitrary Python values) or ``"json"`` — canonical JSON
    (sorted keys, compact separators), used by the live daemon so its
    window-state checkpoints are byte-stable and greppable.
    """

    def __init__(self, root: str, keep: int = DEFAULT_KEEP, codec: str = "pickle"):
        if codec not in ("pickle", "json"):
            raise PipelineError(f"unknown checkpoint codec {codec!r}")
        self.root = root
        self.keep = keep
        self.codec = codec
        self.hits = 0
        self.misses = 0

    def _base(self, key: str, stage: str) -> str:
        safe = stage.replace(os.sep, "_")
        return os.path.join(self.root, key, safe)

    def _generations(self, key: str, stage: str) -> storage.GenerationStore:
        kind = CHECKPOINT_KIND if self.codec == "pickle" else CHECKPOINT_JSON_KIND
        return storage.GenerationStore(
            self._base(key, stage),
            kind,
            keep=self.keep,
            label=f"checkpoint.{stage}",
        )

    def has(self, key: str, stage: str) -> bool:
        """Whether any checkpoint file (of any generation) exists.

        Existence is deliberately cheap and unverified; :meth:`load` does
        the integrity work and decides what is actually usable.
        """
        return len(self._generations(key, stage)) > 0

    def _decode(self, payload: bytes, stage: str, path: str) -> Any:
        try:
            if self.codec == "json":
                return json.loads(payload.decode("utf-8"))
            return pickle.loads(payload)
        except Exception as exc:  # repro-lint: disable=typed-errors (pickle errors vary)
            raise CheckpointCorruptError(
                path, f"checkpoint for stage {stage!r} does not decode: {exc}"
            ) from exc

    def _encode(self, value: Any, stage: str) -> bytes:
        try:
            if self.codec == "json":
                text = json.dumps(
                    value, sort_keys=True, separators=(",", ":"), allow_nan=False
                )
                return text.encode("utf-8")
            buf = io.BytesIO()
            pickle.dump(value, buf, protocol=pickle.HIGHEST_PROTOCOL)
            return buf.getvalue()
        except (pickle.PicklingError, TypeError, AttributeError, ValueError) as exc:
            raise PipelineError(f"cannot checkpoint stage {stage!r}: {exc}") from exc

    def load(self, key: str, stage: str) -> Any:
        """Load the newest intact generation; counts a hit.

        Raises :class:`PipelineError` when no checkpoint exists at all and
        :class:`CheckpointCorruptError` when files exist but every one is
        corrupt — a typed signal the pipeline maps to "recompute", never a
        raw deserialization error.
        """
        gens = self._generations(key, stage)
        try:
            loaded = gens.load_latest_intact()
        except ArtifactCorruptError as exc:
            self.misses += 1
            obs.counter("checkpoint.misses").inc()
            obs.counter("checkpoint.corrupt").inc()
            raise CheckpointCorruptError(
                exc.path,
                f"corrupt checkpoint for stage {stage!r}: {exc.reason}",
                quarantined_to=exc.quarantined_to,
            ) from exc
        if loaded is not None:
            payload, _gen = loaded
            value = self._decode(payload, stage, gens.base)
            self.hits += 1
            obs.counter("checkpoint.hits").inc()
            return value

        self.misses += 1
        obs.counter("checkpoint.misses").inc()
        raise PipelineError(
            f"no checkpoint for stage {stage!r} at {gens.base}.g*"
        )

    def save(self, key: str, stage: str, value: Any) -> str:
        """Durably persist a new generation; returns the checkpoint path.

        The commit is atomic (temp file, fsync, rename, directory fsync)
        and checksummed, so a crash at any byte leaves either the previous
        generation or a detectably-partial temp file — never a torn
        checkpoint a resume would trust.
        """
        payload = self._encode(value, stage)
        try:
            path = self._generations(key, stage).commit(payload)
        except StorageError as exc:
            raise PipelineError(f"cannot checkpoint stage {stage!r}: {exc}") from exc
        obs.counter("checkpoint.saves").inc()
        return path

    def drop(self, key: str, stage: Optional[str] = None) -> None:
        """Remove one stage's checkpoint, or every stage under the key."""
        if stage is not None:
            self._generations(key, stage).drop()
            return
        fs = storage.get_fs()
        key_dir = os.path.join(self.root, key)
        if os.path.isdir(key_dir):
            for name in fs.listdir(key_dir):
                fs.remove(os.path.join(key_dir, name))
            os.rmdir(key_dir)
