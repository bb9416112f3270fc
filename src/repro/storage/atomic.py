"""Atomic commit primitives: write → fsync → rename → fsync(dir).

Every durable artifact goes through :func:`atomic_write_bytes`: the bytes
land in a same-directory temp file, are fsynced, and are published with
one atomic ``replace`` — a reader (or a restarted run) sees either the
old complete file or the new complete file, never a torn hybrid.
``durable=False`` trades the fsyncs away for checksummed, recomputable
artifacts whose corruption is detected on read instead (the two-tier
durability model in ``docs/ROBUSTNESS.md``).  The
append-only path (:func:`atomic_append_bytes`) issues one write syscall
per record and fsyncs it, so a crash can tear at most the final record —
which the JSONL readers skip-and-warn over by design.

Crash points: the commit path announces each phase to
:mod:`repro.faults.crashpoints` (``<label>:before-write``, ``:mid-write``,
``:before-rename``, ``:after-rename``), so the chaos harness can kill the
process at every distinct on-disk state and verify recovery.  The calls
are lazy-imported, cheap no-ops unless a crash spec is active.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.storage import vfs
from repro.util.errors import StorageError

__all__ = ["atomic_append_bytes", "atomic_write_bytes"]


def _crash_point(name: str) -> None:
    from repro.faults.crashpoints import crash_point

    crash_point(name)


def _counter(name: str):
    from repro import obs

    return obs.counter(name)


def _label_for(path: str, label: Optional[str]) -> str:
    return label if label else os.path.basename(path)


def atomic_write_bytes(
    path: str,
    data: bytes,
    label: Optional[str] = None,
    fs: Optional[vfs.LocalFS] = None,
    durable: bool = True,
) -> str:
    """Commit ``data`` to ``path`` atomically; returns the path.

    ``label`` names the artifact in crash points and diagnostics (defaults
    to the basename).  I/O failures — including injected transient
    ``EIO``/``ENOSPC`` — surface as :class:`StorageError` with the original
    ``OSError`` chained, so callers catch one type.

    ``durable=True`` (the default) is the full write–fsync–rename–
    fsync(dir) sequence: the published file survives even a kernel crash
    or power loss.  ``durable=False`` skips both fsyncs but keeps the
    same-directory temp file and atomic rename: a *process* crash (the
    failure the chaos matrix simulates) still can never publish a torn
    file, and the cheap tier is reserved for checksummed, recomputable
    artifacts whose readers *detect* the power-loss window instead
    (see ``docs/ROBUSTNESS.md``).  Crash-point names are identical in
    both tiers, so the crash matrix covers them equally.
    """
    fs = fs if fs is not None else vfs.get_fs()
    label = _label_for(path, label)
    parent = os.path.dirname(os.path.abspath(path))
    tmp = f"{path}.tmp.{os.getpid()}"
    _crash_point(f"{label}:before-write")
    try:
        fs.makedirs(parent)
        with fs.open(tmp, "wb") as fh:
            # Two writes with a crash point between them, so the chaos
            # harness can leave a genuinely torn temp file behind.
            # memoryview slices: no payload copies on the hot commit path.
            view = memoryview(data)
            half = len(data) // 2
            fh.write(view[:half])
            _crash_point(f"{label}:mid-write")
            fh.write(view[half:])
            if durable:
                fs.fsync(fh)
        _crash_point(f"{label}:before-rename")
        fs.replace(tmp, path)
        if durable:
            fs.fsync_dir(parent)
    except OSError as exc:
        try:
            if fs.exists(tmp):
                fs.remove(tmp)
        except OSError:
            pass
        raise StorageError(f"cannot commit {path} ({label}): {exc}") from exc
    _crash_point(f"{label}:after-rename")
    _counter("storage.commits").inc()
    _counter("storage.bytes_written").inc(len(data))
    return path


def atomic_append_bytes(
    path: str,
    data: bytes,
    label: Optional[str] = None,
    fs: Optional[vfs.LocalFS] = None,
) -> str:
    """Append one record durably: a single write syscall, then fsync.

    A crash mid-append can tear only the final record; readers of the
    append-only artifacts (``BENCH_history.jsonl``) tolerate exactly that.
    """
    fs = fs if fs is not None else vfs.get_fs()
    label = _label_for(path, label)
    parent = os.path.dirname(os.path.abspath(path))
    _crash_point(f"{label}:before-append")
    try:
        fs.makedirs(parent)
        with fs.open(path, "ab") as fh:
            fh.write(data)
            fs.fsync(fh)
    except OSError as exc:
        raise StorageError(f"cannot append to {path} ({label}): {exc}") from exc
    _crash_point(f"{label}:after-append")
    _counter("storage.appends").inc()
    _counter("storage.bytes_written").inc(len(data))
    return path
