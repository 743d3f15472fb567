"""Durable sessions: periodic checkpoints, crash recovery, migration.

``StreamSession.snapshot()`` made session state portable in memory;
this module makes it survive the process.  A long-running monitor — the
DDoS / 802.11-measurement pipelines the paper targets — must come back
from a kill without replaying the whole stream, so the layer is built
around three guarantees:

* **Atomicity** — every checkpoint is written to a temporary file and
  ``os.replace``-d into its final name.  A kill mid-write leaves a
  stale temp file (swept on the next compaction), never a half-written
  checkpoint; readers only ever see complete files.
* **Recoverability** — :func:`recover` restores the newest checkpoint
  that actually loads, skipping torn or corrupt files, and the restored
  session resumes **bit-identically**: feed it the updates after its
  ``updates_processed`` watermark and its state matches an
  uninterrupted run exactly (chunk boundaries are unobservable by the
  batch contract, so the checkpoint-time flush changes nothing).
* **Bounded footprint** — :class:`CheckpointStore` keeps the newest
  ``keep_last`` checkpoints and deletes the rest, so a monitor that
  checkpoints every few seconds does not grow its directory forever.

:class:`Checkpointer` drives the store from a live session — by
updates processed, by wall time (optionally on a background thread),
or both — and :func:`export_snapshot` / :func:`import_and_merge` ship
single snapshots between processes for migration and replication.

A checkpoint directory assumes a **single writer**: one session
(process) owns it at a time.  Concurrent readers are always safe.

>>> import tempfile
>>> from repro.api import StreamSession
>>> with tempfile.TemporaryDirectory() as ckdir:
...     session = StreamSession(n=64, seed=3).track("countsketch")
...     ck = Checkpointer(session, CheckpointStore(ckdir),
...                       every_updates=2)
...     _ = ck.push([1, 2, 3], [1, 1, 1])
...     recovered = recover(ckdir)
...     recovered.updates_processed
3
"""

from __future__ import annotations

import os
import re
import threading
import time
import warnings
import zipfile
from pathlib import Path
from typing import Callable

from repro.api.session import StreamSession
from repro.streams.io import load_payload, save_payload

__all__ = [
    "CheckpointStore",
    "Checkpointer",
    "recover",
    "recover_all",
    "export_snapshot",
    "import_session",
    "import_and_merge",
]

#: ``ckpt-<seq>-u<updates>.npz`` — the sequence number orders the
#: store; the updates-processed watermark is denormalised into the name
#: for humans and logs.
_CHECKPOINT_RE = re.compile(r"^ckpt-(\d{8})-u(\d+)\.npz$")

#: What a torn, truncated, foreign, or hand-edited checkpoint file can
#: raise while loading — the "skip it and fall back to an older
#: checkpoint" set.  Anything else propagates.
_INVALID_CHECKPOINT_ERRORS = (
    ValueError,  # includes json.JSONDecodeError
    KeyError,
    OSError,  # includes EOFError-adjacent IO failures and races
    EOFError,
    zipfile.BadZipFile,
)


def _atomic_save(payload: dict, path: Path) -> None:
    """Write-then-rename: ``path`` either keeps its old content or
    holds the complete new payload, never a torn write."""
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    try:
        save_payload(payload, tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class CheckpointStore:
    """A directory of session checkpoints with retention.

    Files are named ``ckpt-<seq>-u<updates>.npz``; the monotonically
    increasing sequence number orders them, and :meth:`save` applies
    the keep-last-``keep_last`` retention policy after every write.
    Foreign files in the directory are ignored entirely.
    """

    def __init__(self, directory: str | Path, keep_last: int = 3) -> None:
        if keep_last < 1:
            raise ValueError("keep_last must be at least 1")
        self.directory = Path(directory)
        self.keep_last = int(keep_last)
        self.directory.mkdir(parents=True, exist_ok=True)

    def checkpoint_paths(self) -> list[Path]:
        """Checkpoint files, oldest first (by sequence number)."""
        found = []
        for path in self.directory.iterdir():
            match = _CHECKPOINT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _, path in sorted(found)]

    @staticmethod
    def updates_watermark(path: Path) -> int:
        """The updates-processed count encoded in a checkpoint name."""
        match = _CHECKPOINT_RE.match(Path(path).name)
        if not match:
            raise ValueError(f"{path} is not a checkpoint filename")
        return int(match.group(2))

    def _next_seq(self) -> int:
        paths = self.checkpoint_paths()
        if not paths:
            return 1
        return int(_CHECKPOINT_RE.match(paths[-1].name).group(1)) + 1

    def save(self, payload: dict, updates: int) -> Path:
        """Atomically write one checkpoint; apply retention; return its
        path."""
        final = self.directory / f"ckpt-{self._next_seq():08d}-u{int(updates)}.npz"
        _atomic_save(payload, final)
        self.compact()
        return final

    def compact(self) -> list[Path]:
        """Enforce retention: delete all but the newest ``keep_last``
        checkpoints, sweep temp files left by killed writers, and
        return what was removed."""
        paths = self.checkpoint_paths()
        stale = paths[:-self.keep_last] if len(paths) > self.keep_last else []
        for path in stale:
            path.unlink(missing_ok=True)
        for tmp in self.directory.glob(".tmp-*"):
            tmp.unlink(missing_ok=True)
        return stale

    def latest(self) -> tuple[dict, Path] | None:
        """The newest checkpoint that loads, as ``(payload, path)``.

        Unreadable files (torn by a kill, truncated, corrupted) are
        skipped with a warning — recovery falls back to the most recent
        checkpoint that is actually whole.  Returns ``None`` when no
        checkpoint is readable.
        """
        for path in reversed(self.checkpoint_paths()):
            try:
                return load_payload(path), path
            except _INVALID_CHECKPOINT_ERRORS as exc:
                warnings.warn(
                    f"skipping unreadable checkpoint {path.name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return None


class Checkpointer:
    """Periodic checkpointing of a live :class:`StreamSession`.

    Triggers fire when ``every_updates`` updates have been processed
    since the last checkpoint, when ``every_seconds`` of wall time have
    passed, or both (whichever comes first); at least one must be set.
    Route ingestion through :meth:`push` (which checks the triggers
    after each push), or call :meth:`maybe_checkpoint` from your own
    loop.  :meth:`start` adds a daemon thread that services the
    wall-time trigger even while no pushes arrive; using the
    ``Checkpointer`` as a context manager starts and stops that thread
    and writes a final checkpoint on clean exit.

    A snapshot is taken under the session's own lock, so it never sees
    a push half-applied, whether the push came through :meth:`push` or
    went to the session directly; a direct push only skips the trigger
    check, which the next :meth:`push` or :meth:`maybe_checkpoint`
    makes.  An internal lock keeps the trigger bookkeeping consistent
    between :meth:`push` and the background thread.
    """

    def __init__(
        self,
        session: StreamSession,
        store: CheckpointStore,
        *,
        every_updates: int | None = None,
        every_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if every_updates is None and every_seconds is None:
            raise ValueError(
                "set every_updates and/or every_seconds — a "
                "Checkpointer with no trigger would never checkpoint"
            )
        if every_updates is not None and every_updates < 1:
            raise ValueError("every_updates must be positive")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError("every_seconds must be positive")
        self.session = session
        self.store = store
        self.every_updates = every_updates
        self.every_seconds = every_seconds
        self.checkpoints_written = 0
        self._clock = clock
        self._lock = threading.RLock()
        self._last_updates = session.updates_processed
        self._last_time = clock()
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    # -- ingestion ----------------------------------------------------------
    def push(self, items, deltas) -> "Checkpointer":
        """Push through the session, then checkpoint if a trigger is
        due.  Estimates are unaffected by where checkpoints land — the
        snapshot-time flush only moves a chunk boundary."""
        with self._lock:
            self.session.push(items, deltas)
            if self._due_locked():
                self._checkpoint_locked()
        return self

    # -- checkpointing ------------------------------------------------------
    def _due_locked(self) -> bool:
        if (self.every_updates is not None
                and self.session.updates_processed - self._last_updates
                >= self.every_updates):
            return True
        if (self.every_seconds is not None
                and self._clock() - self._last_time >= self.every_seconds):
            return True
        return False

    def _checkpoint_locked(self) -> Path:
        payload = self.session.snapshot()
        path = self.store.save(payload, self.session.updates_processed)
        self._last_updates = self.session.updates_processed
        self._last_time = self._clock()
        self.checkpoints_written += 1
        return path

    def maybe_checkpoint(self) -> Path | None:
        """Checkpoint now if a trigger is due; the written path, else
        ``None``."""
        with self._lock:
            if not self._due_locked():
                return None
            return self._checkpoint_locked()

    def checkpoint(self) -> Path:
        """Checkpoint unconditionally (the "clean shutdown" call: the
        final state becomes durable regardless of triggers)."""
        with self._lock:
            return self._checkpoint_locked()

    # -- background wall-time servicing -------------------------------------
    def start(self) -> "Checkpointer":
        """Service the wall-time trigger from a daemon thread (no-op
        without ``every_seconds``)."""
        if self.every_seconds is None or self._thread is not None:
            return self
        self._stop_event.clear()

        def run() -> None:
            poll = min(self.every_seconds / 4.0, 0.25)
            while not self._stop_event.wait(poll):
                self.maybe_checkpoint()

        self._thread = threading.Thread(
            target=run, name="repro-checkpointer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, final_checkpoint: bool = True) -> None:
        """Stop the background thread; by default write one final
        checkpoint so the tail of the stream is durable."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if final_checkpoint:
            with self._lock:
                if self.session.updates_processed != self._last_updates \
                        or not self.checkpoints_written:
                    self._checkpoint_locked()

    def __enter__(self) -> "Checkpointer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an exception the session may be mid-failure; keep the last
        # periodic checkpoint rather than persisting unknown state.
        self.stop(final_checkpoint=exc_type is None)


def recover(
    directory: str | Path | CheckpointStore,
    *,
    keep_last: int = 3,
) -> StreamSession | None:
    """Restore the newest valid checkpoint in ``directory``.

    Returns the restored session — its ``updates_processed`` is the
    watermark to resume the stream from — or ``None`` when the
    directory holds no readable checkpoint.  Feeding the session every
    update after the watermark reproduces the uninterrupted run
    bit-for-bit.  Every consumer answers through its registry hook
    again; a checkpoint that loads but that
    :meth:`StreamSession.restore` refuses raises its ``ValueError``.
    """
    store = (
        directory if isinstance(directory, CheckpointStore)
        else CheckpointStore(directory, keep_last=keep_last)
    )
    found = store.latest()
    if found is None:
        return None
    payload, _ = found
    return StreamSession.restore(payload)


def recover_all(
    root: str | Path,
    *,
    keep_last: int = 3,
) -> dict[str, StreamSession]:
    """Recover every session checkpointed under ``root``.

    The multi-session layout the service tier writes: one subdirectory
    per session name, each a :class:`CheckpointStore` directory.
    Returns ``{name: restored session}`` for every subdirectory holding
    a readable checkpoint; empty or unreadable subdirectories are
    skipped (the per-file warnings of :meth:`CheckpointStore.latest`
    still fire), and so, with a warning, is one whose checkpoint
    :meth:`StreamSession.restore` refuses, so the other sessions still
    recover.  A missing ``root`` recovers nothing.
    """
    root = Path(root)
    recovered: dict[str, StreamSession] = {}
    if not root.is_dir():
        return recovered
    for sub in sorted(root.iterdir()):
        if not sub.is_dir():
            continue
        try:
            session = recover(CheckpointStore(sub, keep_last=keep_last))
        except ValueError as exc:
            warnings.warn(f"skipping session {sub.name!r}: {exc}",
                          RuntimeWarning, stacklevel=2)
            continue
        if session is not None:
            recovered[sub.name] = session
    return recovered


def export_snapshot(session: StreamSession, path: str | Path) -> Path:
    """Write one session snapshot to ``path`` (atomically) for
    shipping to another process or machine."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_save(session.snapshot(), path)
    return path


def import_session(path: str | Path) -> StreamSession:
    """Load a session shipped with :func:`export_snapshot`."""
    return StreamSession.restore(load_payload(Path(path)))


def import_and_merge(session: StreamSession, path: str | Path) -> StreamSession:
    """Fold a shipped snapshot into a live session.

    The migration/replication verb: a remote node ``export_snapshot``-s
    its session, this node merges it in.  All of ``merge``'s
    pre-validation applies — same consumer names, types, and specs, and
    the correlated-sampling warning if both sessions share a ``node``
    index.
    """
    return session.merge(import_session(path))
