"""Durability harness: the npz payload container, the checkpoint
store/checkpointer, crash recovery, and snapshot shipping.

The acceptance bar: a session SIGKILLed mid-stream, recovered from the
newest durable checkpoint and fed the remaining updates, ends
**bit-identical** — state and estimates — to a run that was never
interrupted, and the npz round trip preserves every registry spec's
snapshot exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    Params,
    StreamSession,
    build,
    payload_equal,
    restore,
    snapshot,
    specs,
)
from repro.api.checkpoint import (
    Checkpointer,
    CheckpointStore,
    export_snapshot,
    import_and_merge,
    import_session,
    recover,
    recover_all,
)
from repro.streams.generators import (
    bounded_deletion_stream,
    zipfian_insertion_stream,
)
from repro.streams.io import load_payload, save_payload

import _checkpoint_child as child
from test_session import _state_diff, assert_bit_identical

N = 512
PARAMS = Params(n=N, eps=0.2, delta=0.25, alpha=4.0, seed=0xD0C)

ALL_SPECS = [s.name for s in specs()]
INSERTION_ONLY = {"misra_gries"}


def _stream_for(name, m=3000, seed=17):
    if name in INSERTION_ONLY:
        return zipfian_insertion_stream(N, m, skew=1.2, seed=seed)
    return bounded_deletion_stream(N, m, alpha=4, seed=seed, strict=False)


# -- the flattened-key npz payload container ---------------------------------


class TestPayloadContainer:
    def test_session_payload_round_trips_exactly(self, tmp_path):
        session = StreamSession(N, params=PARAMS, chunk_size=300)
        session.track("csss").track("countmin").track("alpha_l0")
        stream = _stream_for("any")
        session.push(*stream.as_arrays())
        payload = session.snapshot()
        path = tmp_path / "session.npz"
        save_payload(payload, path)
        assert payload_equal(load_payload(path), payload)

    def test_no_pickle_anywhere(self, tmp_path):
        """The container must be readable with allow_pickle=False —
        the whole point of the flattened layout."""
        session = StreamSession(N, params=PARAMS).track("heavy_hitters_general")
        session.push([1, 2, 3], [1, 1, 1])
        path = tmp_path / "s.npz"
        save_payload(session.snapshot(), path)
        with np.load(path, allow_pickle=False) as data:  # must not raise
            assert "__payload_json__" in data.files

    def test_object_dtype_arrays_are_refused(self, tmp_path):
        bad = {"format": 1, "root": np.array([object()], dtype=object)}
        with pytest.raises(TypeError, match="object-dtype"):
            save_payload(bad, tmp_path / "bad.npz")

    def test_non_string_keys_and_foreign_nodes_are_refused(self, tmp_path):
        with pytest.raises(TypeError, match="not a string"):
            save_payload({1: "x"}, tmp_path / "bad.npz")
        with pytest.raises(TypeError, match="cannot persist"):
            save_payload({"x": object()}, tmp_path / "bad.npz")

    def test_reserved_marker_key_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_payload({"__npz__": "a0"}, tmp_path / "bad.npz")

    def test_foreign_npz_is_refused(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, items=np.arange(3))
        with pytest.raises(ValueError, match="payload container"):
            load_payload(path)

    def test_future_container_version_is_refused(self, tmp_path):
        path = tmp_path / "future.npz"
        sidecar = np.frombuffer(b"{}", dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **{"__payload_format__": np.int64(99),
                            "__payload_json__": sidecar})
        with pytest.raises(ValueError, match="version"):
            load_payload(path)

    def test_truncated_file_raises_cleanly(self, tmp_path):
        whole = tmp_path / "whole.npz"
        save_payload(snapshot(build("countsketch", PARAMS)), whole)
        torn = tmp_path / "torn.npz"
        torn.write_bytes(whole.read_bytes()[: whole.stat().st_size // 3])
        with pytest.raises(Exception) as info:
            load_payload(torn)
        # Whatever numpy/zipfile raises must be in the recoverable set.
        from repro.api.checkpoint import _INVALID_CHECKPOINT_ERRORS

        assert isinstance(info.value, _INVALID_CHECKPOINT_ERRORS)

    def test_missing_array_entry_is_refused(self, tmp_path):
        path = tmp_path / "gone.npz"
        sidecar = np.frombuffer(
            b'{"root": {"__npz__": "a7"}}', dtype=np.uint8
        )
        with open(path, "wb") as fh:
            np.savez(fh, **{"__payload_format__": np.int64(1),
                            "__payload_json__": sidecar})
        with pytest.raises(ValueError, match="missing array"):
            load_payload(path)


class TestEverySpecNpzRoundTrip:
    def test_sweep_covers_the_whole_registry(self):
        assert len(ALL_SPECS) >= 26

    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_npz_round_trip_matches_in_memory_restore(self, name, tmp_path):
        """For every registry spec: snapshot -> npz -> restore must be
        bit-identical to the in-memory snapshot/restore, including
        *continuing* ingestion on the clone (RNG state round-trips
        through the file)."""
        stream = _stream_for(name)
        items, deltas = stream.as_arrays()
        half = len(items) // 2
        original = build(name, PARAMS)
        original.update_batch(items[:half], deltas[:half])

        payload = snapshot(original)
        path = tmp_path / f"{name}.npz"
        save_payload(payload, path)
        loaded = load_payload(path)
        assert payload_equal(loaded, payload)

        memory_clone = restore(payload)
        disk_clone = restore(loaded)
        assert_bit_identical(memory_clone, disk_clone, name)

        original.update_batch(items[half:], deltas[half:])
        disk_clone.update_batch(items[half:], deltas[half:])
        assert_bit_identical(original, disk_clone, name)


# -- the checkpoint store ----------------------------------------------------


class TestCheckpointStore:
    def _payload(self, tag):
        return {"format": 1, "root": {"tag": tag}}

    def test_retention_keeps_the_newest_k(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        for i in range(5):
            store.save(self._payload(i), updates=i * 10)
        names = [p.name for p in store.checkpoint_paths()]
        assert names == ["ckpt-00000004-u30.npz", "ckpt-00000005-u40.npz"]
        payload, path = store.latest()
        assert payload["root"]["tag"] == 4
        assert store.updates_watermark(path) == 40

    def test_sequence_survives_retention(self, tmp_path):
        """Deleting old checkpoints must not recycle sequence numbers —
        the order of surviving files stays meaningful."""
        store = CheckpointStore(tmp_path, keep_last=1)
        store.save(self._payload("a"), updates=1)
        store.save(self._payload("b"), updates=2)
        (final,) = store.checkpoint_paths()
        assert final.name.startswith("ckpt-00000002-")

    def test_torn_write_falls_back_to_older_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        store.save(self._payload("good"), updates=100)
        good = store.checkpoint_paths()[-1]
        # A newer checkpoint torn mid-write by a kill: same bytes,
        # truncated.
        torn = tmp_path / "ckpt-00000099-u999.npz"
        torn.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            payload, path = store.latest()
        assert payload["root"]["tag"] == "good"
        assert path == good

    def test_compact_sweeps_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        leftover = tmp_path / ".tmp-12345-ckpt-00000009-u1.npz"
        leftover.write_bytes(b"torn")
        store.save(self._payload("x"), updates=1)
        assert not leftover.exists()

    def test_foreign_files_are_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a checkpoint")
        store = CheckpointStore(tmp_path)
        assert store.checkpoint_paths() == []
        assert store.latest() is None

    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointStore(tmp_path, keep_last=0)


# -- the checkpointer --------------------------------------------------------


class TestCheckpointer:
    def _session(self):
        return StreamSession(N, params=PARAMS, chunk_size=128).track(
            "countsketch"
        )

    def test_requires_a_trigger(self, tmp_path):
        with pytest.raises(ValueError, match="trigger"):
            Checkpointer(self._session(), CheckpointStore(tmp_path))

    def test_updates_trigger(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=10)
        ck = Checkpointer(self._session(), store, every_updates=100)
        items = np.arange(40) % N
        deltas = np.ones(40, dtype=np.int64)
        for _ in range(2):
            ck.push(items, deltas)
        assert ck.checkpoints_written == 0  # 80 < 100
        ck.push(items, deltas)  # 120 >= 100
        assert ck.checkpoints_written == 1
        assert store.updates_watermark(store.checkpoint_paths()[-1]) == 120

    def test_wall_time_trigger_with_injected_clock(self, tmp_path):
        fake = {"t": 0.0}
        ck = Checkpointer(
            self._session(), CheckpointStore(tmp_path),
            every_seconds=10.0, clock=lambda: fake["t"],
        )
        ck.push([1], [1])
        assert ck.checkpoints_written == 0
        fake["t"] = 11.0
        assert ck.maybe_checkpoint() is not None
        assert ck.maybe_checkpoint() is None  # interval restarts
        assert ck.checkpoints_written == 1

    def test_background_thread_checkpoints_without_pushes(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=5)
        session = self._session()
        session.push([3], [7])
        with Checkpointer(session, store, every_seconds=0.05):
            deadline = time.monotonic() + 10.0
            while not store.checkpoint_paths():
                assert time.monotonic() < deadline, "no background checkpoint"
                time.sleep(0.01)
        # Context exit wrote the final checkpoint; the state is durable.
        recovered = recover(store)
        assert recovered is not None
        assert recovered["countsketch"].query(3) == 7

    def test_stop_writes_final_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        ck = Checkpointer(self._session(), store, every_updates=10_000)
        ck.push([5], [2])
        assert store.checkpoint_paths() == []  # trigger never fired
        ck.stop()
        assert recover(store).updates_processed == 1

    def test_resume_is_bit_identical_in_process(self, tmp_path):
        """Checkpoint mid-stream, recover, feed the rest: every
        consumer ends bit-identical to the uninterrupted session."""
        names = ("countsketch", "csss", "l1_strict", "alpha_l0")
        stream = bounded_deletion_stream(N, 4000, alpha=4, seed=91,
                                         strict=False)
        items, deltas = stream.as_arrays()

        def make():
            session = StreamSession(N, params=PARAMS, chunk_size=300)
            for name in names:
                session.track(name)
            return session

        uninterrupted = make()
        uninterrupted.push(items, deltas).flush()

        store = CheckpointStore(tmp_path, keep_last=2)
        ck = Checkpointer(make(), store, every_updates=700)
        cut = 1700
        for pos in range(0, cut, 100):
            ck.push(items[pos:pos + 100], deltas[pos:pos + 100])
        # Abandon ck.session (the "killed" process); recover from disk.
        resumed = recover(store)
        done = resumed.updates_processed
        assert 0 < done <= cut
        resumed.push(items[done:], deltas[done:]).flush()
        assert resumed.updates_processed == len(items)
        for name in names:
            assert_bit_identical(uninterrupted[name], resumed[name], name)
        assert uninterrupted.query_all() == resumed.query_all()


# -- crash recovery under SIGKILL -------------------------------------------


class TestKillAndRecover:
    def test_sigkilled_session_recovers_bit_identically(self, tmp_path):
        """The tentpole acceptance test: SIGKILL a paced worker
        mid-stream, recover the newest durable checkpoint, feed the
        remaining updates, and compare state + estimates bitwise
        against a run that was never interrupted."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable,
             str(Path(__file__).with_name("_checkpoint_child.py")),
             str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            store = CheckpointStore(tmp_path, keep_last=child.KEEP_LAST)
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                paths = store.checkpoint_paths()
                if paths and store.updates_watermark(paths[-1]) < child.M:
                    break
                if proc.poll() is not None:
                    out, err = proc.communicate()
                    raise AssertionError(
                        f"worker exited before the kill: {out!r} {err!r}"
                    )
                time.sleep(0.01)
            else:
                raise AssertionError("no mid-stream checkpoint appeared")
            proc.kill()  # SIGKILL: no cleanup, no flush, no atexit
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)

        with warnings.catch_warnings():
            # A file mid-write at kill time may be torn; skipping it is
            # the documented recovery path.
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = recover(store)
        assert resumed is not None
        done = resumed.updates_processed
        assert 0 < done < child.M, "checkpoint was not mid-stream"
        assert resumed.names() == list(child.BATTERY)

        items, deltas = child.build_stream().as_arrays()
        resumed.push(items[done:], deltas[done:]).flush()

        uninterrupted = child.build_session()
        uninterrupted.push(items, deltas).flush()

        assert resumed.updates_processed == uninterrupted.updates_processed
        for name in child.BATTERY:
            assert_bit_identical(uninterrupted[name], resumed[name], name)
        assert resumed.query_all() == uninterrupted.query_all()


# -- snapshot shipping (migration / replication) -----------------------------


class TestSnapshotShipping:
    def test_export_import_round_trip(self, tmp_path):
        session = StreamSession(N, params=PARAMS).track("l1_strict")
        session.push([1, 2, 1], [1, 1, 1])
        path = export_snapshot(session, tmp_path / "ship.npz")
        clone = import_session(path)
        assert clone.updates_processed == 3
        assert clone.query("l1_strict") == session.query("l1_strict")
        # Atomic write: no temp files survive the export.
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_import_and_merge_equals_single_session(self, tmp_path):
        """Migrate node 1's session to node 0 by file and merge: the
        linear consumers end bit-identical to one session that saw the
        whole stream."""
        stream = bounded_deletion_stream(N, 2000, alpha=4, seed=55,
                                         strict=False)
        items, deltas = stream.as_arrays()
        half = len(items) // 2

        def make(node):
            return (
                StreamSession(N, params=PARAMS, node=node)
                .track("countsketch").track("frequency_vector")
            )

        whole = make(0)
        whole.push(items, deltas).flush()
        east, west = make(0), make(1)
        east.push(items[:half], deltas[:half])
        west.push(items[half:], deltas[half:])
        path = export_snapshot(west, tmp_path / "west.npz")
        merged = import_and_merge(east, path)
        assert merged.updates_processed == len(items)
        assert np.array_equal(whole["countsketch"].table,
                              merged["countsketch"].table)
        assert np.array_equal(whole["frequency_vector"].f,
                              merged["frequency_vector"].f)

    def test_import_and_merge_validates_like_merge(self, tmp_path):
        a = StreamSession(N, params=PARAMS).track("countmin")
        b = StreamSession(N, params=PARAMS).track("countsketch")
        path = export_snapshot(b, tmp_path / "b.npz")
        with pytest.raises(ValueError, match="consumer sets"):
            import_and_merge(a, path)


# -- recover() surface -------------------------------------------------------


class TestRecover:
    def test_recover_empty_directory_returns_none(self, tmp_path):
        assert recover(tmp_path / "fresh") is None

    def test_recover_accepts_directory_or_store(self, tmp_path):
        session = StreamSession(N, params=PARAMS).track("countmin")
        session.push([9], [4])
        CheckpointStore(tmp_path).save(session.snapshot(), updates=1)
        by_path = recover(tmp_path)
        by_store = recover(CheckpointStore(tmp_path))
        assert by_path["countmin"].query(9) == 4
        assert by_store.updates_processed == by_path.updates_processed

    @pytest.mark.parametrize("attr, refusal", [
        ("_pos", "_pos"),
        ("_halve_rng", "never defines"),
        ("dtype", "'ndarray' node lacks its 'dtype' field"),
    ], ids=["_pos", "_halve_rng", "missing_field"])
    def test_recover_all_skips_a_session_restore_refuses(
            self, tmp_path, drop_state, drop_field, attr, refusal):
        """A session whose checkpoint ``restore`` refuses (a consumer
        missing state its class sets at construction; without
        ``_halve_rng`` the payload also refers to an object id it never
        defines; an array node without its dtype — the last two used to
        escape as a bare ``KeyError``) is skipped with a warning, and
        the others still recover: a durable service starts instead of
        failing on one session."""
        from repro.service import SketchService

        for name in ("good", "legacy"):
            session = (StreamSession(N, params=PARAMS).track("countmin")
                       .track("sampled_frequencies"))
            payload = session.push([9], [4]).snapshot()
            if name == "legacy" and attr == "dtype":
                drop_field(payload, "ndarray", "dtype")
            elif name == "legacy":
                drop_state(payload, "SampledFrequencies", attr)
            CheckpointStore(tmp_path / name).save(payload, updates=1)
        with pytest.warns(RuntimeWarning, match=f"'legacy'.*{refusal}"):
            recovered = recover_all(tmp_path)
        assert list(recovered) == ["good"]
        with pytest.raises(ValueError, match=refusal):
            recover(tmp_path / "legacy")
        with pytest.warns(RuntimeWarning, match="'legacy'"):
            assert list(SketchService(checkpoint_dir=tmp_path).sessions) == [
                "good"]


# -- the CLI durable path ----------------------------------------------------


class TestCliCheckpointing:
    ARGS = ["l1", "--workload", "zipf", "--n", "1024", "--m", "4000",
            "--alpha", "4"]

    def test_run_then_resume(self, tmp_path, capsys):
        from repro.cli import main

        flags = ["--checkpoint-dir", str(tmp_path),
                 "--checkpoint-every", "1000", "--checkpoint-keep", "2"]
        assert main(self.ARGS + flags) == 0
        first = capsys.readouterr().out
        assert "checkpoints" in first
        store = CheckpointStore(tmp_path, keep_last=2)
        assert len(store.checkpoint_paths()) == 2  # retention applied

        assert main(self.ARGS + flags) == 0
        second = capsys.readouterr().out
        assert "recovered checkpoint" in second
        # The resumed run reports the same estimate as the first.
        line = next(l for l in first.splitlines() if "L1 estimate" in l)
        assert line in second

    def test_mismatched_directory_is_refused(self, tmp_path, capsys):
        from repro.cli import main

        flags = ["--checkpoint-dir", str(tmp_path),
                 "--checkpoint-every", "1000"]
        assert main(self.ARGS + flags) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="different run"):
            main(["l0", "--workload", "zipf", "--n", "1024", "--m",
                  "4000", "--alpha", "4"] + flags)
