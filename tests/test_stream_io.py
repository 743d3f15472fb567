"""Tests for repro.streams.io (stream and payload serialization)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.io import load_stream, save_stream
from repro.streams.model import Stream, Update, stream_from_updates


class TestSerialization:
    def test_round_trip(self, tmp_path):
        s = stream_from_updates(64, [(1, 3), (2, -2), (1, -1)])
        path = tmp_path / "stream.npz"
        save_stream(s, path)
        loaded = load_stream(path)
        assert loaded.n == s.n
        assert [(u.item, u.delta) for u in loaded] == [
            (u.item, u.delta) for u in s
        ]

    def test_empty_stream_round_trip(self, tmp_path):
        s = Stream(16)
        path = tmp_path / "empty.npz"
        save_stream(s, path)
        loaded = load_stream(path)
        assert loaded.n == 16 and len(loaded) == 0

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.int64(99), n=np.int64(4),
                 items=np.array([], dtype=np.int64),
                 deltas=np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="version"):
            load_stream(path)

    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=-9, max_value=9).filter(lambda d: d != 0),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_round_trip_preserves_frequencies(self, tmp_path_factory,
                                                       updates):
        s = stream_from_updates(32, updates)
        path = tmp_path_factory.mktemp("io") / "s.npz"
        save_stream(s, path)
        loaded = load_stream(path)
        assert (loaded.frequency_vector().f == s.frequency_vector().f).all()


class TestCorruptStreamFiles:
    """load_stream treats the file as untrusted input: corrupt or
    hand-edited containers must raise ValueError, not smuggle invalid
    updates into the sketches (the old per-update loop validated only
    the item range, and only update-by-update)."""

    def _write(self, path, *, n=8, items=None, deltas=None, version=1):
        np.savez(
            path,
            version=np.int64(version),
            n=np.int64(n),
            items=np.asarray(items if items is not None else [1, 2]),
            deltas=np.asarray(deltas if deltas is not None else [1, -1]),
        )

    def test_item_out_of_universe(self, tmp_path):
        path = tmp_path / "bad.npz"
        self._write(path, n=8, items=[1, 9], deltas=[1, 1])
        with pytest.raises(ValueError):
            load_stream(path)

    def test_negative_item(self, tmp_path):
        path = tmp_path / "bad.npz"
        self._write(path, items=[-1, 2], deltas=[1, 1])
        with pytest.raises(ValueError):
            load_stream(path)

    def test_zero_delta(self, tmp_path):
        path = tmp_path / "bad.npz"
        self._write(path, items=[1, 2], deltas=[1, 0])
        with pytest.raises(ValueError):
            load_stream(path)

    def test_float_dtype(self, tmp_path):
        path = tmp_path / "bad.npz"
        self._write(path, items=[1.5, 2.0], deltas=[1, 1])
        with pytest.raises((TypeError, ValueError)):
            load_stream(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.npz"
        self._write(path, items=[1, 2, 3], deltas=[1, 1])
        with pytest.raises(ValueError):
            load_stream(path)

    def test_invalid_universe(self, tmp_path):
        path = tmp_path / "bad.npz"
        self._write(path, n=0, items=[], deltas=[])
        with pytest.raises(ValueError, match="universe"):
            load_stream(path)

    def test_missing_entry(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.int64(1), n=np.int64(4))
        with pytest.raises(ValueError, match="missing"):
            load_stream(path)

    def test_truncated_file(self, tmp_path):
        whole = tmp_path / "whole.npz"
        save_stream(stream_from_updates(8, [(1, 2), (3, -1)]), whole)
        torn = tmp_path / "torn.npz"
        torn.write_bytes(whole.read_bytes()[: whole.stat().st_size // 2])
        with pytest.raises(Exception):
            load_stream(torn)
