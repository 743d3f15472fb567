"""Round-trip tests for the column-array stream interface.

``Stream.as_arrays()`` / ``Stream.from_arrays()`` are the zero-copy
substrate of the batch pipeline; their validation must match the scalar
``Update.__post_init__`` rules exactly (reject zero deltas, negative
items, out-of-universe items), and the chunked engine must replay them
identically to the scalar loop.  Sizes, seeds and indices handed to the
engine, sessions and params must be integers: a ``1.5`` is refused,
never truncated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Params, StreamSession
from repro.batch import (
    as_update_arrays,
    exact_sum,
    running_sum_extrema,
    running_sums,
    scaled_mod_increments,
    signed_scatter_add_peak,
)
from repro.sketches.knw_l0 import ExactSmallL0
from repro.streams.engine import ChunkDriver, iter_chunks, replay, replay_many
from repro.streams.generators import bounded_deletion_stream
from repro.streams.model import FrequencyVector, Stream, Update


@pytest.fixture
def stream() -> Stream:
    return bounded_deletion_stream(n=256, m=900, alpha=4, seed=5, strict=False)


class TestAsArrays:
    def test_columns_match_updates(self, stream):
        items, deltas = stream.as_arrays()
        assert items.dtype == np.int64 and deltas.dtype == np.int64
        assert len(items) == len(deltas) == len(stream)
        for t, u in enumerate(stream):
            assert items[t] == u.item and deltas[t] == u.delta

    def test_cache_is_reused_and_invalidated_by_append(self, stream):
        first = stream.as_arrays()
        assert stream.as_arrays()[0] is first[0]  # cached
        stream.append(Update(3, 2))
        items, deltas = stream.as_arrays()
        assert len(items) == len(stream)
        assert items[-1] == 3 and deltas[-1] == 2

    def test_empty_stream(self):
        items, deltas = Stream(8).as_arrays()
        assert len(items) == 0 and len(deltas) == 0


class TestFromArrays:
    def test_round_trip(self, stream):
        items, deltas = stream.as_arrays()
        rebuilt = Stream.from_arrays(stream.n, items, deltas)
        assert len(rebuilt) == len(stream)
        assert all(a == b for a, b in zip(rebuilt, stream))
        ri, rd = rebuilt.as_arrays()
        assert np.array_equal(ri, items) and np.array_equal(rd, deltas)

    def test_accepts_plain_lists(self):
        s = Stream.from_arrays(16, [1, 2, 3], [5, -5, 1])
        assert [u.item for u in s] == [1, 2, 3]
        assert [u.delta for u in s] == [5, -5, 1]

    def test_rejects_zero_deltas(self):
        """Matches Update.__post_init__: zero-delta updates are invalid."""
        with pytest.raises(ValueError, match="zero-delta"):
            Stream.from_arrays(16, [1, 2], [3, 0])

    def test_rejects_negative_items(self):
        """Matches Update.__post_init__: items are non-negative."""
        with pytest.raises(ValueError, match="non-negative"):
            Stream.from_arrays(16, [-1, 2], [3, 1])

    def test_rejects_items_outside_universe(self):
        with pytest.raises(ValueError, match="outside universe"):
            Stream.from_arrays(16, [4, 16], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            Stream.from_arrays(16, [1, 2, 3], [1, 1])

    def test_rejects_non_integral_dtypes(self):
        with pytest.raises(TypeError):
            Stream.from_arrays(16, np.array([1.5, 2.0]), np.array([1, 1]))
        with pytest.raises(TypeError):
            Stream.from_arrays(16, np.array([1, 2]), np.array([1.0, 1.0]))

    def test_caller_mutation_does_not_corrupt_cache(self):
        items = np.array([1, 2, 3], dtype=np.int64)
        deltas = np.array([1, 1, 1], dtype=np.int64)
        s = Stream.from_arrays(16, items, deltas)
        items[0] = 9
        assert s.as_arrays()[0][0] == 1


class TestValidatorHelper:
    def test_as_update_arrays_matches_update_rules(self):
        items, deltas = as_update_arrays([0, 1], [1, -1], universe=4)
        assert items.tolist() == [0, 1] and deltas.tolist() == [1, -1]
        with pytest.raises(ValueError):
            as_update_arrays([0], [0])
        with pytest.raises(ValueError):
            as_update_arrays([-1], [1])
        with pytest.raises(ValueError):
            as_update_arrays([5], [1], universe=4)
        with pytest.raises(ValueError):
            as_update_arrays([[1]], [[1]])

    def test_empty_batch_is_allowed(self):
        items, deltas = as_update_arrays([], [])
        assert len(items) == 0 and len(deltas) == 0

    def test_unsigned_values_beyond_int64_are_refused(self):
        """The int64 cast would wrap them negative: an unsigned delta
        of 2^64 - 1 used to land as -1."""
        top = np.array([2**64 - 1], dtype=np.uint64)
        with pytest.raises(ValueError, match="does not fit in int64"):
            as_update_arrays([1], top, universe=8)
        with pytest.raises(ValueError, match="does not fit in int64"):
            as_update_arrays(top, [1])
        fits = np.array([2**63 - 1], dtype=np.uint64)
        assert as_update_arrays([1], fits)[1].tolist() == [2**63 - 1]

    def test_session_refuses_a_wrapping_unsigned_delta(self):
        session = StreamSession(8).track("frequency_vector")
        with pytest.raises(ValueError, match="does not fit in int64"):
            session.push(np.array([1], dtype=np.uint64),
                         np.array([2**64 - 1], dtype=np.uint64))
        session.flush()
        assert session["frequency_vector"].f[1] == 0

    def test_delta_without_an_int64_magnitude_is_refused(self):
        """|-2^63| has no int64: np.abs wraps it, which blinded the
        overflow guards (ExactSmallL0's batch fold disagreed with its
        scalar loop)."""
        with pytest.raises(ValueError, match="no int64 magnitude"):
            as_update_arrays([1, 1], [-2**63, -2**63])
        sketch = ExactSmallL0(8, c=10, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="no int64 magnitude"):
            sketch.update_batch([5, 5], [-2**63, -1])
        assert sketch._tables == [{}, {}, {}]
        smallest = as_update_arrays([1], [-2**63 + 1])[1]
        assert smallest.tolist() == [-2**63 + 1]

    def test_exact_sum_guard_sees_the_most_negative_int64(self):
        assert exact_sum(np.array([-2**63, -2**63])) == -2**64


class TestOverflowGuards:
    """Each int64 fast path is gated by a float64 magnitude bound, which
    must be taken after the cast: ``np.abs`` wraps an int64 -2^63 back
    to itself, and a bound read off the wrapped value lets the int64
    arithmetic wrap too."""

    LOWEST = np.array([-2**63, -2**63])

    def test_running_sums(self):
        assert running_sums(self.LOWEST).tolist() == [-2**63, -2**64]

    def test_running_sum_extrema(self):
        assert running_sum_extrema(0, self.LOWEST) == (-2**64, 2**64)

    def test_scaled_mod_increments(self):
        got = scaled_mod_increments(np.array([-2**63, 1]),
                                    np.array([3, 3]), 1000003)
        assert got.tolist() == [(-2**63 * 3) % 1000003, 3] == [973974, 3]

    def test_signed_scatter_add_peak(self):
        target = np.zeros(1, dtype=np.int64)
        peak = signed_scatter_add_peak(target, np.array([0, 0]),
                                       np.array([-2**63, 2**62]))
        assert peak == 2**63
        assert target.tolist() == [-2**62]


class TestUpdateRange:
    """``Update`` refuses at construction what the int64 columns of
    ``Stream.as_arrays`` cannot hold, as ``as_update_arrays`` does."""

    TOP = 2**63 - 1

    @pytest.mark.parametrize("item, delta", [
        (2**63, 1), (1, 2**63), (1, -2**63), (1, 2**64),
    ], ids=["item_2^63", "delta_2^63", "delta_-2^63", "delta_2^64"])
    def test_out_of_range_is_a_value_error(self, item, delta):
        with pytest.raises(ValueError, match="int64"):
            Update(item, delta)

    def test_int64_bounds_are_accepted(self):
        stream = Stream(2**63, [Update(self.TOP, self.TOP),
                                Update(1, -self.TOP)])
        items, deltas = stream.as_arrays()
        assert items.tolist() == [self.TOP, 1]
        assert deltas.tolist() == [self.TOP, -self.TOP]


class TestEngine:
    def test_iter_chunks_partitions_exactly(self, stream):
        items, deltas = stream.as_arrays()
        got_items = np.concatenate(
            [ci for ci, _ in iter_chunks(stream, 128)])
        got_deltas = np.concatenate(
            [cd for _, cd in iter_chunks(stream, 128)])
        assert np.array_equal(got_items, items)
        assert np.array_equal(got_deltas, deltas)
        sizes = [len(ci) for ci, _ in iter_chunks(stream, 128)]
        assert all(s == 128 for s in sizes[:-1]) and sizes[-1] <= 128

    def test_iter_chunks_rejects_bad_chunk_size(self, stream):
        with pytest.raises(ValueError):
            list(iter_chunks(stream, 0))

    def test_replay_equals_scalar_loop(self, stream):
        scalar = FrequencyVector(stream.n)
        for u in stream:
            scalar.update(u.item, u.delta)
        for chunk in (1, 13, 4096):
            batched = replay(stream, FrequencyVector(stream.n),
                             chunk_size=chunk)
            assert np.array_equal(scalar.f, batched.f)
            assert np.array_equal(scalar.insertions, batched.insertions)
            assert np.array_equal(scalar.deletions, batched.deletions)

    def test_replay_falls_back_to_scalar_only_sketches(self, stream):
        class ScalarOnly:
            def __init__(self):
                self.seen = []

            def update(self, item, delta):
                self.seen.append((item, delta))

        sk = replay(stream, ScalarOnly(), chunk_size=64)
        assert sk.seen == [(u.item, u.delta) for u in stream]

    def test_replay_many_single_pass(self, stream):
        a, b = replay_many(
            stream, [FrequencyVector(stream.n), FrequencyVector(stream.n)],
            chunk_size=200)
        assert np.array_equal(a.f, b.f)
        assert a.l1() == stream.frequency_vector().l1()


def _tiny() -> Stream:
    return Stream.from_arrays(16, [1, 2, 3], [1, 1, -1])


#: case -> (build(value), a non-integer that ``int()`` would truncate).
INTEGER_ARGUMENTS = {
    "session_n": (lambda v: StreamSession(n=v), 16.7),
    "session_n_bool": (lambda v: StreamSession(n=v), True),
    "session_node": (lambda v: StreamSession(16, node=v), 1.5),
    "session_chunk_size": (lambda v: StreamSession(16, chunk_size=v), 1.5),
    "session_chunk_size_bool": (
        lambda v: StreamSession(16, chunk_size=v), True),
    "replay_chunk_size": (
        lambda v: replay(_tiny(), FrequencyVector(16), chunk_size=v), 1.5),
    "replay_many_chunk_size": (
        lambda v: replay_many(_tiny(), [FrequencyVector(16)], chunk_size=v),
        True),
    "driver_chunk_size": (lambda v: ChunkDriver([], 16, chunk_size=v), 1.5),
    "iter_chunks": (lambda v: list(iter_chunks(_tiny(), v)), 2.5),
    "params_n": (lambda v: Params(n=v), 16.7),
    "params_seed": (lambda v: Params(seed=v), 2.5),
}


@pytest.mark.parametrize("case", sorted(INTEGER_ARGUMENTS))
def test_non_integer_sizes_are_refused_not_truncated(case):
    build, bad = INTEGER_ARGUMENTS[case]
    with pytest.raises(TypeError, match="must be an integer"):
        build(bad)
    build(np.int64(int(bad)))  # NumPy integers stay accepted
