"""Tests for repro.core.schedules — the order-insensitive schedule core.

The module's contract is chunking-invariance: feeding a schedule its
events one at a time or in arbitrary blocks must consume the generators
identically and land in the same state.  These tests pin that directly
on each primitive (the end-to-end guarantee, through every consuming
structure, lives in test_batch_equivalence.py).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csss import CSSS
from repro.core.sampling import binomial_from_uniform, binomial_from_uniforms
from repro.core.schedules import (
    AdaptiveSamplingSchedule,
    PacedCounterSchedule,
    PrecisionSamplingSchedule,
    exponential_interval_changes,
    exponential_interval_window,
    windowed_segments,
)
from repro.counters.morris import MorrisCounter
from repro.hashing.kwise import UniformScalars
from repro.streams.engine import replay
from repro.streams.generators import bounded_deletion_stream

from test_batch_equivalence import assert_same_state


def _chunks_from_sizes(total: int, sizes: list[int]):
    out, used = [], 0
    for size in sizes:
        if used >= total:
            break
        out.append(min(size, total - used))
        used += out[-1]
    if used < total:
        out.append(total - used)
    return out


class TestPacedCounterSchedule:
    def test_batch_matches_scalar(self):
        a = PacedCounterSchedule(np.random.default_rng(1))
        b = PacedCounterSchedule(np.random.default_rng(1))
        bumps = a.advance_batch(500).tolist()
        scalar_bumps = [t for t in range(500) if b.advance()]
        assert bumps == scalar_bumps
        assert a.v == b.v
        assert a.estimate == b.estimate

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=97),
                       min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunking_invariance(self, sizes, seed):
        total = 400
        whole = PacedCounterSchedule(np.random.default_rng(seed))
        chunked = PacedCounterSchedule(np.random.default_rng(seed))
        all_bumps = whole.advance_batch(total).tolist()
        got, offset = [], 0
        for size in _chunks_from_sizes(total, sizes):
            got.extend((offset + t) for t in chunked.advance_batch(size))
            offset += size
        assert got == all_bumps
        assert chunked.v == whole.v
        # Generator states equal => the next draw is also identical.
        assert (
            chunked._rng.bit_generator.state == whole._rng.bit_generator.state
        )

    def test_estimate_at_matches_counter_formula(self):
        sched = PacedCounterSchedule(np.random.default_rng(2), a=1.5)
        sched.advance_batch(1000)
        assert sched.estimate == pytest.approx(sched.estimate_at(sched.v))

    def test_morris_counter_uniform_api_is_classic_law(self):
        """increment_from_uniform bumps iff u < a^-v (classic Morris)."""
        mc = MorrisCounter(np.random.default_rng(3))
        assert mc.increment_from_uniform(0.0)  # v: 0 -> 1 (p = 1)
        assert mc.v == 1
        assert not mc.increment_from_uniform(0.9)  # p = 1/2
        assert mc.increment_from_uniform(0.1)
        assert mc.v == 2


class TestAdaptiveSamplingSchedule:
    @staticmethod
    def _drive_scalar(sched, mags):
        kept = []
        for mag in mags:
            kept.append(sched.offer(int(mag)))
            while sched.needs_halving():
                sched.register_halving(sched.weight // 2)
        return kept

    @staticmethod
    def _drive_batch(sched, mags, chunk_sizes):
        kept, start = [], 0
        for size in chunk_sizes:
            block = mags[start:start + size]
            for _a, _b, seg in sched.accept_batch(block):
                kept.extend(seg.tolist())
                while sched.needs_halving():
                    sched.register_halving(sched.weight // 2)
            start += size
        return kept

    @given(
        mags=st.lists(st.integers(min_value=1, max_value=30),
                      min_size=1, max_size=200),
        sizes=st.lists(st.integers(min_value=1, max_value=64),
                       min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunking_invariance(self, mags, sizes, seed):
        """Scalar offers and arbitrarily chunked accept_batch keep the
        same retained magnitudes, rate trajectory, and generator state
        (halving modelled as exact weight halving on both sides)."""
        mags_arr = np.array(mags, dtype=np.int64)
        scalar = AdaptiveSamplingSchedule(50, np.random.default_rng(seed))
        batch = AdaptiveSamplingSchedule(50, np.random.default_rng(seed))
        kept_scalar = self._drive_scalar(scalar, mags)
        kept_batch = self._drive_batch(
            batch, mags_arr, _chunks_from_sizes(len(mags), sizes)
        )
        assert kept_scalar == kept_batch
        assert scalar.log2_inv_p == batch.log2_inv_p
        assert scalar.weight == batch.weight
        assert (
            scalar._rng.bit_generator.state == batch._rng.bit_generator.state
        )

    def test_segments_close_exactly_at_overflow(self):
        sched = AdaptiveSamplingSchedule(10, np.random.default_rng(4))
        mags = np.full(8, 4, dtype=np.int64)  # rate 1: kept == mags
        segments = []
        for a, b, seg in sched.accept_batch(mags):
            segments.append((a, b, seg.sum()))
            while sched.needs_halving():
                sched.register_halving(0)  # pretend the structure emptied
        # 4 + 4 + 4 = 12 > 10 closes the first segment after 3 updates.
        assert segments[0][:2] == (0, 3)
        assert sched.log2_inv_p >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSamplingSchedule(0, np.random.default_rng(5))

    def test_huge_magnitudes_segment_exactly_like_scalar(self):
        """Regression: retained magnitudes near 2^62 used to run
        through a plain int64 cumsum, whose wrap flips the budget
        comparison (the prefix over 6 x 2^61 goes negative).  The
        batch path must segment and halve exactly where the exact
        scalar offer() path does."""
        budget = 2**62
        mags = np.full(6, 2**61, dtype=np.int64)
        assert np.cumsum(mags)[-1] < 0  # the wrap the fix guards
        scalar = AdaptiveSamplingSchedule(
            budget, np.random.default_rng(9)
        )
        batch = AdaptiveSamplingSchedule(
            budget, np.random.default_rng(9)
        )
        kept_scalar = self._drive_scalar(scalar, mags.tolist())
        kept_batch = self._drive_batch(batch, mags, [len(mags)])
        assert kept_scalar == kept_batch
        assert scalar.weight == batch.weight
        assert scalar.log2_inv_p == batch.log2_inv_p


    #: A first chunk books some weight; the second lands on the rate-1
    #: budget check's boundary.
    _FIRST = np.array([2, 7, 1, 8], dtype=np.int64)
    _CHUNK = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)

    @staticmethod
    def _twins(budget: int, halvings: int = 0):
        pair = [AdaptiveSamplingSchedule(budget, np.random.default_rng(12))
                for _ in range(2)]
        for sched in pair:
            for _ in range(halvings):
                sched.register_halving(0)
        return pair

    @staticmethod
    def _assert_twins(scalar, batch, kept_scalar, kept_batch):
        assert kept_batch == kept_scalar
        assert batch.weight == scalar.weight
        assert batch.log2_inv_p == scalar.log2_inv_p
        assert (
            batch._rng.bit_generator.state == scalar._rng.bit_generator.state
        )

    @pytest.mark.parametrize("over", [0, 1], ids=["on_budget", "one_over"])
    def test_rate_one_budget_boundary_matches_scalar(self, over):
        """``weight + gross == budget``: the row keeps the whole chunk
        (the shortcut yields the chunk itself) with no halving.  One
        unit more overflows at the chunk's last update and halves.
        Both match the scalar offer loop."""
        first, chunk = self._FIRST, self._CHUNK
        budget = int(first.sum() + chunk.sum()) - over
        scalar, batch = self._twins(budget)
        kept_scalar = self._drive_scalar(
            scalar, first.tolist() + chunk.tolist())
        kept_batch = self._drive_batch(batch, first, [len(first)])
        segments = []
        for a, b, seg in batch.accept_batch(chunk, int(chunk.sum())):
            segments.append((a, b, seg))
            kept_batch.extend(seg.tolist())
            while batch.needs_halving():
                batch.register_halving(batch.weight // 2)
        assert [(a, b) for a, b, _ in segments] == [(0, len(chunk))]
        assert (segments[0][2] is chunk) == (over == 0)
        assert batch.log2_inv_p == over
        self._assert_twins(scalar, batch, kept_scalar, kept_batch)

    def test_rate_one_shortcut_skipped_below_rate_one(self):
        """A row already at ``log2_inv_p >= 1`` quantises as before."""
        chunk = self._CHUNK
        scalar, batch = self._twins(10**6, halvings=1)
        kept_scalar = self._drive_scalar(scalar, chunk.tolist())
        (a, b, seg), = batch.accept_batch(chunk, int(chunk.sum()))
        assert (a, b) == (0, len(chunk)) and seg is not chunk
        assert batch.log2_inv_p == 1
        self._assert_twins(scalar, batch, kept_scalar, seg.tolist())


def test_csss_first_chunk_landing_on_the_budget(backend):
    """A CSSS whose sample budget equals the first chunk's gross weight:
    every row keeps that chunk whole at rate 1 and halves in a later
    chunk.  Scalar, batch and planned replays end bit-identical."""
    stream = bounded_deletion_stream(256, 600, alpha=4, seed=41,
                                     strict=False)
    chunk = 128
    items, deltas = stream.as_arrays()
    budget = int(np.abs(deltas[:chunk]).sum())

    def build() -> CSSS:
        return CSSS(256, k=4, eps=0.1, alpha=4, rng=np.random.default_rng(3),
                    depth=4, sample_budget=budget)

    first = build()
    first.update_batch(items[:chunk], deltas[:chunk])
    assert (first._row_weight == budget).all()
    assert not first.log2_inv_p.any()
    scalar = build()
    for u in stream:
        scalar.update(u.item, u.delta)
    batch = replay(stream, build(), chunk_size=chunk, coalesce=False)
    planned = replay(stream, build(), chunk_size=chunk, coalesce=True)
    assert (scalar.log2_inv_p > 0).all()
    assert_same_state(scalar, batch)
    assert_same_state(scalar, planned)


class TestRunningSums:
    """repro.batch.running_sums — the exact prefix-sum helper the
    adaptive schedule's budget comparison rides on."""

    def test_fast_path_matches_cumsum(self):
        from repro.batch import running_sums

        vals = np.arange(1, 11, dtype=np.int64)
        out = running_sums(vals, 5)
        assert out.tolist() == (5 + np.cumsum(vals)).tolist()

    def test_exact_beyond_int64(self):
        from repro.batch import running_sums

        vals = np.array([2**62, 2**62, -(2**62), 2**61],
                        dtype=np.int64)
        expect, acc = [], 2**61
        for v in vals.tolist():
            acc += int(v)
            expect.append(acc)
        got = running_sums(vals, 2**61)
        assert [int(x) for x in got] == expect

    def test_empty(self):
        from repro.batch import running_sums

        out = running_sums(np.zeros(0, dtype=np.int64), 7)
        assert out.size == 0


class TestBinomialFromUniform:
    @given(
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        mag=st.integers(min_value=1, max_value=1000),
        p_exp=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_scalar_matches_array_form(self, u, mag, p_exp):
        p = 2.0**-p_exp
        scalar = binomial_from_uniform(u, mag, p)
        array = int(
            binomial_from_uniforms(
                np.array([u]), np.array([mag], dtype=np.int64), p
            )[0]
        )
        assert scalar == array
        assert 0 <= scalar <= mag


class TestPrecisionSamplingSchedule:
    def test_weights_match_uniform_scalars(self):
        scalars = UniformScalars(256, np.random.default_rng(6), k=4)
        sched = PrecisionSamplingSchedule(scalars)
        items = np.arange(32, dtype=np.int64)
        assert np.array_equal(
            sched.weight_array(items),
            np.array([scalars.inverse_weight(int(i)) for i in items]),
        )
        assert sched.weight(7) == scalars.inverse_weight(7)

    def test_spans_cover_chunk_in_order(self):
        scalars = UniformScalars(256, np.random.default_rng(7), k=4)
        sched = PrecisionSamplingSchedule(scalars)
        items = np.arange(16, dtype=np.int64)
        deltas = np.ones(16, dtype=np.int64)
        spans = list(sched.scaled_spans(items, deltas))
        covered = []
        for kind, a, b, payload in spans:
            covered.extend(range(a, b))
            if kind == "batch":
                assert np.array_equal(
                    payload, deltas[a:b] * sched.weight_array(items[a:b])
                )
        assert covered == list(range(16))

    def test_overflowing_updates_become_scalar_spans(self):
        scalars = UniformScalars(256, np.random.default_rng(8), k=4)
        sched = PrecisionSamplingSchedule(scalars)
        items = np.array([1, 2, 3], dtype=np.int64)
        big = (1 << 62) + 5
        deltas = np.array([1, big, 1], dtype=np.int64)
        spans = list(sched.scaled_spans(items, deltas))
        kinds = [kind for kind, *_ in spans]
        assert kinds == ["batch", "scalar", "batch"]
        _, a, b, exact = spans[1]
        assert (a, b) == (1, 2)
        assert exact == big * scalars.inverse_weight(2)  # exact Python int


class TestIntervalWindows:
    def test_window_rule(self):
        assert exponential_interval_window(1.0, 10) == range(0, 1)
        assert exponential_interval_window(9.99, 10) == range(0, 1)
        assert exponential_interval_window(10.0, 10) == range(0, 2)
        assert exponential_interval_window(100.0, 10) == range(1, 3)

    def test_changes_match_pointwise_evaluation(self):
        t0, m, s = 90, 40, 10
        current = exponential_interval_window(float(t0), s)
        changes = dict(exponential_interval_changes(t0, m, s, current))
        expected = {}
        window = current
        for t in range(m):
            wanted = exponential_interval_window(float(t0 + t + 1), s)
            if wanted != window:
                expected[t] = wanted
                window = wanted
        assert changes == expected


class _FakeRough:
    """Minimal rough-estimate stub driving windowed_segments."""

    def __init__(self, estimates_by_position):
        self._by_pos = estimates_by_position
        self._estimate = estimates_by_position.get(-1, 1.0)

    def fold_candidates(self, hvs):
        return np.arange(len(hvs))

    def would_change(self, hv):
        return hv in self._by_pos

    def observe_hash(self, hv):
        self._estimate = self._by_pos[hv]

    def estimate(self):
        return self._estimate


class TestWindowedSegments:
    def test_segments_split_at_window_moves(self):
        # Positions are their own hash values; the estimate jumps at
        # position 3 (window moves) and at position 7 (window constant).
        rough = _FakeRough({3: 10.0, 7: 11.0})
        hvs = np.arange(10)
        window_fn = lambda: range(int(rough.estimate()) // 10, 2)  # noqa: E731
        segments = list(windowed_segments(rough, hvs, window_fn))
        assert segments == [(0, 3), (3, 10)]

    def test_single_segment_when_window_never_moves(self):
        rough = _FakeRough({})
        hvs = np.arange(5)
        segments = list(windowed_segments(rough, hvs, lambda: range(0, 1)))
        assert segments == [(0, 5)]
