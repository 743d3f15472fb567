"""Tests for repro.sketches.knw_l0 (Figure 6 baseline and its parts)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketches.knw_l0 import (
    ExactSmallL0,
    KNWL0Estimator,
    RoughF0Estimator,
    RoughL0Estimator,
)
from repro.streams.engine import replay
from repro.streams.generators import (
    bounded_deletion_stream,
    sensor_occupancy_stream,
)
from repro.streams.model import Stream

from test_batch_equivalence import _feed_batch, assert_same_state


class TestExactSmallL0:
    def test_exact_within_capacity(self):
        e = ExactSmallL0(1 << 14, c=50, rng=np.random.default_rng(1))
        for i in range(40):
            e.update(i, 1)
        assert e.estimate() == 40

    def test_cancellation_decrements(self):
        e = ExactSmallL0(1024, c=20, rng=np.random.default_rng(2))
        e.update(3, 2)
        e.update(7, 1)
        e.update(3, -2)
        assert e.estimate() == 1

    def test_handles_signed_noise(self):
        e = ExactSmallL0(1024, c=20, rng=np.random.default_rng(3))
        for i in range(10):
            e.update(i, 1)
            e.update(i, 3)
            e.update(i, -4)
        assert e.estimate() == 0

    def test_space_scales_with_capacity(self):
        small = ExactSmallL0(1024, c=8, rng=np.random.default_rng(4))
        big = ExactSmallL0(1024, c=128, rng=np.random.default_rng(4))
        assert big.space_bits() > small.space_bits()


# -- the α-bounded table -------------------------------------------------------

BOUNDED_N = 4096
BOUNDED_SEED = 0xA1F0


def _bounded(alpha=2.5):
    """c = 10 at α = 2.5: a trial retires past 25 touched buckets."""
    return ExactSmallL0(BOUNDED_N, c=10, rng=np.random.default_rng(BOUNDED_SEED),
                        alpha=alpha)


def _spread_items(count):
    """``count`` items whose buckets are pairwise distinct in every trial
    of :func:`_bounded`, so each one touches a new bucket in all three."""
    hashes = _bounded()._hashes
    seen = [set() for _ in hashes]
    out = []
    for item in range(BOUNDED_N):
        buckets = [h(item) for h in hashes]
        if all(b not in s for b, s in zip(buckets, seen)):
            for b, s in zip(buckets, seen):
                s.add(b)
            out.append(item)
            if len(out) == count:
                return out
    raise AssertionError("universe too small for the spread")


def _churn_stream(items, tail=12):
    """Each item inserted with magnitude 3; every third cancelled at once
    (touched, residue back to 0); earlier items revisited as the stream
    goes; then ``tail`` more updates on old buckets only."""
    pairs = []
    for k, item in enumerate(items):
        pairs.append((item, 3))
        if k % 3 == 0:
            pairs.append((item, -3))
        if k >= 2:
            pairs.append((items[k - 2], 1))
    pairs += [(items[k % 10], -1) for k in range(tail)]
    items_arr = np.array([i for i, _ in pairs], dtype=np.int64)
    deltas_arr = np.array([d for _, d in pairs], dtype=np.int64)
    return Stream.from_arrays(BOUNDED_N, items_arr, deltas_arr)


class TestAlphaBoundedExactSmallL0:
    """Given α, a trial keeps its touched buckets and retires past
    ``floor(α c)`` of them; every execution path agrees on when."""

    @pytest.mark.parametrize("touched", [25, 26], ids=["at_bound", "past_bound"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 1024, None])
    def test_scalar_batch_plan_bit_identical(self, touched, chunk_size, backend):
        stream = _churn_stream(_spread_items(touched))
        scalar = _bounded()
        for u in stream:
            scalar.update(u.item, u.delta)
        batch = _feed_batch(_bounded(), stream, chunk_size)
        planned = replay(stream, _bounded(), chunk_size=chunk_size)
        assert_same_state(scalar, batch)
        assert_same_state(scalar, planned)
        if touched == 25:
            # At the bound: nothing retires, zero residues stay touched.
            assert all(len(t) == 25 for t in scalar._tables)
            assert all(0 in t.values() for t in scalar._tables)
            assert scalar.estimate() == stream.frequency_vector().l0()
        else:
            assert scalar._tables == [None] * 3
            assert scalar.estimate() == 11

    def test_retirement_falls_mid_chunk(self):
        """The 26th item's first update retires every trial, at a stream
        position inside a 7-chunk and inside the 1024-chunk, with more
        updates behind it."""
        items = _spread_items(26)
        stream = _churn_stream(items)
        stream_items, _ = stream.as_arrays()
        at = int(np.flatnonzero(stream_items == items[-1])[0])
        assert at % 7 and at < len(stream_items) - 1
        sketch = _bounded()
        for pos, u in enumerate(stream):
            sketch.update(u.item, u.delta)
            retired = sketch._tables == [None] * 3
            assert retired == (pos >= at)

    @pytest.mark.parametrize("left, right, retired", [
        ((0, 10), (5, 15), False),   # live + live, union 15
        ((0, 20), (10, 30), True),   # live + live, union 30 > 25
        ((0, 30), (0, 5), True),     # retired + live
        ((0, 5), (0, 30), True),     # live + retired
        ((0, 30), (10, 40), True),   # retired + retired
    ])
    def test_merge_equals_single_pass(self, left, right, retired):
        items = _spread_items(40)
        a_stream = _churn_stream(items[slice(*left)], tail=3)
        b_stream = _churn_stream(items[slice(*right)], tail=3)
        a = replay(a_stream, _bounded(), chunk_size=16)
        b = replay(b_stream, _bounded(), chunk_size=16)
        both = Stream.from_arrays(BOUNDED_N, *[
            np.concatenate(cols)
            for cols in zip(a_stream.as_arrays(), b_stream.as_arrays())
        ])
        single = replay(both, _bounded(), chunk_size=16)
        assert_same_state(single, a.merge(b))
        assert (single._tables == [None] * 3) == retired

    def test_siblings_with_different_alpha_refuse_to_merge(self):
        with pytest.raises(ValueError):
            _bounded(alpha=2.5).merge(_bounded(alpha=3.0))
        with pytest.raises(ValueError):
            _bounded(alpha=2.5).merge(_bounded(alpha=None))
        with pytest.raises(ValueError):
            _bounded(alpha=None).merge(_bounded(alpha=2.5))

    def test_space_charges_the_bound(self):
        unbounded, bounded = _bounded(alpha=None), _bounded(alpha=2.5)
        per_entry = (
            int(unbounded._hashes[0].range_size - 1).bit_length()
            + max(p.bit_length() for p in unbounded._primes)
        )
        assert bounded.space_bits() - unbounded.space_bits() == (
            3 * (25 - 10) * per_entry)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            _bounded(alpha=0.5)


class TestRoughL0Estimator:
    @pytest.mark.parametrize("l0_target", [30, 200, 1500])
    def test_constant_factor_band(self, l0_target):
        estimates = []
        for seed in range(9):
            r = RoughL0Estimator(1 << 13, np.random.default_rng(seed))
            for i in range(l0_target):
                r.update(i, 1)
            estimates.append(r.estimate())
        med = float(np.median(estimates))
        assert l0_target / 4 <= med <= 4 * l0_target

    def test_respects_deletions(self):
        r = RoughL0Estimator(1 << 12, np.random.default_rng(10))
        for i in range(600):
            r.update(i, 1)
        for i in range(550):
            r.update(i, -1)
        assert r.estimate() <= 450  # ~50 live


class TestRoughF0Estimator:
    def test_monotone_nondecreasing(self):
        r = RoughF0Estimator(1 << 16, np.random.default_rng(11))
        last = 0.0
        rng = np.random.default_rng(99)
        for i in rng.integers(0, 1 << 16, size=3000):
            r.update(int(i), 1)
            est = r.estimate()
            assert est >= last
            last = est

    def test_band_contains_f0(self):
        f0 = 2000
        inside = 0
        for seed in range(9):
            r = RoughF0Estimator(1 << 16, np.random.default_rng(seed))
            for i in range(f0):
                r.update(i, 1)
            est = r.estimate()
            inside += f0 <= est <= 8 * f0
        assert inside >= 7

    def test_deletions_do_not_decrease_f0(self):
        r = RoughF0Estimator(1 << 12, np.random.default_rng(12))
        for i in range(500):
            r.update(i, 1)
        before = r.estimate()
        for i in range(500):
            r.update(i, -1)
        assert r.estimate() >= before

    def test_exact_while_below_k(self):
        r = RoughF0Estimator(1 << 12, np.random.default_rng(13), k=64)
        for i in range(20):
            r.update(i, 1)
        # Below k distinct, the raw estimate is the exact count (x bias).
        assert 20 <= r.estimate() <= 2 * 20 + 1


class TestKNWL0Estimator:
    def test_relative_error_on_alpha_stream(self, small_alpha_stream):
        fv = small_alpha_stream.frequency_vector()
        estimates = []
        for seed in range(7):
            k = KNWL0Estimator(1024, eps=0.1, rng=np.random.default_rng(seed))
            k.consume(small_alpha_stream)
            estimates.append(k.estimate())
        med = float(np.median(estimates))
        assert med == pytest.approx(fv.l0(), rel=0.25)

    def test_small_l0_exact_path(self):
        k = KNWL0Estimator(1 << 14, eps=0.2, rng=np.random.default_rng(20))
        for i in range(37):
            k.update(i * 11, 1)
        assert k.estimate() == 37

    def test_zero_stream(self):
        k = KNWL0Estimator(1024, eps=0.2, rng=np.random.default_rng(21))
        assert k.estimate() == 0

    def test_cancellation_not_counted(self):
        k = KNWL0Estimator(1024, eps=0.2, rng=np.random.default_rng(22))
        for i in range(30):
            k.update(i, 1)
        for i in range(25):
            k.update(i, -1)
        assert k.estimate() == pytest.approx(5, abs=3)

    def test_sensor_stream(self, sensor_stream):
        fv = sensor_stream.frequency_vector()
        estimates = []
        for seed in range(5):
            k = KNWL0Estimator(4096, eps=0.1, rng=np.random.default_rng(seed))
            k.consume(sensor_stream)
            estimates.append(k.estimate())
        assert float(np.median(estimates)) == pytest.approx(fv.l0(), rel=0.25)

    def test_larger_support(self):
        s = bounded_deletion_stream(1 << 14, 30000, alpha=2, seed=30, strict=False)
        fv = s.frequency_vector()
        estimates = []
        for seed in range(5):
            k = KNWL0Estimator(1 << 14, eps=0.1, rng=np.random.default_rng(seed))
            k.consume(s)
            estimates.append(k.estimate())
        assert float(np.median(estimates)) == pytest.approx(fv.l0(), rel=0.25)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            KNWL0Estimator(64, eps=0, rng=np.random.default_rng(0))

    def test_space_charges_rows(self):
        shallow = KNWL0Estimator(
            1 << 10, eps=0.25, rng=np.random.default_rng(31), rows=3
        )
        deep = KNWL0Estimator(
            1 << 10, eps=0.25, rng=np.random.default_rng(31), rows=11
        )
        assert deep.space_bits() > shallow.space_bits()
