"""Tests for repro.sketches.sparse_recovery (Lemma 22)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import StreamSession
from repro.sketches.sparse_recovery import DenseError, SparseRecovery
from repro.streams.generators import bounded_deletion_stream


class TestExactRecovery:
    def test_single_item(self):
        sr = SparseRecovery(1024, s=4, rng=np.random.default_rng(1))
        sr.update(17, 5)
        assert sr.recover() == {17: 5}

    def test_multiple_items_with_signs(self):
        sr = SparseRecovery(1024, s=8, rng=np.random.default_rng(2))
        truth = {3: 4, 99: -2, 500: 7, 1023: 1}
        for item, w in truth.items():
            sr.update(item, w)
        assert sr.recover() == truth

    def test_cancellation_leaves_empty(self):
        sr = SparseRecovery(1024, s=4, rng=np.random.default_rng(3))
        sr.update(5, 3)
        sr.update(5, -3)
        assert sr.recover() == {}
        assert sr.is_zero()

    def test_incremental_updates_accumulate(self):
        sr = SparseRecovery(256, s=4, rng=np.random.default_rng(4))
        sr.update(9, 2)
        sr.update(9, 5)
        assert sr.recover() == {9: 7}

    def test_recovery_is_nondestructive(self):
        sr = SparseRecovery(256, s=4, rng=np.random.default_rng(5))
        sr.update(9, 2)
        assert sr.recover() == {9: 2}
        assert sr.recover() == {9: 2}

    def test_full_sparsity_budget(self):
        rng = np.random.default_rng(6)
        sr = SparseRecovery(1 << 14, s=32, rng=rng)
        items = rng.choice(1 << 14, size=32, replace=False)
        truth = {int(i): int(w) for i, w in zip(items, rng.integers(1, 50, 32))}
        for item, w in truth.items():
            sr.update(item, w)
        assert sr.recover() == truth


class TestDenseDetection:
    def test_way_too_dense_raises(self):
        rng = np.random.default_rng(7)
        sr = SparseRecovery(1 << 14, s=4, rng=rng)
        for i in rng.choice(1 << 14, size=400, replace=False):
            sr.update(int(i), 1)
        with pytest.raises(DenseError):
            sr.recover()

    def test_is_zero_false_when_loaded(self):
        sr = SparseRecovery(64, s=4, rng=np.random.default_rng(8))
        sr.update(1, 1)
        assert not sr.is_zero()


class TestSpaceAndValidation:
    def test_space_scales_with_s(self):
        rng = np.random.default_rng(9)
        small = SparseRecovery(1024, s=4, rng=rng)
        big = SparseRecovery(1024, s=64, rng=rng)
        assert big.space_bits() > small.space_bits()

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            SparseRecovery(64, s=0, rng=np.random.default_rng(10))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    entries=st.dictionaries(
        st.integers(min_value=0, max_value=4095),
        st.integers(min_value=-20, max_value=20).filter(lambda w: w != 0),
        max_size=12,
    ),
)
@settings(max_examples=40, deadline=None)
def test_property_sparse_vectors_recover_exactly(seed, entries):
    """Any <= s-sparse signed vector is recovered exactly (w.h.p.; the
    seeds hypothesis explores make failures effectively impossible at
    s = 16, rows >= 6)."""
    sr = SparseRecovery(4096, s=16, rng=np.random.default_rng(seed))
    for item, w in entries.items():
        sr.update(item, w)
    assert sr.recover() == entries


@pytest.mark.parametrize("spec", ["support_sampler",
                                  "turnstile_support_sampler"])
def test_phantom_peels_cannot_cycle(spec):
    """Regression: on this strict stream a level's peeling decoded a
    phantom item from a bucket that only looked pure, a later row
    decoded its negation, and the two peels alternated forever, so the
    query never returned.  The pass budget ends the cycle; that level
    answers DENSE and the sampler still returns k support items."""
    n = 2**16
    stream = bounded_deletion_stream(n, 20000, 4, seed=1, strict=True)
    kw = {"alpha": 4} if spec == "support_sampler" else {}
    session = StreamSession(n, seed=3).track("s", spec, eps=0.25, **kw)
    session.push(*stream.as_arrays())
    sample = session.query("s")
    assert len(sample) >= 4  # k = ceil(1/eps)
    assert set(sample) <= stream.frequency_vector().support()
