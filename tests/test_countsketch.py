"""Tests for repro.sketches.countsketch (Lemma 2 baseline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.kwise import KWiseHash
from repro.sketches.countsketch import CountSketch
from repro.streams.generators import bounded_deletion_stream


@pytest.fixture
def sketch_and_truth(small_alpha_stream):
    rng = np.random.default_rng(100)
    cs = CountSketch(small_alpha_stream.n, width=64, depth=7, rng=rng)
    cs.consume(small_alpha_stream)
    return cs, small_alpha_stream.frequency_vector()


def full_scan(sketch, threshold) -> set[int]:
    """Reference heavy set: point-query the whole universe, keep every
    item whose estimate reaches ``threshold`` in magnitude."""
    estimates = sketch.query_all(np.arange(sketch.n))
    return {int(i) for i in np.flatnonzero(np.abs(estimates) >= threshold)}


def counting_hashes(monkeypatch) -> list:
    """Record ``(hash, items)`` for every ``KWiseHash.hash_array`` call
    (sign hashes reach it through their inner ``KWiseHash``)."""
    calls: list = []
    original = KWiseHash.hash_array

    def counting(h, xs):
        calls.append((h, np.array(xs, copy=True)))
        return original(h, xs)

    monkeypatch.setattr(KWiseHash, "hash_array", counting)
    return calls


def edge_thresholds(medians, cells, rng, picks=6) -> list[float]:
    """Thresholds on the pruned scan's edges: exact median magnitudes
    and cell magnitudes (the largest few plus a random few), each also
    one ulp below; then ``T <= 0``, NaN and inf."""
    out = [0.0, -0.0, -1.0, float("nan"), float("inf")]
    for values in (medians, cells):
        mags = np.unique(np.abs(np.asarray(values, dtype=np.float64)))
        mags = mags[mags > 0]
        chosen = set(mags[-(picks // 2):])
        chosen |= set(rng.choice(mags, min(picks, mags.size), replace=False))
        for v in sorted(chosen):
            out += [float(v), float(np.nextafter(v, 0.0))]
    return out


class TestPointQueries:
    def test_heavy_items_accurate(self, sketch_and_truth):
        cs, fv = sketch_and_truth
        bound = fv.err_k_p(10) / np.sqrt(10)
        for item in fv.top_k(5):
            assert abs(cs.query(item) - fv.f[item]) <= max(3.0, 2 * bound)

    def test_query_all_matches_query(self, sketch_and_truth):
        cs, __ = sketch_and_truth
        items = list(range(0, 1024, 111))
        vec = cs.query_all(items)
        assert [cs.query(i) for i in items] == list(vec)

    def test_lemma2_error_bound_most_items(self, sketch_and_truth):
        """|y*_j - f_j| <= Err^k_2 / sqrt(k) for the vast majority of j."""
        cs, fv = sketch_and_truth
        k = 10  # width = 64 ~ 6k
        bound = fv.err_k_p(k) / np.sqrt(k)
        estimates = cs.query_all(np.arange(fv.n))
        errors = np.abs(estimates - fv.f)
        assert (errors <= bound + 1).mean() > 0.95

    def test_empty_sketch_queries_zero(self):
        cs = CountSketch(64, 8, 3, np.random.default_rng(1))
        assert cs.query(5) == 0


class TestLinearity:
    def test_negation_cancels(self):
        rng = np.random.default_rng(2)
        cs = CountSketch(256, 16, 5, rng)
        cs.update(3, 7)
        cs.update(3, -7)
        assert cs.query(3) == 0
        assert not cs.table.any()

    def test_merge_shared_hashes(self):
        rng = np.random.default_rng(3)
        base = CountSketch(256, 16, 5, rng)
        a = base.clone_empty()
        b = base.clone_empty()
        a.update(1, 4)
        b.update(1, 6)
        b.update(2, -3)
        merged = a.merged_with(b)
        assert merged.query(1) == 10
        assert merged.query(2) == -3

    def test_merge_rejects_foreign_sketch(self):
        a = CountSketch(256, 16, 5, np.random.default_rng(4))
        b = CountSketch(256, 16, 5, np.random.default_rng(5))
        with pytest.raises(ValueError):
            a.merged_with(b)


class TestNormEstimate:
    def test_l2_estimate_close(self, sketch_and_truth):
        cs, fv = sketch_and_truth
        assert cs.l2_estimate() == pytest.approx(fv.l2(), rel=0.5)

    def test_row_l2_nonnegative(self, sketch_and_truth):
        cs, __ = sketch_and_truth
        assert cs.row_l2_estimate(0) >= 0


class TestHeavyHitters:
    def test_recall_at_threshold(self, sketch_and_truth):
        cs, fv = sketch_and_truth
        eps = 1 / 16
        got = cs.heavy_hitters(0.75 * eps * fv.l1())
        assert fv.heavy_hitters(eps) <= got

    @pytest.mark.parametrize("depth", [1, 4, 7])
    @pytest.mark.parametrize("huge", [False, True], ids=["small", "above2^53"])
    def test_pruned_scan_equals_full_scan(self, backend, small_alpha_stream,
                                          depth, huge):
        """The pruned scan reports exactly the full scan's set, at
        thresholds on exact medians and cell magnitudes, one ulp below
        each, T <= 0 (everything), NaN and inf (nothing); with cells
        above 2^53, where float64(|cell|) rounds."""
        n = small_alpha_stream.n
        for seed in range(4):
            rng = np.random.default_rng(1000 + seed)
            cs = CountSketch(n, width=24, depth=depth, rng=rng)
            cs.consume(small_alpha_stream)
            if huge:
                big = rng.integers(1 << 54, 1 << 58, size=6)
                cs.update_batch(rng.integers(0, n, size=6),
                                big * rng.choice([-1, 1], size=6))
                assert np.abs(cs.table).max() > 1 << 53
            medians = cs.query_all(np.arange(n))
            for t in edge_thresholds(medians, cs.table, rng):
                assert cs.heavy_hitters(t) == full_scan(cs, t), (seed, t)
            assert cs.heavy_hitters(0.0) == set(range(n))
            assert cs.heavy_hitters(float("nan")) == set()
            assert cs.heavy_hitters(float("inf")) == set()

    def test_too_few_marked_rows_hash_nothing(self, monkeypatch):
        """With fewer than ceil(d/2) rows holding a cell at T, no item
        can reach T: the scan returns without hashing anything."""
        cs = CountSketch(256, 16, 7, np.random.default_rng(9))
        cs.table[:3, 5] = 1000  # 3 rows < ceil(7/2)
        calls = counting_hashes(monkeypatch)
        assert cs.heavy_hitters(500.0) == set()
        assert calls == []
        cs.table[3, 5] = 1000  # now 4 rows: the scan runs
        got = cs.heavy_hitters(500.0)
        assert calls
        assert got == full_scan(cs, 500.0)


class TestSpaceAccounting:
    def test_space_grows_with_dimensions(self):
        rng = np.random.default_rng(6)
        small = CountSketch(256, 8, 3, rng)
        big = CountSketch(256, 64, 7, rng)
        s = bounded_deletion_stream(256, 500, alpha=2, seed=9)
        small.consume(s)
        big.consume(s)
        assert big.space_bits() > small.space_bits()

    def test_counter_width_tracks_stream_scale(self):
        rng = np.random.default_rng(7)
        light = CountSketch(64, 8, 3, rng)
        heavy = CountSketch(64, 8, 3, rng)
        light.update(1, 1)
        heavy.update(1, 1 << 20)
        assert heavy.space_bits() > light.space_bits()

    def test_validation(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            CountSketch(64, 0, 3, rng)
        with pytest.raises(ValueError):
            CountSketch(64, 8, 0, rng)
