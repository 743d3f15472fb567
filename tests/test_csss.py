"""Tests for repro.core.csss (CSSampSim, Theorem 1; Lemma 5 estimator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.csss import CSSS, CSSSWithTailEstimate, default_sample_budget
from repro.core.heavy_hitters import AlphaHeavyHitters
from repro.sketches.countsketch import CountSketch
from repro.streams.generators import bounded_deletion_stream
from tests.test_countsketch import counting_hashes, edge_thresholds, full_scan


@pytest.fixture
def csss_and_truth(small_alpha_stream):
    rng = np.random.default_rng(300)
    c = CSSS(1024, k=16, eps=0.1, alpha=4, rng=rng)
    c.consume(small_alpha_stream)
    return c, small_alpha_stream.frequency_vector()


class TestDefaultBudget:
    def test_alpha_squared_over_eps_squared(self):
        assert default_sample_budget(2, 0.1) == pytest.approx(
            32 * 4 / 0.01, rel=0.01
        )

    def test_floor(self):
        assert default_sample_budget(1, 0.9) >= 64


class TestTheorem1Guarantee:
    def test_point_query_error_bound(self, csss_and_truth):
        """|y*_i - f_i| <= 2(Err^k_2/sqrt(k) + eps ||f||_1) for all i."""
        c, fv = csss_and_truth
        bound = 2 * (fv.err_k_p(16) / 4.0 + 0.1 * fv.l1())
        estimates = c.query_all(np.arange(1024))
        worst = float(np.abs(estimates - fv.f).max())
        assert worst <= bound

    def test_heavy_items_tracked_tightly(self, csss_and_truth):
        c, fv = csss_and_truth
        for item in fv.top_k(5):
            rel = abs(c.query(item) - fv.f[item]) / max(1, abs(fv.f[item]))
            assert rel < 0.5

    def test_query_all_matches_query(self, csss_and_truth):
        c, __ = csss_and_truth
        items = list(range(0, 1024, 131))
        vec = c.query_all(items)
        for i, v in zip(items, vec):
            assert c.query(i) == pytest.approx(float(v))

    def test_error_grows_gracefully_when_budget_small(self, small_alpha_stream):
        """With a tiny sample budget the sketch still answers, with larger
        (but bounded) error — the eps term dominates."""
        fv = small_alpha_stream.frequency_vector()
        c = CSSS(
            1024, k=16, eps=0.1, alpha=4,
            rng=np.random.default_rng(301), sample_budget=256,
        )
        c.consume(small_alpha_stream)
        assert c.log2_inv_p.max() >= 1  # halving happened
        top = fv.top_k(1)[0]
        assert abs(c.query(top) - fv.f[top]) <= 0.5 * fv.l1()


class TestMechanics:
    def test_rows_sample_independently(self, small_alpha_stream):
        c = CSSS(
            1024, k=8, eps=0.2, alpha=4,
            rng=np.random.default_rng(302), sample_budget=512,
        )
        c.consume(small_alpha_stream)
        # After halving, per-row retained weights should differ across rows.
        assert len(set(int(w) for w in c._row_weight)) > 1

    def test_counters_bounded_by_budget_regime(self, small_alpha_stream):
        budget = 512
        c = CSSS(
            1024, k=8, eps=0.2, alpha=4,
            rng=np.random.default_rng(303), sample_budget=budget,
        )
        c.consume(small_alpha_stream)
        assert int(max(c.pos.max(), c.neg.max())) <= budget

    def test_space_smaller_than_countsketch_at_scale(self):
        """The headline: CSSS counter width ~ log(budget), CountSketch
        counter width ~ log(stream mass)."""
        n = 1 << 12
        s = bounded_deletion_stream(n, 60_000, alpha=2, seed=60, strict=False)
        rng = np.random.default_rng(304)
        c = CSSS(n, k=8, eps=0.25, alpha=2, rng=rng, depth=6, sample_budget=128)
        cs = CountSketch(n, width=6 * 8, depth=6, rng=rng)
        c.consume(s)
        cs.consume(s)
        assert c.space_bits() < cs.space_bits()

    def test_negative_weights_handled(self):
        c = CSSS(64, k=4, eps=0.2, alpha=4, rng=np.random.default_rng(305))
        c.update(3, -9)
        assert c.query(3) == pytest.approx(-9.0)

    def test_validation(self):
        rng = np.random.default_rng(306)
        with pytest.raises(ValueError):
            CSSS(64, k=0, eps=0.2, alpha=4, rng=rng)
        with pytest.raises(ValueError):
            CSSS(64, k=4, eps=0.0, alpha=4, rng=rng)
        with pytest.raises(ValueError):
            CSSS(64, k=4, eps=0.2, alpha=0.5, rng=rng)

    def test_best_k_sparse_contains_top_items(self, csss_and_truth):
        c, fv = csss_and_truth
        approx = c.best_k_sparse()
        assert set(fv.top_k(4)) <= set(approx)
        assert len(approx) <= c.k
        assert c.best_k_sparse(c.query_all(np.arange(c.n))) == approx


def _cell_magnitudes(c: CSSS) -> np.ndarray:
    return np.abs(c.pos - c.neg) * 2.0 ** c.log2_inv_p[:, None]


class TestPrunedHeavyScan:
    @pytest.mark.parametrize("depth", [1, 4, 5])
    @pytest.mark.parametrize("budget", [None, 256], ids=["rate1", "halved"])
    def test_equals_full_scan(self, backend, small_alpha_stream, depth, budget):
        """heavy_candidates reports exactly the full scan's set, at
        thresholds on exact medians and cell magnitudes, one ulp below
        each, T <= 0 (everything), NaN and inf (nothing)."""
        n = small_alpha_stream.n
        for seed in range(4):
            rng = np.random.default_rng(400 + seed)
            c = CSSS(n, k=4, eps=0.1, alpha=4, rng=rng, depth=depth,
                     sample_budget=budget)
            c.consume(small_alpha_stream)
            if budget is not None:
                assert c.log2_inv_p.min() >= 1  # every row halved
            medians = c.query_all(np.arange(n))
            for t in edge_thresholds(medians, _cell_magnitudes(c), rng):
                assert c.heavy_candidates(t) == full_scan(c, t), (seed, t)
            assert c.heavy_candidates(-1.0) == set(range(n))
            assert c.heavy_candidates(float("nan")) == set()
            assert c.heavy_candidates(float("inf")) == set()

    def test_no_marked_cell_hashes_nothing(self, backend, csss_and_truth,
                                           monkeypatch):
        c, __ = csss_and_truth
        above = 2.0 * float(_cell_magnitudes(c).max()) + 1.0
        calls = counting_hashes(monkeypatch)
        assert c.heavy_candidates(above) == set()
        assert calls == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_zipf_work_is_bounded(self, backend, seed, monkeypatch):
        """On a zipf-shaped state at Theorem 4's threshold, an item is
        bucket-hashed past the first ``d - ceil(d/2) + 1`` rows only if
        some row marks its cell, and sign-hashed only if ``ceil(d/2)``
        rows do (the survivors, which ``query_all`` then hashes through
        all ``2d`` functions).  The full scan hashes ``2dn`` items."""
        n = 4096
        stream = bounded_deletion_stream(n, 20_000, alpha=4, skew=1.5,
                                         seed=seed)
        hh = AlphaHeavyHitters(n, eps=1 / 16, alpha=4,
                               rng=np.random.default_rng(seed)).consume(stream)
        c = hh.csss
        d, need = c.depth, (c.depth + 1) // 2
        threshold = 0.75 * hh.eps * hh.l1_estimate()
        mags = _cell_magnitudes(c)
        hits = np.zeros(n, dtype=np.int64)
        for r, h in enumerate(c._bucket_hashes):
            hits += mags[r][h.hash_array(np.arange(n))] >= threshold
        touched = int(np.count_nonzero(hits))
        survivors = np.flatnonzero(hits >= need)

        calls = counting_hashes(monkeypatch)
        got = hh.heavy_hitters()
        monkeypatch.undo()
        hashed = sum(items.size for __, items in calls)
        bound = (d - need + 1) * n + (need - 1) * touched + 2 * d * survivors.size
        assert hashed <= bound < d * n
        signs = {id(g._h) for g in c._sign_hashes}
        for h, items in calls:
            if id(h) in signs:
                assert set(items.tolist()) <= set(survivors.tolist())
        assert got == full_scan(c, threshold)
        assert got <= set(survivors.tolist())


class TestTailEstimate:
    def test_lemma5_band(self, small_alpha_stream):
        """Err^k_2(f) <= v <= O(sqrt(k) eps ||f||_1 + Err^k_2(f))."""
        fv = small_alpha_stream.frequency_vector()
        est = CSSSWithTailEstimate(
            1024, k=16, eps=0.1, alpha=4, rng=np.random.default_rng(307)
        )
        est.consume(small_alpha_stream)
        v = est.tail_error_estimate(float(fv.l1()))
        err = fv.err_k_p(16)
        assert v >= 0.5 * err  # lower side (constant-factor slack)
        assert v <= 60 * (np.sqrt(16) * 0.1 * fv.l1() + err)

    def test_query_passthrough(self, small_alpha_stream):
        est = CSSSWithTailEstimate(
            1024, k=8, eps=0.2, alpha=4, rng=np.random.default_rng(308)
        )
        est.consume(small_alpha_stream)
        fv = small_alpha_stream.frequency_vector()
        top = fv.top_k(1)[0]
        assert est.query(top) == pytest.approx(fv.f[top], rel=0.5)

    def test_space_is_twice_csss(self, small_alpha_stream):
        est = CSSSWithTailEstimate(
            1024, k=8, eps=0.2, alpha=4, rng=np.random.default_rng(309)
        )
        est.consume(small_alpha_stream)
        assert est.space_bits() == est.main.space_bits() + est.shadow.space_bits()
