"""Tests for repro.core.sampling — the Lemma 1 / Lemma 13 machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import (
    SampledFrequencies,
    binomial_thin,
    lemma1_sampling_probability,
)
from repro.streams.generators import bounded_deletion_stream


class TestBinomialThin:
    def test_zero_passthrough(self):
        assert binomial_thin(0, 0.5, np.random.default_rng(1)) == 0

    def test_rate_one_keeps_everything(self):
        rng = np.random.default_rng(2)
        assert binomial_thin(7, 1.0, rng) == 7
        assert binomial_thin(-7, 1.0, rng) == -7

    def test_rate_zero_drops_everything(self):
        rng = np.random.default_rng(3)
        assert binomial_thin(100, 0.0, rng) == 0

    def test_sign_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert binomial_thin(-10, 0.5, rng) <= 0

    def test_unbiased_after_rescale(self):
        rng = np.random.default_rng(5)
        total = sum(binomial_thin(10, 0.3, rng) for _ in range(3000))
        assert total / 0.3 == pytest.approx(30000, rel=0.05)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            binomial_thin(5, 1.5, np.random.default_rng(6))


class TestLemma1Probability:
    def test_caps_at_one(self):
        assert lemma1_sampling_probability(4, 0.1, m=10) == 1.0

    def test_decreases_in_m(self):
        p1 = lemma1_sampling_probability(4, 0.1, m=10**9)
        p2 = lemma1_sampling_probability(4, 0.1, m=10**10)
        assert p2 < p1 < 1.0

    def test_increases_in_alpha(self):
        p_small = lemma1_sampling_probability(2, 0.1, m=10**10)
        p_big = lemma1_sampling_probability(8, 0.1, m=10**10)
        assert p_big > p_small

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma1_sampling_probability(0.5, 0.1, m=10)


class TestSampledFrequencies:
    def test_exact_when_budget_exceeds_stream(self):
        sf = SampledFrequencies(budget=10_000, rng=np.random.default_rng(7))
        for item, delta in [(1, 5), (2, -3), (1, 2)]:
            sf.update(item, delta)
        assert sf.estimate(1) == 7
        assert sf.estimate(2) == -3
        assert sf.rate == 1.0

    def test_halving_triggers_and_rescale_tracks_truth(self):
        """Lemma 1 empirically: |f*_i - f_i| small relative to ||f||_1."""
        s = bounded_deletion_stream(256, 8000, alpha=2, seed=50)
        fv = s.frequency_vector()
        sf = SampledFrequencies(budget=2000, rng=np.random.default_rng(8))
        sf.consume(s)
        assert sf.log2_inv_p >= 1  # sampling actually engaged
        worst = max(
            abs(sf.estimate(i) - fv.f[i]) for i in fv.top_k(10)
        )
        assert worst <= 0.2 * fv.l1()

    def test_sum_estimate_matches_lemma1_final_claim(self):
        s = bounded_deletion_stream(256, 8000, alpha=2, seed=51)
        fv = s.frequency_vector()
        sums = []
        for seed in range(9):
            sf = SampledFrequencies(budget=2000, rng=np.random.default_rng(seed))
            sf.consume(s)
            sums.append(sf.sum_estimate())
        med = float(np.median(sums))
        assert med == pytest.approx(float(fv.f.sum()), rel=0.2)

    def test_error_shrinks_with_budget(self):
        """The ablation behind every Section 2-5 result: more budget,
        less error (measured on the total mass estimator)."""
        s = bounded_deletion_stream(256, 20000, alpha=2, seed=52)
        fv = s.frequency_vector()
        true_sum = float(fv.f.sum())

        def median_err(budget: int) -> float:
            errs = []
            for seed in range(7):
                sf = SampledFrequencies(budget=budget,
                                        rng=np.random.default_rng(seed))
                sf.consume(s)
                errs.append(abs(sf.sum_estimate() - true_sum))
            return float(np.median(errs))

        assert median_err(4000) <= median_err(250) + 0.02 * fv.l1()

    def test_sampled_items_subset_of_touched(self):
        sf = SampledFrequencies(budget=100, rng=np.random.default_rng(9))
        for i in range(50):
            sf.update(i, 2)
        assert sf.sampled_items() <= set(range(50))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SampledFrequencies(budget=0, rng=np.random.default_rng(10))


@given(
    deltas=st.lists(
        st.integers(min_value=-6, max_value=6).filter(lambda d: d != 0),
        min_size=1,
        max_size=100,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_property_full_rate_sampling_is_exact(deltas, seed):
    """At rate 1 (budget >= gross weight) the sampled table is exact."""
    gross = sum(abs(d) for d in deltas)
    sf = SampledFrequencies(budget=gross + 1, rng=np.random.default_rng(seed))
    for d in deltas:
        sf.update(0, d)
    assert sf.estimate(0) == sum(deltas)
