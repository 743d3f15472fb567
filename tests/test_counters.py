"""Tests for repro.counters (Morris counter, exact counters)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.counters.exact import ExactL1Counter, SignedCounter
from repro.counters.morris import MorrisCounter


class TestMorrisCounter:
    def test_estimate_unbiased_at_scale(self):
        """E[2^v - 1] = t; the median over trials should be within 2x."""
        t = 20000
        estimates = []
        for seed in range(31):
            mc = MorrisCounter(np.random.default_rng(seed))
            mc.increment(t)
            estimates.append(mc.estimate)
        med = float(np.median(estimates))
        assert t / 3 < med < 3 * t

    def test_lemma11_band_mostly_holds(self):
        """The Lemma 11 two-sided band (delta = 1/4) holds for most runs."""
        t = 5000
        delta = 0.25
        log_m = np.log2(t)
        lo = delta / (12 * log_m) * t
        hi = t / delta
        inside = 0
        trials = 40
        for seed in range(trials):
            mc = MorrisCounter(np.random.default_rng(seed))
            mc.increment(t)
            inside += lo <= mc.estimate <= hi
        assert inside / trials >= 1 - delta

    def test_monotone_nondecreasing(self):
        mc = MorrisCounter(np.random.default_rng(1))
        last = 0.0
        for _ in range(200):
            mc.increment()
            assert mc.estimate >= last
            last = mc.estimate

    def test_space_is_loglog(self):
        mc = MorrisCounter(np.random.default_rng(2))
        mc.increment(100_000)
        # v ~ log2(100k) ~ 17 -> ~5 bits.
        assert mc.space_bits() <= 8

    def test_batched_increment_matches_scale(self):
        mc = MorrisCounter(np.random.default_rng(3))
        mc.increment(10_000)
        assert mc.estimate > 100  # far from zero; batching consumed events

    def test_base_validation_and_fine_base(self):
        with pytest.raises(ValueError):
            MorrisCounter(np.random.default_rng(4), a=1.0)
        fine = MorrisCounter(np.random.default_rng(5), a=1.1)
        fine.increment(5000)
        assert 1000 < fine.estimate < 25000

    def test_negative_increment_rejected(self):
        mc = MorrisCounter(np.random.default_rng(6))
        with pytest.raises(ValueError):
            mc.increment(-1)


class TestSignedCounter:
    def test_add_and_space(self):
        c = SignedCounter()
        c.add(100)
        c.add(-300)
        assert c.value == -200
        # Peak magnitude 200 -> 8 magnitude bits + sign.
        assert c.space_bits() == 9

    def test_space_tracks_peak_not_current(self):
        c = SignedCounter()
        c.add(1 << 20)
        c.add(-(1 << 20))
        assert c.value == 0
        assert c.space_bits() >= 21


class TestExactL1Counter:
    def test_strict_turnstile_l1(self):
        c = ExactL1Counter()
        for item, delta in [(0, 5), (1, 3), (0, -2)]:
            c.update(item, delta)
        assert c.value == 6

