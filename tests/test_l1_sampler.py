"""Tests for repro.core.l1_sampler (Figure 3, Theorem 5)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.csss import CSSS
from repro.core.l1_sampler import AlphaL1MultiSampler, AlphaL1Sampler
from repro.streams.generators import strong_alpha_stream


def _collect_samples(stream, eps, alpha, attempts):
    fv = stream.frequency_vector()
    items, errs = [], []
    for seed in range(attempts):
        s = AlphaL1Sampler(
            stream.n, eps=eps, alpha=alpha, rng=np.random.default_rng(seed)
        ).consume(stream)
        out = s.sample()
        if out is None:
            continue
        item, est = out
        items.append(item)
        errs.append(abs(est - fv.f[item]) / max(1, abs(fv.f[item])))
    return items, errs, fv


class TestSamplingBehaviour:
    def test_success_rate_is_theta_eps(self, strong_stream):
        items, __, __ = _collect_samples(strong_stream, eps=0.25, alpha=3,
                                         attempts=60)
        rate = len(items) / 60
        # Theta(eps) success: comfortably within [eps/10, 1].
        assert rate >= 0.25 / 10

    def test_returned_estimates_are_accurate(self, strong_stream):
        __, errs, __ = _collect_samples(strong_stream, eps=0.25, alpha=3,
                                        attempts=60)
        assert errs
        assert float(np.median(errs)) <= 0.25

    def test_samples_come_from_support(self, strong_stream):
        items, __, fv = _collect_samples(strong_stream, eps=0.25, alpha=3,
                                         attempts=60)
        support = fv.support()
        hits = [i in support for i in items]
        assert np.mean(hits) > 0.9

    def test_distribution_tracks_l1_mass(self):
        """Items are drawn ~proportionally to |f_i| / ||f||_1: the heavy
        half of the mass should receive roughly half the samples."""
        stream = strong_alpha_stream(128, 25, alpha=2, magnitude=16, seed=90)
        fv = stream.frequency_vector()
        mags = np.abs(fv.f.astype(np.float64))
        order = np.argsort(-mags)
        cum = np.cumsum(mags[order])
        heavy = set(int(i) for i in order[: int(np.searchsorted(cum, cum[-1] / 2)) + 1])
        heavy_mass = sum(mags[i] for i in heavy) / fv.l1()

        items, __, __ = _collect_samples(stream, eps=0.25, alpha=2, attempts=120)
        assert len(items) >= 10
        frac = np.mean([i in heavy for i in items])
        assert abs(frac - heavy_mass) < 0.45

    def test_empty_stream_fails_gracefully(self):
        s = AlphaL1Sampler(64, eps=0.25, alpha=2, rng=np.random.default_rng(1))
        assert s.sample() is None


def _two_scan_sample(s: AlphaL1Sampler):
    """``sample()`` as a universe scan for the argmax, a second inside
    the Lemma 5 tail estimate, then the v refusal before the threshold
    refusal."""
    if s.r <= 0:
        return None
    estimates = s.csss.query_all(np.arange(s.n))
    best = int(np.argmax(np.abs(estimates)))
    y_best = float(estimates[best])
    v = s.csss.tail_error_estimate(float(s.q))
    sqrt_k = float(np.sqrt(s.k))
    if v > s.abort_factor * (sqrt_k * s.r + sqrt_k * s.csss.main.eps * s.q):
        return None
    threshold = s.r / s.eps
    heaviness = 0.5 * (s.eps**2 / max(1.0, np.log2(s.n)) ** 2) * s.q
    if abs(y_best) < max(threshold, heaviness):
        return None
    return best, y_best * s._t(best)


class TestOneScanPerAttempt:
    def test_sample_matches_two_scan_sequence(self, backend, strong_stream,
                                              monkeypatch):
        """Reusing the argmax scan's estimates for the tail estimate,
        and refusing on the threshold first, changes no answer; each
        attempt scans the universe once.  The tight abort factor makes
        the v refusal fire, alone and together with the threshold's."""
        scans = []
        original = CSSS.query_all

        def counting(c, items):
            scans.append(len(items) == c.n)
            return original(c, items)

        outcomes = []
        for seed, abort in itertools.product(range(16), (4.0, 1.0)):
            s = AlphaL1Sampler(strong_stream.n, eps=0.25, alpha=3,
                               rng=np.random.default_rng(seed),
                               abort_factor=abort)
            s.consume(strong_stream)
            want = _two_scan_sample(s)
            monkeypatch.setattr(CSSS, "query_all", counting)
            scans.clear()
            got = s.sample()
            monkeypatch.undo()
            assert got == want, (seed, abort)
            assert sum(scans) == 1
            outcomes.append(got is not None)
        assert any(outcomes) and not all(outcomes)


class TestMultiSampler:
    def test_amplification_reduces_failure(self, strong_stream):
        fails = 0
        for seed in range(10):
            ms = AlphaL1MultiSampler(
                strong_stream.n,
                eps=0.25,
                alpha=3,
                rng=np.random.default_rng(seed),
                copies=16,
            ).consume(strong_stream)
            if ms.sample() is None:
                fails += 1
        assert fails <= 3

    def test_default_copy_count(self):
        ms = AlphaL1MultiSampler(
            64, eps=0.5, alpha=2, rng=np.random.default_rng(2), delta=0.25
        )
        assert len(ms.samplers) == int(np.ceil((1 / 0.5) * np.log(4)))

    def test_space_is_copies_times_single(self, strong_stream):
        ms = AlphaL1MultiSampler(
            strong_stream.n, eps=0.25, alpha=3,
            rng=np.random.default_rng(3), copies=3,
        ).consume(strong_stream)
        assert ms.space_bits() == sum(s.space_bits() for s in ms.samplers)


class TestValidation:
    def test_eps(self):
        with pytest.raises(ValueError):
            AlphaL1Sampler(64, eps=0, alpha=2, rng=np.random.default_rng(4))

    def test_exact_norm_counters(self, strong_stream):
        s = AlphaL1Sampler(
            strong_stream.n, eps=0.25, alpha=3, rng=np.random.default_rng(5)
        ).consume(strong_stream)
        assert s.r == strong_stream.frequency_vector().l1()
        assert s.q >= s.r  # z scales each coordinate up by 1/t_i >= 1
