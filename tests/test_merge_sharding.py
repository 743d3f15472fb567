"""Merge correctness harness.

The merge contract (:mod:`repro.batch`): for sketches built with
identical seeds, ``a.merge(b)`` must leave ``a`` summarising the
concatenation of both input streams.  This harness checks, for every
:class:`~repro.batch.Mergeable` sketch:

* **linear integer sketches** (FrequencyVector, CountSketch, CountMin,
  AMS): merged shards are *bit-identical*, whole state included, to a
  single-shard replay — integer scatter-adds commute, so there is no
  tolerance to grant;
* **float linear sketches** (Cauchy L1): identical up to float-addition
  associativity (estimates agree to machine precision);
* **sampling sketches** (CSSS): the merged sketch is a *valid* CSSS of
  the whole stream — rate-aligned thinning preserves the sampling
  invariants and the Theorem 1 error guarantee (bit-identity is
  impossible: each shard consumes its own sampling randomness);
* shard realism: merges still work after a pickle round-trip (hash
  functions compare by value, not identity).
"""

from __future__ import annotations

# repro: allow[pickle-ban] -- pins that merges survive a pickle round-trip (hash functions compare by value, not identity); never loads untrusted bytes
import pickle

import numpy as np
import pytest

from repro.core.csss import CSSS, CSSSWithTailEstimate
from repro.core.heavy_hitters import AlphaHeavyHitters
from repro.core.inner_product import AlphaInnerProduct
from repro.core.l0_estimation import AlphaL0Estimator
from repro.core.l1_estimation import (
    AlphaL1EstimatorGeneral,
    AlphaL1EstimatorStrict,
)
from repro.core.l1_sampler import AlphaL1Sampler
from repro.core.sampling import SampledFrequencies
from repro.counters.exact import ExactL1Counter
from repro.sketches.ams import AMSSketch
from repro.sketches.cauchy import CauchyL1Sketch
from repro.sketches.countmin import CountMin
from repro.sketches.countsketch import CountSketch
from repro.sketches.misra_gries import MisraGries
from repro.streams.engine import replay
from repro.streams.generators import (
    bounded_deletion_stream,
    zipfian_insertion_stream,
)
from repro.streams.model import FrequencyVector, Stream

from test_batch_equivalence import assert_same_state

N = 1 << 10
M = 6_000
SEED = 0x5EED


def _make_countsketch():
    return CountSketch(N, 48, 4, np.random.default_rng(SEED))


def _make_countmin():
    return CountMin(N, 64, 4, np.random.default_rng(SEED))


def _make_ams():
    return AMSSketch(N, per_group=8, groups=4, rng=np.random.default_rng(SEED))


def _make_frequency_vector():
    return FrequencyVector(N)


def _make_cauchy():
    return CauchyL1Sketch(N, eps=0.3, rng=np.random.default_rng(SEED))


def _make_csss():
    return CSSS(N, k=8, eps=0.1, alpha=4, rng=np.random.default_rng(SEED),
                depth=4, sample_budget=2048)


def _make_csss_tail():
    return CSSSWithTailEstimate(
        N, k=8, eps=0.1, alpha=4, rng=np.random.default_rng(SEED), depth=4
    )


def _make_hh_strict():
    return AlphaHeavyHitters(
        N, eps=1 / 16, alpha=4, rng=np.random.default_rng(SEED),
        strict_turnstile=True,
    )


def _make_hh_general():
    return AlphaHeavyHitters(
        N, eps=1 / 16, alpha=4, rng=np.random.default_rng(SEED),
        strict_turnstile=False,
    )


#: name -> (factory, exact integer state extractor or None)
EXACT_LINEAR = {
    "frequency_vector": _make_frequency_vector,
    "countsketch": _make_countsketch,
    "countmin": _make_countmin,
    "ams": _make_ams,
}


@pytest.fixture(scope="module")
def stream():
    return bounded_deletion_stream(N, M, alpha=4, seed=71, strict=False)


@pytest.fixture(scope="module")
def strict_stream():
    return bounded_deletion_stream(N, M, alpha=4, seed=72, strict=True)


def _shard_replay(stream, factory, shards):
    """Replay ``shards`` contiguous, near-equal parts of the stream into
    one sketch each, then fold them left to right with ``merge``."""
    items, deltas = stream.as_arrays()
    parts = [
        replay(Stream.from_arrays(stream.n, part_items, part_deltas),
               factory())
        for part_items, part_deltas in zip(np.array_split(items, shards),
                                           np.array_split(deltas, shards))
    ]
    merged = parts[0]
    for part in parts[1:]:
        merged.merge(part)
    return merged


class TestExactLinearMerges:
    @pytest.mark.parametrize("name", sorted(EXACT_LINEAR))
    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_merged_shards_bit_identical(self, stream, name, shards):
        factory = EXACT_LINEAR[name]
        single = replay(stream, factory())
        merged = _shard_replay(stream, factory, shards)
        assert_same_state(single, merged)

    @pytest.mark.parametrize("name", sorted(EXACT_LINEAR))
    def test_merge_survives_pickle_round_trip(self, stream, name):
        """A sketch shipped across a process boundary (pickled) still
        merges: hash functions compare by value, not identity."""
        factory = EXACT_LINEAR[name]
        items, deltas = stream.as_arrays()
        half = len(items) // 2
        a, b = factory(), factory()
        a.update_batch(items[:half], deltas[:half])
        b.update_batch(items[half:], deltas[half:])
        merged = a.merge(pickle.loads(pickle.dumps(b)))
        assert_same_state(replay(stream, factory()), merged)

    def test_merge_rejects_foreign_seeds(self):
        for make, other in [
            (_make_countsketch, CountSketch(N, 48, 4, np.random.default_rng(1))),
            (_make_countmin, CountMin(N, 64, 4, np.random.default_rng(1))),
            (_make_ams, AMSSketch(N, 8, 4, np.random.default_rng(1))),
            (_make_cauchy, CauchyL1Sketch(N, eps=0.3,
                                          rng=np.random.default_rng(1))),
            (_make_csss, CSSS(N, k=8, eps=0.1, alpha=4,
                              rng=np.random.default_rng(1), depth=4)),
        ]:
            with pytest.raises(ValueError):
                make().merge(other)

    def test_merge_rejects_wrong_universe(self):
        with pytest.raises(ValueError):
            FrequencyVector(8).merge(FrequencyVector(16))


class TestFloatAndSamplingMerges:
    def test_cauchy_merge_matches_single_replay(self, stream):
        single = replay(stream, _make_cauchy())
        merged = _shard_replay(stream, _make_cauchy, 4)
        assert merged.estimate() == pytest.approx(single.estimate(), rel=1e-9)

    def test_csss_merge_is_valid_sketch(self, stream):
        """Merged CSSS satisfies the Theorem 1 error band and the
        budget/halving invariant (bit-identity is impossible: shards
        consume independent sampling randomness)."""
        fv = stream.frequency_vector()
        merged = _shard_replay(stream, _make_csss, 4)
        for r in range(merged.depth):
            assert int(merged._row_weight[r]) <= merged.budget
            assert int(merged._row_weight[r]) == int(
                merged.pos[r].sum() + merged.neg[r].sum()
            )
        bound = 2 * (fv.err_k_p(8) / np.sqrt(8) + 0.1 * fv.l1())
        estimates = merged.query_all(np.arange(N))
        assert float(np.abs(estimates - fv.f).max()) <= bound

    def test_csss_merge_aligns_rates(self):
        """Shards halved a different number of times still merge: the
        finer-rate shard is thinned down to the coarser rate."""
        rng_stream = bounded_deletion_stream(N, 4000, alpha=4, seed=9,
                                             strict=False)
        items, deltas = rng_stream.as_arrays()

        def make():
            return CSSS(N, k=4, eps=0.2, alpha=4,
                        rng=np.random.default_rng(3), depth=3,
                        sample_budget=300)

        a, b = make(), make()
        a.update_batch(items[:3500], deltas[:3500])  # many halvings
        b.update_batch(items[3500:], deltas[3500:])  # few halvings
        assert int(a.log2_inv_p.max()) > int(b.log2_inv_p.max())
        merged = a.merge(b)
        for r in range(merged.depth):
            assert int(merged._row_weight[r]) <= merged.budget

    def test_csss_tail_merge(self, stream):
        merged = _shard_replay(stream, _make_csss_tail, 3)
        fv = stream.frequency_vector()
        v = merged.tail_error_estimate(float(fv.l1()))
        assert v >= 0  # well-formed; band checked in test_csss.py

    @pytest.mark.parametrize("make,strict", [
        (_make_hh_strict, True), (_make_hh_general, False)])
    def test_heavy_hitters_merge_keeps_guarantee(
        self, stream, strict_stream, make, strict
    ):
        s = strict_stream if strict else stream
        fv = s.frequency_vector()
        merged = _shard_replay(s, make, 4)
        reported = merged.heavy_hitters()
        eps = 1 / 16
        assert fv.heavy_hitters(eps) <= reported
        for i in reported:
            assert abs(int(fv.f[i])) >= (eps / 2) * fv.l1() * 0.5

    def test_shard_indexed_seeds_decorrelate_sampling(self):
        """Same hash seeds, different sampling seeds: the tables differ
        (independent sampling realisations) but merges stay valid."""
        a = CSSS(N, k=4, eps=0.2, alpha=4, rng=np.random.default_rng(3),
                 depth=3, sample_budget=300, sampling_seed=(3, 0))
        b = CSSS(N, k=4, eps=0.2, alpha=4, rng=np.random.default_rng(3),
                 depth=3, sample_budget=300, sampling_seed=(3, 1))
        s = bounded_deletion_stream(N, 4000, alpha=4, seed=11, strict=False)
        items, deltas = s.as_arrays()
        a.update_batch(items, deltas)
        b.update_batch(items, deltas)
        assert not (
            np.array_equal(a.pos, b.pos) and np.array_equal(a.neg, b.neg)
        )
        merged = a.merge(b)  # same hash seeds => compatible
        for r in range(merged.depth):
            assert int(merged._row_weight[r]) <= merged.budget

    def test_exact_l1_counter_merge(self):
        a, b = ExactL1Counter(), ExactL1Counter()
        a.update(0, 5)
        b.update(0, 7)
        b.update(1, -2)
        assert a.merge(b).value == 10


# -- the schedule-core ports: merge + pickle round-trips ----------------------


def _make_l1_strict():
    return AlphaL1EstimatorStrict(alpha=4, eps=0.2,
                                  rng=np.random.default_rng(SEED), s=500)


def _make_l1_general():
    return AlphaL1EstimatorGeneral(N, eps=0.3, alpha=4,
                                   rng=np.random.default_rng(SEED))


def _make_sampled_frequencies():
    return SampledFrequencies(budget=1500, rng=np.random.default_rng(SEED))


def _make_misra_gries():
    return MisraGries(N, eps=1 / 16)


def _make_alpha_l0():
    return AlphaL0Estimator(N, eps=0.3, alpha=4,
                            rng=np.random.default_rng(SEED))


def _make_l1_sampler():
    return AlphaL1Sampler(N, eps=0.3, alpha=4,
                          rng=np.random.default_rng(SEED), depth=3)


class TestPortedStructureMerges:
    """Merge + pickle round-trips for every structure the schedule-core
    refactor made mergeable (satellite: tests/test_merge_sharding.py)."""

    def test_strict_l1_merge_sums_shard_estimates(self, strict_stream):
        single = replay(strict_stream, _make_l1_strict())
        merged = _shard_replay(strict_stream, _make_l1_strict, 3)
        fv = strict_stream.frequency_vector()
        # Strict model: ||f||_1 = sum of deltas decomposes over shards.
        assert merged.estimate() == pytest.approx(fv.l1(), rel=0.3)
        assert single.estimate() == pytest.approx(fv.l1(), rel=0.3)

    def test_strict_l1_merge_survives_pickle(self, strict_stream):
        items, deltas = strict_stream.as_arrays()
        half = len(items) // 2
        a, b = _make_l1_strict(), _make_l1_strict()
        a.update_batch(items[:half], deltas[:half])
        b.update_batch(items[half:], deltas[half:])
        expect = a.estimate() + b.estimate()
        merged = a.merge(pickle.loads(pickle.dumps(b)))
        assert merged.estimate() == pytest.approx(expect)

    def test_strict_l1_merge_rejects_mismatch(self):
        other = AlphaL1EstimatorStrict(alpha=4, eps=0.2,
                                       rng=np.random.default_rng(1), s=999)
        with pytest.raises(ValueError):
            _make_l1_strict().merge(other)

    def test_general_l1_merge_tracks_truth(self, stream):
        merged = _shard_replay(stream, _make_l1_general, 3)
        fv = stream.frequency_vector()
        assert merged.estimate() == pytest.approx(fv.l1(), rel=0.6)
        # Budget invariant re-established after merge.
        assert int(merged._weights.max()) <= merged.budget * merged.q

    def test_general_l1_merge_rejects_foreign_seeds(self):
        other = AlphaL1EstimatorGeneral(N, eps=0.3, alpha=4,
                                        rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            _make_l1_general().merge(other)

    def test_sampled_frequencies_merge_is_valid_sample(self, stream):
        single = replay(stream, _make_sampled_frequencies())
        merged = _shard_replay(stream, _make_sampled_frequencies, 4)
        fv = stream.frequency_vector()
        assert merged._retained <= merged.budget
        assert merged.sum_estimate() == pytest.approx(
            float(fv.f.sum()), abs=max(0.35 * fv.l1(), 1.0)
        )
        assert single.sum_estimate() == pytest.approx(
            float(fv.f.sum()), abs=max(0.35 * fv.l1(), 1.0)
        )

    def test_sampled_frequencies_merge_survives_pickle(self, stream):
        items, deltas = stream.as_arrays()
        half = len(items) // 2
        a, b = _make_sampled_frequencies(), _make_sampled_frequencies()
        a.update_batch(items[:half], deltas[:half])
        b.update_batch(items[half:], deltas[half:])
        merged = a.merge(pickle.loads(pickle.dumps(b)))
        assert merged._retained <= merged.budget

    def test_misra_gries_merge_keeps_guarantee(self):
        """Mergeable-summaries: merged undercount <= eps * total m."""
        s = zipfian_insertion_stream(N, 4000, seed=9)
        fv = s.frequency_vector()
        single = replay(s, _make_misra_gries())
        merged = _shard_replay(s, _make_misra_gries, 4)
        eps = 1 / 16
        assert merged.stream_length == single.stream_length == 4000
        for i in range(N):
            true = int(fv.f[i])
            assert merged.query(i) <= true
            assert merged.query(i) >= true - eps * merged.stream_length
        assert fv.heavy_hitters(eps) <= merged.heavy_hitters()

    def test_misra_gries_merge_survives_pickle(self):
        s = zipfian_insertion_stream(N, 2000, seed=10)
        items, deltas = s.as_arrays()
        a, b = _make_misra_gries(), _make_misra_gries()
        a.update_batch(items[:1000], deltas[:1000])
        b.update_batch(items[1000:], deltas[1000:])
        merged = a.merge(pickle.loads(pickle.dumps(b)))
        assert len(merged._counters) <= merged.capacity
        assert merged.stream_length == 2000

    def test_alpha_l0_merge_stays_in_band(self, stream):
        single = replay(stream, _make_alpha_l0())
        merged = _shard_replay(stream, _make_alpha_l0, 3)
        truth = float(stream.frequency_vector().l0())
        # Rough KMV state merges bit-identically; the decoded estimate
        # carries the per-shard missed-prefix slack on top of the
        # single-pass error.
        assert merged._rough._f0._smallest == single._rough._f0._smallest
        assert merged.estimate() == pytest.approx(truth, rel=0.75)

    def test_alpha_l0_merge_survives_pickle(self, stream):
        items, deltas = stream.as_arrays()
        half = len(items) // 2
        a, b = _make_alpha_l0(), _make_alpha_l0()
        a.update_batch(items[:half], deltas[:half])
        b.update_batch(items[half:], deltas[half:])
        merged = a.merge(pickle.loads(pickle.dumps(b)))
        assert merged.estimate() > 0

    def test_alpha_l0_merge_rejects_foreign_seeds(self):
        other = AlphaL0Estimator(N, eps=0.3, alpha=4,
                                 rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            _make_alpha_l0().merge(other)

    def test_l1_sampler_merge_folds_exact_counters(self, strict_stream):
        items, deltas = strict_stream.as_arrays()
        half = len(items) // 2
        a, b = _make_l1_sampler(), _make_l1_sampler()
        a.update_batch(items[:half], deltas[:half])
        b.update_batch(items[half:], deltas[half:])
        r_a, r_b, q_a, q_b = a.r, b.r, a.q, b.q
        merged = a.merge(pickle.loads(pickle.dumps(b)))
        assert merged.r == r_a + r_b
        assert merged.q == q_a + q_b
        single = replay(strict_stream, _make_l1_sampler())
        assert merged.r == single.r and merged.q == single.q

    def test_l1_sampler_merge_rejects_foreign_scalars(self):
        other = AlphaL1Sampler(N, eps=0.3, alpha=4,
                               rng=np.random.default_rng(1), depth=3)
        with pytest.raises(ValueError):
            _make_l1_sampler().merge(other)

    def test_inner_product_merge_tracks_truth(self, stream):
        ctx = AlphaInnerProduct(N, eps=0.2, alpha=4,
                                rng=np.random.default_rng(SEED))
        other = bounded_deletion_stream(N, M, alpha=4, seed=99, strict=False)
        items_f, deltas_f = stream.as_arrays()
        items_g, deltas_g = other.as_arrays()
        # f sharded into 3, g single-pass: the rescaled-union merge must
        # still estimate <f, g> within the Theorem 2 envelope.
        half = len(items_f) // 3
        shards = []
        for lo, hi in ((0, half), (half, 2 * half), (2 * half, len(items_f))):
            sk = ctx.make_sketch()
            sk.update_batch(items_f[lo:hi], deltas_f[lo:hi])
            shards.append(sk)
        merged_f = shards[0]
        merged_f.merge(shards[1]).merge(shards[2])
        sg = ctx.make_sketch()
        sg.update_batch(items_g, deltas_g)
        truth = float(
            np.dot(stream.frequency_vector().f.astype(np.float64),
                   other.frequency_vector().f.astype(np.float64))
        )
        envelope = 4 * ctx.eps * stream.frequency_vector().l1() * \
            other.frequency_vector().l1()
        assert abs(ctx.estimate(merged_f, sg) - truth) <= envelope

    def test_inner_product_merge_rejects_foreign_context(self):
        ctx_a = AlphaInnerProduct(N, eps=0.2, alpha=4,
                                  rng=np.random.default_rng(SEED))
        ctx_b = AlphaInnerProduct(N, eps=0.2, alpha=4,
                                  rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            ctx_a.make_sketch().merge(ctx_b.make_sketch())

    def test_rough_f0_merge_is_bit_identical(self, stream):
        from repro.sketches.knw_l0 import RoughF0Estimator

        def make():
            return RoughF0Estimator(N, np.random.default_rng(SEED))

        single = replay(stream, make())
        merged = _shard_replay(stream, make, 4)
        assert merged._smallest == single._smallest
