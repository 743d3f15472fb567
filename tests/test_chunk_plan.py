"""Chunk-planning harness: coalescing, hash memoization, dense folds.

The plan contract (:mod:`repro.streams.plan`): feeding a structure
pre-planned chunks through ``update_plan`` must leave it bit-identical
to the plain ``update_batch`` replay (and hence, by the batch contract,
to the scalar loop) at every chunk size.  This module enforces:

* planned replay == chunk-by-chunk ``update_batch``, bit-for-bit, for
  every structure with an ``update_plan`` path, at chunk sizes
  {1, 7, 1024, whole} plus hypothesis-random streams/chunkings;
* a guard that non-coalescable structures (sampling/schedules-backed)
  are never handed a coalesced view — their plans must not even
  *compute* per-item sums;
* cross-sketch hash memoization: ``replay_many`` over several consumers
  evaluates each distinct hash function once per chunk (value-equal
  hash functions share one evaluation), asserted via a call counter;
* the ``replay_many`` pin: sketches fed together chunk-major end
  bit-identical to sketches fed by dedicated replays;
* the dense `SampledFrequencies` fast path: dense and dict modes agree
  estimate-for-estimate, and dense scalar == dense batch bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import supports_plan
from repro.core.csss import CSSS, CSSSWithTailEstimate
from repro.core.heavy_hitters import AlphaHeavyHitters
from repro.core.inner_product import AlphaInnerProduct
from repro.core.l0_estimation import AlphaL0Estimator
from repro.core.l1_estimation import AlphaL1EstimatorGeneral
from repro.core.l2_heavy_hitters import AlphaL2HeavyHitters
from repro.core.sampling import SampledFrequencies
from repro.hashing.kwise import KWiseHash
from repro.sketches.ams import AMSSketch
from repro.sketches.cauchy import CauchyL1Sketch
from repro import kernels
from repro.sketches.countmin import CountMin
from repro.sketches.countsketch import CountSketch
from repro.sketches.knw_l0 import ExactSmallL0
from repro.streams.engine import replay, replay_many
from repro.streams.generators import (
    bounded_deletion_stream,
    zipfian_insertion_stream,
)
from repro.streams.model import Stream, Update
from repro.streams.plan import ChunkPlan, ChunkPlanner

from test_batch_equivalence import _feed_batch, assert_same_state

N = 512
M = 1500
SEED = 0xC0A1
CHUNK_SIZES = (1, 7, 1024, None)

STREAM = bounded_deletion_stream(N, M, alpha=4, seed=301, strict=False)
SKEWED = zipfian_insertion_stream(N, M, skew=1.5, seed=302)


def _inner_product_sketch(rng):
    ctx = AlphaInnerProduct(N, eps=0.25, alpha=4, rng=rng)
    return ctx.make_sketch()


#: Every structure with an ``update_plan`` path.  The bool records
#: whether it is ℤ-linear, and so may read the plan's summed views (the
#: criterion on :attr:`repro.streams.plan.ChunkPlan.summed_deltas`).
PLAN_CASES = {
    "countsketch": (lambda rng: CountSketch(N, 48, 4, rng), True),
    "countmin": (lambda rng: CountMin(N, 64, 4, rng), True),
    "ams": (lambda rng: AMSSketch(N, per_group=8, groups=4, rng=rng), True),
    "alpha_l2_hh": (
        lambda rng: AlphaL2HeavyHitters(N, eps=0.3, alpha=4, rng=rng,
                                        depth=4), True),
    "cauchy": (lambda rng: CauchyL1Sketch(N, eps=0.3, rng=rng), False),
    "csss": (
        lambda rng: CSSS(N, k=8, eps=0.1, alpha=4, rng=rng, depth=4), False),
    "csss_tail": (
        lambda rng: CSSSWithTailEstimate(N, k=8, eps=0.1, alpha=4, rng=rng,
                                         depth=4), False),
    "alpha_hh_strict": (
        lambda rng: AlphaHeavyHitters(N, eps=0.125, alpha=4, rng=rng,
                                      strict_turnstile=True, depth=4), False),
    "alpha_hh_general": (
        lambda rng: AlphaHeavyHitters(N, eps=0.125, alpha=4, rng=rng,
                                      strict_turnstile=False, depth=4), False),
    "inner_product": (_inner_product_sketch, False),
    "alpha_l1_general": (
        lambda rng: AlphaL1EstimatorGeneral(N, eps=0.4, alpha=4, rng=rng),
        False),
    "alpha_l0_eps4": (
        lambda rng: AlphaL0Estimator(N, eps=1 / 4, alpha=4, rng=rng), False),
    "alpha_l0_eps16": (
        lambda rng: AlphaL0Estimator(N, eps=1 / 16, alpha=4, rng=rng), False),
    "exact_small_l0": (lambda rng: ExactSmallL0(N, c=20, rng=rng), False),
}


@pytest.mark.parametrize("name", sorted(PLAN_CASES))
def test_planned_replay_equals_batch_replay(name, backend):
    """Planned replay vs chunk-by-chunk ``update_batch`` at every chunk
    size: bit-identical state, including consumed randomness.
    Runs under both update backends — the kernels' plan paths (fused
    coalesced scatter, unique-entry folds) must land the same bits."""
    factory, _ = PLAN_CASES[name]
    for chunk_size in CHUNK_SIZES:
        reference = _feed_batch(
            factory(np.random.default_rng(SEED)), STREAM, chunk_size)
        planned = replay(
            STREAM, factory(np.random.default_rng(SEED)),
            chunk_size=chunk_size,
        )
        assert supports_plan(planned), f"{name} lost its plan path"
        assert_same_state(reference, planned)


def test_skewed_insertion_stream_coalesces_identically():
    """The coalescing win case (many duplicates per chunk) stays exact:
    zipf(1.5) insertion stream, every ℤ-linear structure."""
    for name, (factory, linear) in PLAN_CASES.items():
        if not linear:
            continue
        reference = _feed_batch(
            factory(np.random.default_rng(SEED)), SKEWED, 256)
        planned = replay(
            SKEWED, factory(np.random.default_rng(SEED)), chunk_size=256)
        assert_same_state(reference, planned)


_update_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=-40, max_value=40).filter(lambda d: d != 0),
    ),
    min_size=1,
    max_size=250,
)


@settings(max_examples=25, deadline=None)
@given(pairs=_update_lists, data=st.data())
def test_property_coalescing_random_streams_and_chunkings(pairs, data):
    """Arbitrary mixed-sign streams (duplicates, cancellations, repeated
    items) and arbitrary chunk boundaries: planned == unplanned bitwise
    for the ℤ-linear foundations."""
    stream = Stream(N, (Update(i, d) for i, d in pairs))
    chunk = data.draw(
        st.integers(min_value=1, max_value=len(pairs)), label="chunk")
    for factory in (
        lambda rng: CountSketch(N, 24, 3, rng),
        lambda rng: CountMin(N, 24, 3, rng),
        lambda rng: AMSSketch(N, per_group=4, groups=3, rng=rng),
    ):
        reference = _feed_batch(factory(np.random.default_rng(7)), stream,
                                chunk)
        planned = replay(stream, factory(np.random.default_rng(7)),
                         chunk_size=chunk)
        assert_same_state(reference, planned)


# -- guard: non-coalescable structures never see a coalesced view ------------

class _CoalescingForbidden(ChunkPlan):
    """Plan that refuses to build per-item sums: handing a coalesced
    view to a consumer raises instead of silently corrupting sampling
    state."""

    def _require_coalescable(self):
        raise AssertionError(
            "non-coalescable consumer requested a coalesced view"
        )


@pytest.mark.parametrize(
    "name",
    [k for k, (_, linear) in PLAN_CASES.items() if not linear],
)
def test_non_coalescable_structures_never_read_coalesced_views(name):
    """Feed every non-coalescable plan consumer through plans whose sum
    accessors raise: the replay must complete untouched (sampling and
    float structures read only the full per-update columns)."""
    factory, _ = PLAN_CASES[name]
    sketch = factory(np.random.default_rng(SEED))
    items, deltas = STREAM.as_arrays()
    planner = ChunkPlanner(STREAM.n)
    for start in range(0, len(items), 256):
        plan = _CoalescingForbidden(
            items[start:start + 256], deltas[start:start + 256],
            STREAM.n, planner,
        )
        sketch.update_plan(plan)  # must not touch summed_* accessors


def test_coalescing_refused_when_sums_could_wrap_int64():
    """Huge-delta chunks fall back to the exact batch path: the plan
    refuses per-item sums and a ℤ-linear consumer must produce the
    same state as its batch replay (the gross weight stays under 2^63,
    so no table cell can wrap on either path)."""
    big = (1 << 61) + 7
    pairs = [(3, big), (3, big), (5, -1), (3, -3), (5, 1)]
    stream = Stream(N, (Update(i, d) for i, d in pairs))
    plan = ChunkPlanner(N).plan(*stream.as_arrays())
    assert not plan.coalesce_safe
    with pytest.raises(ValueError, match="int64-safe"):
        plan.summed_deltas
    reference = _feed_batch(
        CountSketch(N, 48, 4, np.random.default_rng(SEED)), stream, None)
    planned = replay(stream,
                     CountSketch(N, 48, 4, np.random.default_rng(SEED)))
    assert_same_state(reference, planned)


def test_l0_plan_paths_take_the_exact_paths_on_huge_chunks():
    """A chunk whose gross weight reaches 2^62 takes the object-dtype
    paths through update_plan (ExactSmallL0's per-bucket sums, αL0's
    scaled increments) and lands exactly where the scalar loop does;
    an int64 fold would wrap (item 3's deltas sum to 3 * 2^62)."""
    big = 1 << 62
    items = np.array([3, 3, 5, 3, 7, 5])
    deltas = np.array([big, big, -big, big, 1, 2])
    builders = (
        lambda: AlphaL0Estimator(N, eps=1 / 4, alpha=4,
                                 rng=np.random.default_rng(SEED)),
        lambda: ExactSmallL0(N, c=20, rng=np.random.default_rng(SEED)),
    )
    for build in builders:
        plan = _CoalescingForbidden(items, deltas, N, ChunkPlanner(N))
        assert plan.gross_weight >= 1 << 62
        scalar, batch, planned = build(), build(), build()
        for item, delta in zip(items.tolist(), deltas.tolist()):
            scalar.update(item, delta)
        batch.update_batch(items, deltas)
        planned.update_plan(plan)
        assert_same_state(scalar, batch)
        assert_same_state(scalar, planned)


# -- plan internals ----------------------------------------------------------

@pytest.mark.parametrize("universe", [16, None], ids=["dense", "sorted"])
def test_plan_views_are_read_only(universe):
    """One plan feeds every consumer of a chunk, so each cached view is
    read-only: an in-place write raises instead of corrupting every
    later consumer."""
    items = np.array([7, 3, 7, 9, 3, 7, 11])
    deltas = np.array([5, 2, -5, 1, -2, 3, -2])
    plan = ChunkPlan(items, deltas, universe, ChunkPlanner(universe))
    h = KWiseHash(16, 8, k=2, rng=np.random.default_rng(0))
    views = {
        "unique_items": plan.unique_items,
        "inverse": plan.inverse,
        "abs_deltas": plan.abs_deltas,
        "delta_signs": plan.delta_signs,
        "summed_deltas": plan.summed_deltas,
        "nonzero_sums": plan.nonzero_sums,  # item 3 cancels
        "summed_magnitudes": plan.summed_magnitudes,
        "unique_values": plan.unique_values(h),
    }
    for name, view in views.items():
        with pytest.raises(ValueError, match="read-only"):
            view[0] = view[1]
        assert not view.flags.writeable, name
    # Per-update expansions are the caller's own copies.
    plan.values(h)[0] = 0


def test_plan_views_dense_and_sorted_paths_agree():
    """The dense (touched-flag workspace) and sort-based unique paths
    compute identical views; cancelling duplicates are filtered by the
    nonzero mask."""
    items = np.array([7, 3, 7, 9, 3, 7, 11])
    deltas = np.array([5, 2, -5, 1, 4, 3, -2])
    dense = ChunkPlanner(universe=16).plan(items, deltas)
    sorted_path = ChunkPlan(items, deltas, None, None)
    for plan in (dense, sorted_path):
        assert plan.unique_items.tolist() == [3, 7, 9, 11]
        assert plan.summed_deltas.tolist() == [6, 3, 1, -2]
        assert plan.summed_magnitudes.tolist() == [6, 13, 1, 2]
        assert plan.gather(plan.unique_items).tolist() == items.tolist()
        assert plan.gross_weight == 22
        assert plan.nonzero_sums is None
    # A full cancellation shows up in the mask.
    plan = ChunkPlanner(universe=16).plan(
        np.array([2, 2, 4]), np.array([3, -3, 1])
    )
    assert plan.summed_deltas.tolist() == [0, 1]
    assert plan.nonzero_sums.tolist() == [False, True]


def test_planner_workspaces_are_reused_across_chunks():
    """Back-to-back plans from one planner share the dense workspaces
    and still produce correct (reset) views; chunks much shorter than
    the universe keep the sort path (no O(n) scan per tiny chunk)."""
    planner = ChunkPlanner(universe=16)
    a = planner.plan(np.array([1, 1, 2]), np.array([1, 1, 1]))
    assert a.unique_items.tolist() == [1, 2]
    assert a.summed_deltas.tolist() == [2, 1]
    b = planner.plan(np.array([3, 2]), np.array([4, -1]))
    assert b.unique_items.tolist() == [2, 3]
    assert b.summed_deltas.tolist() == [-1, 4]
    assert planner._seen is not None and not planner._seen.any()
    wide = ChunkPlanner(universe=4096)
    tiny = wide.plan(np.array([7]), np.array([1]))
    assert tiny.unique_items.tolist() == [7]  # sort path
    assert wide._seen is None  # no O(n) workspace ever allocated


#: Consumer sets with an ``update_plan`` member get plans; sets of
#: batch-only consumers do not.
PLANNED_SETS = [("countsketch",), ("alpha_l0",),
                ("frequency_vector", "countsketch")]
UNPLANNED_SETS = [("frequency_vector",), ("frequency_vector", "misra_gries")]


@pytest.mark.parametrize("names", PLANNED_SETS + UNPLANNED_SETS)
def test_every_driver_follows_one_plan_policy(monkeypatch, names):
    """replay, replay_many and StreamSession plan the same consumer
    sets: a chunk is planned iff some consumer implements
    ``update_plan`` (replay takes the one-consumer sets)."""
    from repro.api import Params, StreamSession, build

    chunk = 128
    stream = zipfian_insertion_stream(N, 4 * chunk, skew=1.5, seed=303)
    params = Params(n=N, seed=SEED)
    calls = []
    original = ChunkPlanner.plan

    def counting(self, items, deltas):
        calls.append(len(items))
        return original(self, items, deltas)

    monkeypatch.setattr(ChunkPlanner, "plan", counting)

    def plans(run) -> int:
        calls.clear()
        run()
        return len(calls)

    def push_session():
        session = StreamSession(N, params=params, chunk_size=chunk)
        for name in names:
            session.track(name)
        session.push_stream(stream).flush()

    counts = {
        "replay_many": plans(lambda: replay_many(
            stream, [build(name, params) for name in names],
            chunk_size=chunk)),
        "session": plans(push_session),
    }
    if len(names) == 1:
        counts["replay"] = plans(lambda: replay(
            stream, build(names[0], params), chunk_size=chunk))
    expected = 4 if names in PLANNED_SETS else 0
    assert counts == dict.fromkeys(counts, expected)


# -- cross-sketch hash memoization -------------------------------------------

def _count_hash_calls(monkeypatch):
    calls: list = []
    original = KWiseHash.hash_array

    def counting(self, xs):
        calls.append(self)
        return original(self, xs)

    monkeypatch.setattr(KWiseHash, "hash_array", counting)
    return calls


def test_replay_many_hashes_each_chunk_once(monkeypatch):
    """`replay_many` over {CountSketch, CountMin, heavy hitters} (plus a
    second same-seeded CountSketch) evaluates each *distinct* hash
    function once per chunk: consumers of value-equal hash functions
    share one evaluation through the plan cache."""
    chunk = 256
    depth_hh = 4
    stream = bounded_deletion_stream(N, 1000, alpha=4, seed=311, strict=True)
    sketches = [
        CountSketch(N, 48, 4, np.random.default_rng(1)),
        CountSketch(N, 48, 4, np.random.default_rng(1)),  # value-equal twin
        CountMin(N, 64, 4, np.random.default_rng(2)),
        AlphaHeavyHitters(N, eps=0.125, alpha=4,
                          rng=np.random.default_rng(3),
                          strict_turnstile=True, depth=depth_hh),
    ]
    calls = _count_hash_calls(monkeypatch)
    # The compiled kernels bypass hash_array entirely (they evaluate
    # Horner from packed coefficients in C), so the evaluation-count
    # contract is only observable on the NumPy paths.
    with kernels.override("off"):
        replay_many(stream, sketches, chunk_size=chunk)
    n_chunks = -(-len(stream) // chunk)
    # Distinct hash functions: CountSketch 4 bucket + 4 sign (the twin
    # shares them by value), CountMin 4, heavy-hitters CSSS 4 + 4.
    distinct = 4 + 4 + 4 + 2 * depth_hh
    assert len(calls) == n_chunks * distinct
    # The planless batch path hashes once per *consumer*: strictly more.
    sketches2 = [
        CountSketch(N, 48, 4, np.random.default_rng(1)),
        CountSketch(N, 48, 4, np.random.default_rng(1)),
        CountMin(N, 64, 4, np.random.default_rng(2)),
        AlphaHeavyHitters(N, eps=0.125, alpha=4,
                          rng=np.random.default_rng(3),
                          strict_turnstile=True, depth=depth_hh),
    ]
    calls.clear()
    with kernels.override("off"):
        for sketch in sketches2:
            _feed_batch(sketch, stream, chunk)
    assert len(calls) == n_chunks * (distinct + 8)  # the twin re-hashes


def test_theorem2_sketch_pair_hashes_each_chunk_once(monkeypatch):
    """The composed case from the issue: an f/g sketch pair sharing one
    AlphaInnerProduct context hashes (and mod-reduces) each chunk once,
    not once per stream side."""
    ctx = AlphaInnerProduct(N, eps=0.25, alpha=4,
                            rng=np.random.default_rng(5))
    sf, sg = ctx.make_sketch(), ctx.make_sketch()
    stream = bounded_deletion_stream(N, 700, alpha=4, seed=313, strict=False)
    calls = _count_hash_calls(monkeypatch)
    with kernels.override("off"):
        replay_many(stream, [sf, sg], chunk_size=128)
    n_chunks = -(-len(stream) // 128)
    # One bucket hash + one sign hash per chunk, shared by both sides.
    assert len(calls) == n_chunks * 2
    est = ctx.estimate(sf, sg)
    assert np.isfinite(est)


def test_alpha_l0_hashes_each_chunks_unique_items_once(monkeypatch):
    """Every item-keyed hash of αL0 and its ExactSmallL0 runs once per
    chunk, over exactly the chunk's unique items; h3, h4 and the small
    row's h3 run once over h2's values on them."""
    sketch = AlphaL0Estimator(N, eps=1 / 4, alpha=4,
                              rng=np.random.default_rng(SEED))
    kmv = sketch._rough.kmv_hash
    item_keyed = [kmv._hi, kmv._lo, sketch._h1, sketch._h2,
                  *sketch._exact_small._hashes]
    h2_keyed = [sketch._h3, sketch._h4, sketch._h3_small]
    calls: list = []
    original = KWiseHash.hash_array

    def recording(self, xs):
        calls.append((self, np.array(xs)))
        return original(self, xs)

    monkeypatch.setattr(KWiseHash, "hash_array", recording)
    items, deltas = STREAM.as_arrays()
    planner = ChunkPlanner(N)
    with kernels.override("off"):
        for start in range(0, len(items), 256):
            plan = planner.plan(items[start:start + 256],
                                deltas[start:start + 256])
            calls.clear()
            sketch.update_plan(plan)
            unique = plan.unique_items
            j2 = plan.unique_values(sketch._h2)  # cached: no new call
            assert sorted(id(h) for h, _ in calls) == sorted(
                id(h) for h in item_keyed + h2_keyed)
            for h, xs in calls:
                keyed_on_items = any(h is k for k in item_keyed)
                assert np.array_equal(xs, unique if keyed_on_items else j2)


# -- the replay_many pin ------------------------------------------------------

def test_replay_many_matches_dedicated_replays():
    """Chunk-major interleaved feeding must leave every sketch exactly
    as its own dedicated replay would — including consumed randomness
    (the sketches own disjoint generators, so sharing a plan is
    state-invisible)."""
    def build():
        return [
            CountSketch(N, 48, 4, np.random.default_rng(21)),
            CountMin(N, 64, 4, np.random.default_rng(22)),
            CSSS(N, k=8, eps=0.1, alpha=4,
                 rng=np.random.default_rng(23), depth=4),
            AlphaHeavyHitters(N, eps=0.125, alpha=4,
                              rng=np.random.default_rng(24),
                              strict_turnstile=True, depth=4),
            CauchyL1Sketch(N, eps=0.3, rng=np.random.default_rng(25)),
        ]

    stream = bounded_deletion_stream(N, 1200, alpha=4, seed=317, strict=True)
    together = replay_many(stream, build(), chunk_size=192)
    for fed, alone in zip(together, build()):
        replay(stream, alone, chunk_size=192)
        assert_same_state(alone, fed)


# -- dense SampledFrequencies fast path ---------------------------------------

@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_sampled_frequencies_dense_scalar_vs_batch(chunk_size):
    """Dense mode obeys the batch contract: scalar loop == batch replay
    bitwise (tables, schedule, and generators)."""
    def build():
        return SampledFrequencies(
            budget=400, rng=np.random.default_rng(SEED), universe=N
        )

    reference = build()
    for u in SKEWED:
        reference.update(u.item, u.delta)
    batched = replay(SKEWED, build(), chunk_size=chunk_size)
    assert_same_state(reference, batched)


def test_sampled_frequencies_dense_matches_dict_mode():
    """Same seed, same stream: dense and dict modes consume identical
    randomness and agree on every estimate (the dense array is a
    workspace representation, not a different sampler)."""
    dense = replay(
        SKEWED,
        SampledFrequencies(budget=400, rng=np.random.default_rng(SEED),
                           universe=N),
    )
    sparse = replay(
        SKEWED,
        SampledFrequencies(budget=400, rng=np.random.default_rng(SEED)),
    )
    assert dense.log2_inv_p == sparse.log2_inv_p
    assert dense.sampled_items() == sparse.sampled_items()
    assert all(dense.estimate(i) == sparse.estimate(i) for i in range(N))
    assert dense.sum_estimate() == sparse.sum_estimate()
    assert dense.space_bits() == sparse.space_bits()


def test_sampled_frequencies_dense_merge():
    """Dense shards merge by the same rate-alignment rule; the merged
    sampler is a valid budget-obeying sample of the concatenation."""
    a = SampledFrequencies(budget=200, rng=np.random.default_rng(1),
                           universe=N)
    b = SampledFrequencies(budget=200, rng=np.random.default_rng(1),
                           universe=N)
    half = len(SKEWED) // 2
    items, deltas = SKEWED.as_arrays()
    a.update_batch(items[:half], deltas[:half])
    b.update_batch(items[half:], deltas[half:])
    merged = a.merge(b)
    assert merged._retained <= merged.budget
    truth = SKEWED.frequency_vector().l1()
    assert merged.sum_estimate() == pytest.approx(truth, rel=0.6)
    with pytest.raises(ValueError):
        a.merge(SampledFrequencies(budget=200, rng=np.random.default_rng(1)))


# -- general-L1 per-shard thinning seeds (ROADMAP lever c) --------------------

def test_l1_general_sampling_seed_decorrelates_but_merges():
    """Same rng seed + different sampling_seed: value-equal Cauchy rows
    (mergeable), different thinning realisations (decorrelated)."""
    def build(sampling_seed):
        return AlphaL1EstimatorGeneral(
            N, eps=0.4, alpha=4, rng=np.random.default_rng(9),
            sampling_seed=sampling_seed,
        )

    stream = bounded_deletion_stream(N, 1200, alpha=4, seed=331,
                                     strict=False)
    a = replay(stream, build((9, 1)))
    b = replay(stream, build((9, 2)))
    baseline = replay(stream, build(None))
    assert a._rows == b._rows == baseline._rows
    assert not np.array_equal(a.counters, b.counters)
    # sampling_seed=None keeps the historical stream (rng itself).
    legacy = replay(stream, AlphaL1EstimatorGeneral(
        N, eps=0.4, alpha=4, rng=np.random.default_rng(9)))
    assert np.array_equal(baseline.counters, legacy.counters)
    merged = a.merge(b)
    assert np.isfinite(merged.estimate())
