"""Batch-update equivalence harness.

The batch contract (:mod:`repro.batch`): ``update_batch(items, deltas)``
must leave a structure in *exactly* the state of the scalar
``update(item, delta)`` loop — including consumed randomness — for every
chunking of the stream.  This harness enforces the contract for every
batch-capable structure in the package:

* a deep state comparison (numpy arrays bit-equal, dicts/lists recursed,
  ``np.random.Generator`` states equal) between a scalar-fed reference
  and batch-fed copies at chunk sizes {1, 7, 1024, whole-stream};
* estimate equality after the replay;
* a hypothesis property test over arbitrary update sequences and random
  chunkings for the foundational structures;
* a seeded-determinism regression test pinning golden estimates, so a
  refactor cannot silently change published benchmark numbers.

Floating-point state is compared *bit-identically*: vectorised paths
that accumulate floats use running (cumsum) folds precisely so that no
tolerance is needed here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import mod_scatter_add, supports_batch
from repro.core.csss import CSSS, CSSSWithTailEstimate
from repro.core.heavy_hitters import AlphaHeavyHitters
from repro.core.inner_product import AlphaInnerProduct
from repro.core.l0_estimation import (
    AlphaConstL0Estimator,
    AlphaL0Estimator,
    AlphaRoughL0Estimate,
)
from repro.core.l1_estimation import (
    AlphaL1EstimatorGeneral,
    AlphaL1EstimatorStrict,
)
from repro.core.l1_sampler import AlphaL1Sampler
from repro.core.sampling import SampledFrequencies
from repro.core.l2_heavy_hitters import AlphaL2HeavyHitters
from repro.core.support_sampler import AlphaSupportSampler
from repro.counters.exact import ExactL1Counter
from repro.sketches.ams import AMSSketch
from repro.sketches.cauchy import CauchyL1Sketch
from repro.sketches.countmin import CountMin
from repro.sketches.countsketch import CountSketch
from repro.sketches.knw_l0 import (
    ExactSmallL0,
    KNWL0Estimator,
    RoughF0Estimator,
    RoughL0Estimator,
)
from repro.sketches.l1_sampler_turnstile import TurnstileL1Sampler
from repro.sketches.misra_gries import MisraGries
from repro.sketches.sparse_recovery import SparseRecovery
from repro.sketches.support_sampler_turnstile import TurnstileSupportSampler
from repro.streams.generators import (
    bounded_deletion_stream,
    zipfian_insertion_stream,
)
from repro.streams.model import FrequencyVector, Stream, Update

N = 512
M = 1500
SEED = 0xBDE1
CHUNK_SIZES = (1, 7, 1024, None)  # None = whole stream


# -- deep state comparison ----------------------------------------------------

def _same(a, b, path, memo):
    key = (id(a), id(b))
    if key in memo:
        return
    memo.add(key)
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} != {b.dtype}"
        if a.dtype == object:
            assert a.shape == b.shape, f"{path}: shape"
            for idx in np.ndindex(a.shape):
                assert a[idx] == b[idx], f"{path}[{idx}]"
        else:
            assert np.array_equal(a, b), f"{path}: arrays differ"
    elif isinstance(a, np.random.Generator):
        assert (
            a.bit_generator.state == b.bit_generator.state
        ), f"{path}: generator states differ"
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for k in a:
            _same(a[k], b[k], f"{path}[{k!r}]", memo)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{path}[{i}]", memo)
    elif isinstance(a, (set, frozenset)):
        assert a == b, f"{path}: sets differ"
    elif hasattr(a, "__dict__"):
        _same(a.__dict__, b.__dict__, f"{path}.__dict__", memo)
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_same_state(a, b) -> None:
    """Recursively assert two structures hold bit-identical state."""
    _same(a, b, type(a).__name__, set())


# -- structure registry -------------------------------------------------------

def _inner_product_sketch(rng, **kw):
    ctx = AlphaInnerProduct(N, eps=0.25, alpha=4, rng=rng, **kw)
    return ctx.make_sketch()


# name -> (factory(rng), stream kind).  Strict-only structures get the
# strict stream; MisraGries is the insertion-only (alpha = 1) endpoint.
CASES = {
    "frequency_vector": (lambda rng: FrequencyVector(N), "general"),
    "countsketch": (lambda rng: CountSketch(N, 48, 4, rng), "general"),
    "countmin": (lambda rng: CountMin(N, 64, 4, rng), "general"),
    "ams": (lambda rng: AMSSketch(N, per_group=8, groups=4, rng=rng), "general"),
    "cauchy": (lambda rng: CauchyL1Sketch(N, eps=0.3, rng=rng), "general"),
    "sparse_recovery": (lambda rng: SparseRecovery(N, s=16, rng=rng), "general"),
    "exact_small_l0": (lambda rng: ExactSmallL0(N, c=20, rng=rng), "general"),
    "rough_f0": (lambda rng: RoughF0Estimator(N, rng), "general"),
    "rough_l0": (lambda rng: RoughL0Estimator(N, rng), "general"),
    "knw_l0": (lambda rng: KNWL0Estimator(N, eps=0.3, rng=rng), "general"),
    "turnstile_support": (
        lambda rng: TurnstileSupportSampler(N, k=5, rng=rng), "general"),
    "turnstile_l1": (
        lambda rng: TurnstileL1Sampler(N, eps=0.3, rng=rng, depth=4), "strict"),
    "csss": (
        lambda rng: CSSS(N, k=8, eps=0.1, alpha=4, rng=rng, depth=4), "general"),
    "csss_tail": (
        lambda rng: CSSSWithTailEstimate(
            N, k=8, eps=0.1, alpha=4, rng=rng, depth=4), "general"),
    "alpha_rough_l0": (lambda rng: AlphaRoughL0Estimate(N, rng), "general"),
    "alpha_l0": (
        lambda rng: AlphaL0Estimator(N, eps=0.3, alpha=4, rng=rng), "general"),
    "alpha_const_l0": (
        lambda rng: AlphaConstL0Estimator(N, alpha=4, rng=rng), "general"),
    "alpha_l1_strict": (
        lambda rng: AlphaL1EstimatorStrict(alpha=4, eps=0.2, rng=rng), "strict"),
    # A small interval base (and below, a small sample budget) moves the
    # Figure 4 / Theorem 2 window on these 1,500-update streams: levels
    # are born mid-stream, and they reach levels [1, 2] and [0, 1].
    "alpha_l1_strict_s16": (
        lambda rng: AlphaL1EstimatorStrict(alpha=4, eps=0.2, rng=rng, s=16),
        "strict"),
    "alpha_l1_strict_s16_exact": (
        lambda rng: AlphaL1EstimatorStrict(
            alpha=4, eps=0.2, rng=rng, s=16, use_morris=False), "strict"),
    "alpha_l1_general": (
        lambda rng: AlphaL1EstimatorGeneral(
            N, eps=0.4, alpha=4, rng=rng), "general"),
    "alpha_hh_strict": (
        lambda rng: AlphaHeavyHitters(
            N, eps=0.125, alpha=4, rng=rng, strict_turnstile=True, depth=4),
        "strict"),
    "alpha_hh_general": (
        lambda rng: AlphaHeavyHitters(
            N, eps=0.125, alpha=4, rng=rng, strict_turnstile=False, depth=4),
        "general"),
    "alpha_l2_hh": (
        lambda rng: AlphaL2HeavyHitters(N, eps=0.3, alpha=4, rng=rng, depth=4),
        "general"),
    "alpha_l1_sampler": (
        lambda rng: AlphaL1Sampler(N, eps=0.3, alpha=4, rng=rng, depth=4),
        "strict"),
    "alpha_support": (
        lambda rng: AlphaSupportSampler(N, k=5, alpha=4, rng=rng), "strict"),
    "sampled_frequencies": (
        lambda rng: SampledFrequencies(budget=400, rng=rng), "general"),
    "inner_product": (_inner_product_sketch, "general"),
    "inner_product_budget64": (
        lambda rng: _inner_product_sketch(rng, sample_budget=64), "general"),
    "misra_gries": (lambda rng: MisraGries(N, eps=0.1), "insertion"),
    "exact_l1": (lambda rng: ExactL1Counter(), "strict"),
}

_ESTIMATE_METHODS = (
    "estimate", "sum_estimate", "f2_estimate", "l2_estimate",
    "l1_estimate", "result",
)


def _zero_arg(fn) -> bool:
    """True when ``fn()`` is callable without arguments (point-query
    estimators like ``SampledFrequencies.estimate(item)`` are exercised
    through the deep state comparison instead)."""
    import inspect

    try:
        inspect.signature(fn).bind()
    except TypeError:
        return False
    return True


def _streams() -> dict[str, Stream]:
    return {
        "general": bounded_deletion_stream(
            N, M, alpha=4, seed=101, strict=False),
        "strict": bounded_deletion_stream(N, M, alpha=4, seed=102, strict=True),
        "insertion": zipfian_insertion_stream(N, M, seed=103),
    }


STREAMS = _streams()


def _feed_scalar(sketch, stream):
    for u in stream:
        sketch.update(u.item, u.delta)
    return sketch


def _feed_batch(sketch, stream, chunk_size):
    items, deltas = stream.as_arrays()
    step = len(items) if chunk_size is None else chunk_size
    for start in range(0, len(items), step):
        sketch.update_batch(items[start:start + step],
                            deltas[start:start + step])
    return sketch


@pytest.mark.parametrize("name", sorted(CASES))
def test_update_batch_equals_scalar_loop(name, backend):
    """Scalar-fed reference vs batch-fed copies at every chunk size:
    bit-identical state and estimates (mixed-sign alpha-property
    streams; insertion-only for the alpha = 1 endpoint).  Runs under
    both update backends: the compiled kernels must land the same
    bits as the NumPy paths."""
    factory, kind = CASES[name]
    stream = STREAMS[kind]
    reference = _feed_scalar(factory(np.random.default_rng(SEED)), stream)
    assert supports_batch(reference), f"{name} lost its batch path"
    for chunk_size in CHUNK_SIZES:
        batched = _feed_batch(
            factory(np.random.default_rng(SEED)), stream, chunk_size)
        # Estimates first: some estimators (the monotone KMV clamp) cache
        # their last answer, so querying both sides keeps states aligned
        # for the deep comparison below.
        for method in _ESTIMATE_METHODS:
            ref_fn = getattr(reference, method, None)
            if callable(ref_fn) and _zero_arg(ref_fn):
                assert ref_fn() == getattr(batched, method)(), (
                    f"{name}.{method}() differs at chunk={chunk_size}"
                )
        assert_same_state(reference, batched)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CASES))
def test_update_batch_equivalence_extended_sweep(name):
    """Larger-stream sweep with awkward chunk sizes (prime, off-by-one
    around the default); excluded from tier-1 via the `slow` marker."""
    factory, kind = CASES[name]
    big = {
        "general": bounded_deletion_stream(N, 6 * M, alpha=4, seed=201,
                                           strict=False),
        "strict": bounded_deletion_stream(N, 6 * M, alpha=4, seed=202,
                                          strict=True),
        "insertion": zipfian_insertion_stream(N, 6 * M, seed=203),
    }[kind]
    reference = _feed_scalar(factory(np.random.default_rng(SEED)), big)
    for chunk_size in (997, 4095, 4097):
        batched = _feed_batch(
            factory(np.random.default_rng(SEED)), big, chunk_size)
        assert_same_state(reference, batched)


# -- hypothesis property test over arbitrary streams & chunkings -------------

_update_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=-40, max_value=40).filter(lambda d: d != 0),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=25, deadline=None)
@given(pairs=_update_lists, data=st.data())
def test_property_random_streams_and_chunkings(pairs, data):
    """For arbitrary mixed-sign update sequences and arbitrary chunk
    boundaries, the batch path matches the scalar loop bit-for-bit on
    the foundational structures."""
    stream = Stream(N, (Update(i, d) for i, d in pairs))
    chunk = data.draw(
        st.integers(min_value=1, max_value=len(pairs)), label="chunk")
    for factory in (
        lambda rng: FrequencyVector(N),
        lambda rng: CountSketch(N, 24, 3, rng),
        lambda rng: CSSS(N, k=4, eps=0.2, alpha=4, rng=rng, depth=3),
    ):
        reference = _feed_scalar(factory(np.random.default_rng(7)), stream)
        batched = _feed_batch(factory(np.random.default_rng(7)), stream, chunk)
        assert_same_state(reference, batched)


@pytest.mark.parametrize("name", [
    "alpha_const_l0", "alpha_l0", "alpha_rough_l0", "csss"])
@pytest.mark.parametrize("length", [1, 5, 39])
def test_short_stream_prefix_equivalence(name, length):
    """Regression: a fresh estimator must not drop the pre-first-window-
    move prefix in batch mode (the window structures must exist from
    construction, not from the first window move)."""
    factory, kind = CASES[name]
    stream = Stream(N, list(STREAMS[kind])[:length])
    reference = _feed_scalar(factory(np.random.default_rng(SEED)), stream)
    for chunk_size in (1, 3, None):
        batched = _feed_batch(
            factory(np.random.default_rng(SEED)), stream, chunk_size)
        assert_same_state(reference, batched)


def test_python_int_counters_do_not_wrap_in_batch_paths():
    """The exact counters (SignedCounter, sampler q/z1) are Python ints
    in the scalar path; batch folds must not silently wrap at int64."""
    from repro.counters.exact import SignedCounter

    big = (1 << 61) + 7
    a, b = SignedCounter(), SignedCounter()
    deltas = [big, big, big, -big, big]
    for d in deltas:
        a.add(d)
    b.add_batch(np.array(deltas, dtype=np.int64))
    assert a.value == b.value == 3 * big  # partials reach 3*big > 2^63
    assert a._max_abs == b._max_abs == 3 * big

    # AlphaL1Sampler q-counter: large deltas * large 1/t weights exceed
    # int64 in product and in cumulative sum; batch must match scalar.
    pairs = [(i % 8, (1 << 40) + i) for i in range(64)]
    stream = Stream(N, (Update(i, d) for i, d in pairs))
    scalar = _feed_scalar(
        AlphaL1Sampler(N, eps=0.3, alpha=4,
                       rng=np.random.default_rng(3), depth=3), stream)
    batched = _feed_batch(
        AlphaL1Sampler(N, eps=0.3, alpha=4,
                       rng=np.random.default_rng(3), depth=3), stream, 16)
    assert scalar.q == batched.q and scalar._max_q == batched._max_q
    assert scalar.r == batched.r


def test_exact_small_l0_batch_does_not_wrap_on_huge_deltas():
    """ExactSmallL0 folds per-bucket sums on Python ints when the chunk
    gross weight could overflow int64 (the scalar fold is exact)."""
    from repro.sketches.knw_l0 import ExactSmallL0

    pairs = [(5, 1 << 62), (5, 1 << 62), (9, -(1 << 61)), (5, 3)]
    a = ExactSmallL0(N, c=10, rng=np.random.default_rng(4))
    b = ExactSmallL0(N, c=10, rng=np.random.default_rng(4))
    for i, d in pairs:
        a.update(i, d)
    b.update_batch(np.array([i for i, _ in pairs]),
                   np.array([d for _, d in pairs], dtype=np.int64))
    assert a._tables == b._tables
    assert a.estimate() == b.estimate() == 2


def test_mod_scatter_add_does_not_overflow_int64():
    """Many near-modulus addends into one bucket must not wrap int64:
    the helper reduces in blocks sized so a single bucket absorbing a
    whole block stays below 2^63."""
    p = (1 << 62) + 1  # block size collapses to 1: reduce after every add
    target = np.zeros(4, dtype=np.int64)
    incs = np.full(64, p - 1, dtype=np.int64)
    idx = np.zeros(64, dtype=np.int64)
    mod_scatter_add(target, idx, incs, p)
    assert target[0] == (64 * (p - 1)) % p
    # 2-D (row, col) indexing, moderate modulus
    p2 = 10**12 + 39
    table = np.zeros((2, 3), dtype=np.int64)
    rows = np.array([0, 1, 0, 1] * 500)
    cols = np.array([1, 2, 1, 0] * 500)
    vals = np.full(2000, p2 - 3, dtype=np.int64)
    mod_scatter_add(table, (rows, cols), vals, p2)
    assert table[0, 1] == (1000 * (p2 - 3)) % p2
    assert table[1, 2] == (500 * (p2 - 3)) % p2
    assert table[1, 0] == (500 * (p2 - 3)) % p2


# -- seeded determinism regression -------------------------------------------

# Golden estimates for SEED-seeded structures on the shared streams,
# recorded when the batch pipeline landed.  Exact equality is intentional:
# the scalar and batch paths are bit-identical by construction, and these
# pins stop refactors from silently shifting published benchmark numbers.
# (Integer pins are platform-independent; float pins assume IEEE-754
# doubles and this container's numpy — regenerate them deliberately if
# the environment ever changes.)
GOLDEN = {
    "frequency_vector_l1": 376,
    "countsketch_query_7": 1,
    "cauchy_estimate": 447.3828939826745,
    "csss_query_7": 1.0,
    "alpha_l0_estimate": 95.5940068355736,
    "knw_l0_estimate": 95.5940068355736,
    "alpha_l1_strict_s16_estimate": 240.0,
    "alpha_l1_strict_s16_exact_estimate": 240.0,
    "inner_product_budget64_estimate": 10364.0,
}


def _golden_values() -> dict:
    stream = STREAMS["general"]
    out = {}
    out["frequency_vector_l1"] = stream.frequency_vector().l1()
    cs = _feed_batch(
        CountSketch(N, 48, 4, np.random.default_rng(SEED)), stream, 1024)
    out["countsketch_query_7"] = cs.query(7)
    cauchy = _feed_batch(
        CauchyL1Sketch(N, eps=0.3, rng=np.random.default_rng(SEED)),
        stream, 1024)
    out["cauchy_estimate"] = cauchy.estimate()
    csss = _feed_batch(
        CSSS(N, k=8, eps=0.1, alpha=4, rng=np.random.default_rng(SEED),
             depth=4),
        stream, 1024)
    out["csss_query_7"] = csss.query(7)
    al0 = _feed_batch(
        AlphaL0Estimator(N, eps=0.3, alpha=4, rng=np.random.default_rng(SEED)),
        stream, 1024)
    out["alpha_l0_estimate"] = al0.estimate()
    knw = _feed_batch(
        KNWL0Estimator(N, eps=0.3, rng=np.random.default_rng(SEED)),
        stream, 1024)
    out["knw_l0_estimate"] = knw.estimate()
    for name in ("alpha_l1_strict_s16", "alpha_l1_strict_s16_exact"):
        factory, kind = CASES[name]
        l1 = _feed_batch(
            factory(np.random.default_rng(SEED)), STREAMS[kind], 1024)
        out[f"{name}_estimate"] = l1.estimate()
    ip = _feed_batch(
        _inner_product_sketch(np.random.default_rng(SEED), sample_budget=64),
        stream, 1024)
    out["inner_product_budget64_estimate"] = ip.ctx.estimate(ip, ip)
    return out


def test_seeded_determinism_regression(backend):
    """Same generator seed => bit-identical estimates, scalar or batch,
    for any chunk size or update backend — pinned against golden
    values recorded before the compiled kernels existed."""
    got = _golden_values()
    for key, expected in GOLDEN.items():
        assert expected is not None, (
            f"golden value for {key} not recorded; run "
            f"tests/test_batch_equivalence.py::_golden_values and pin it"
        )
        assert got[key] == expected, f"{key}: {got[key]!r} != {expected!r}"
