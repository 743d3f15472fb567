"""Inner-product estimation for α-property streams (Section 2.2).

Estimate ``<f, g>`` to additive error ``ε ‖f‖_1 ‖g‖_1`` in
``O(ε⁻¹ log(α log(n)/ε))`` bits — versus ``O(ε⁻¹ log n)`` for unbounded
deletions.  The pipeline (Theorem 2):

1. **Exponential-interval sampling.**  For intervals ``I_r = [s^r,
   s^(r+2)]`` over the stream position, updates arriving while ``t ∈ I_r``
   are sampled at rate ``s^-r``.  Two interval sketches are live at any
   time; at query time the *longest-running* one covers all but an ε-mass
   prefix of the stream (Lemma 6 needs ``~s = poly(α/ε)`` retained
   samples).
2. **Universe reduction mod a random prime.**  Sampled identities are
   reduced mod a random prime ``P ∈ [D, D^3]`` (D = poly(s)) — with high
   probability no two of the ``O(s^2)`` sampled identities collide, and
   the reduction itself is computed in low space via Lemma 7.
3. **Shared-hash CountSketch dot product.**  The reduced samples feed a
   single-row CountSketch vector with ``k = Θ(1/ε)`` buckets (4-wise
   bucket hash, shared sign); the rescaled ``<A, B>`` estimates
   ``<f', g'>`` up to ``ε ‖f‖_1 ‖g‖_1`` (Lemma 8), which estimates
   ``<f, g>`` by Lemma 6.

:class:`AlphaInnerProduct` is the shared-randomness factory — both stream
sketches must agree on the prime, the bucket hash, and the sign hash.
"""

from __future__ import annotations

import numpy as np

from repro.batch import consume_stream, signed_scatter_add_peak
from repro.core.schedules import (
    IntervalAcceptance,
    drive_interval_segments,
    exponential_interval_changes,
    exponential_interval_window,
)
from repro.hashing.kwise import KWiseHash, SignHash
from repro.hashing.modhash import StreamingModReducer
from repro.hashing.primes import random_prime_in_range
from repro.space.accounting import counter_bits
from repro.streams.plan import ChunkPlan


class AlphaInnerProduct:
    """Shared-randomness context for a pair of inner-product sketches.

    Parameters
    ----------
    n:
        Universe size (shared by both streams).
    eps:
        Additive-error parameter; ``k = ceil(k_constant/eps)`` buckets.
    alpha:
        L1 α-property bound assumed for both streams.
    rng:
        Randomness source.
    sample_budget:
        The practical stand-in for ``s = Θ(α² log⁷(n)/ε¹⁰)`` — the number
        of retained samples per interval; default ``32 α²/ε²`` (the
        α²/ε² dependence is what Lemma 6's variance calculation uses).
    """

    def __init__(
        self,
        n: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        k_constant: float = 16.0,
        sample_budget: int | None = None,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.n = int(n)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.k = max(4, int(np.ceil(k_constant / eps)))
        self.s = (
            sample_budget
            if sample_budget is not None
            else max(64, int(np.ceil(32.0 * alpha * alpha / (eps * eps))))
        )
        # Random prime P for the universe reduction, large enough that the
        # sampled identities stay collision-free w.h.p.: the number of
        # retained *distinct* ids is at most min(n, poly(s)), and a random
        # prime among the >= D/ln(D) primes in [D, 8D) divides any fixed
        # |i - j| <= n with probability O(log n * ln(D) / D).  The paper
        # samples from [D, D^3] with D = 100 s^4 for proof convenience;
        # D = 100 * min(n, s)^2 with the narrower window carries the same
        # union bound at our scales while keeping log P (counter ids) small.
        # The window is additionally capped below 2^28 whenever the cap
        # still exceeds n: any P > n divides no pairwise difference of
        # ids (all < n < P), so the reduction stays *deterministically*
        # injective, and a sub-2^31 prime keeps the bucket/sign hash
        # fields below 2^32 — the exact uint64-Horner fast path of
        # :meth:`repro.hashing.kwise.KWiseHash.hash_array` (~20x over the
        # exact-Python-int fallback).  Universes above 2^28 fall back to
        # the paper's window (and the slow field) unchanged.
        d = 100 * min(self.n, self.s) ** 2
        if d > (1 << 28) > self.n:
            d = 1 << 28
        self.prime = random_prime_in_range(d, 8 * d, rng)
        self._reducer = StreamingModReducer(self.prime, max(1, (n - 1).bit_length()))
        self._bucket_hash = KWiseHash(self.prime, self.k, k=4, rng=rng)
        self._sign_hash = SignHash(self.prime, rng, k=4)

    def make_sketch(self) -> "AlphaInnerProductSketch":
        """A sketch bound to this shared context (one per stream)."""
        return AlphaInnerProductSketch(self)

    def estimate(
        self, sf: "AlphaInnerProductSketch", sg: "AlphaInnerProductSketch"
    ) -> float:
        """``p_f^{-1} p_g^{-1} <A, B>`` — the Theorem 2 estimator."""
        af, pf = sf.final_vector_and_rate()
        ag, pg = sg.final_vector_and_rate()
        return float(np.dot(af, ag)) / (pf * pg)

    def context_space_bits(self) -> int:
        return (
            self._bucket_hash.space_bits()
            + self._sign_hash.space_bits()
            + self._reducer.space_bits()
        )


class _IntervalSketch(IntervalAcceptance):
    """CountSketch vector accumulating one sampling interval ``I_r``,
    over an :class:`~repro.core.schedules.IntervalAcceptance` stream
    spawned at interval birth (level 0 samples at rate 1 and owns no
    generator)."""

    def __init__(
        self,
        ctx: AlphaInnerProduct,
        level: int,
        birth: int,
        rng: np.random.Generator | None,
    ) -> None:
        super().__init__(float(ctx.s) ** (-level), rng)
        self.ctx = ctx
        self.level = level  # sampling rate is s^-level (capped at 1)
        self.birth = birth  # stream position when this interval started
        self.vector = np.zeros(ctx.k, dtype=np.int64)
        self.max_abs = 0

    def offer(self, bucket: int, signed_unit: int, mag: int) -> None:
        """Fold one update given its precomputed bucket and effective
        sign (``g(reduced) * sign(delta)``)."""
        kept = self.accept(mag)
        if kept == 0:
            return
        self.vector[bucket] += signed_unit * kept
        peak = abs(int(self.vector[bucket]))
        if peak > self.max_abs:
            self.max_abs = peak

    def offer_batch(
        self, buckets: np.ndarray, eff_signs: np.ndarray, mags: np.ndarray
    ) -> None:
        """Fold a block of updates (one uniform per update at rate < 1)."""
        kept = self.accept_batch(mags)
        nz = kept > 0
        if not nz.any():
            return
        peak = signed_scatter_add_peak(
            self.vector, buckets[nz], eff_signs[nz] * kept[nz]
        )
        if peak > self.max_abs:
            self.max_abs = peak

    def space_bits(self) -> int:
        return self.ctx.k * counter_bits(max(1, self.max_abs))


class AlphaInnerProductSketch:
    """One stream's side of the Theorem 2 estimator.

    Maintains the two live interval sketches; ``final_vector_and_rate``
    returns the longest-running one and its sampling rate.
    ``update_plan`` (and so ``update_batch``) segments a chunk at the
    (analytically located) ``s^r`` interval boundaries and folds each
    segment vectorised — one hash/reduction pass per chunk, one
    inverse-CDF quantisation per (interval, segment) — bit-identical to
    the scalar loop at every chunk size.
    """

    def __init__(self, ctx: AlphaInnerProduct) -> None:
        self.ctx = ctx
        # repro: allow[rng-discipline] -- sampling coins derived
        # deterministically from the shared prime, not fresh entropy
        self._rng = np.random.default_rng(
            int(ctx.prime) % (2**32) + 17
        )  # sampling coins are private per stream, derived deterministically
        self.t = 0
        self._live: dict[int, _IntervalSketch] = {
            0: _IntervalSketch(ctx, level=0, birth=0, rng=None)
        }
        # Rescaled vectors folded in from merged shards (see merge()).
        self._merged_rescaled: np.ndarray | None = None

    @property
    def n(self) -> int:
        """The universe, the shared context's."""
        return self.ctx.n

    def _levels_for(self, t: int) -> range:
        """Levels r with ``t ∈ I_r = [s^r, s^(r+2)]`` (level 0 covers the
        prefix before ``s``)."""
        return exponential_interval_window(float(t), self.ctx.s)

    def _current_window(self) -> range:
        keys = sorted(self._live)
        return range(keys[0], keys[-1] + 1)

    def _sync_levels(self, wanted: range, birth: int) -> None:
        for lvl in wanted:
            if lvl not in self._live:
                child = self._rng.spawn(1)[0] if lvl > 0 else None
                self._live[lvl] = _IntervalSketch(self.ctx, lvl, birth, child)
        for lvl in list(self._live):
            if lvl not in wanted:
                del self._live[lvl]

    def update(self, item: int, delta: int) -> None:
        self.t += 1
        wanted = self._levels_for(self.t)
        self._sync_levels(wanted, self.t)
        reduced = self.ctx._reducer.reduce(item)
        bucket = self.ctx._bucket_hash(reduced)
        signed_unit = self.ctx._sign_hash(reduced) * (1 if delta > 0 else -1)
        mag = abs(delta)
        for lvl in wanted:
            self._live[lvl].offer(bucket, signed_unit, mag)

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    # Reads no summed view: each live interval consumes one acceptance
    # uniform per update; coalescing would change the draw sequence.
    def update_plan(self, plan) -> None:
        """Segmented update (see the class docstring).  A planned chunk
        caches the mod-``P`` reduction and the bucket/sign hashes keyed
        by the shared context's value-equal reducer and hashes, so the
        **pair** of Theorem 2 sketches (f and g share one
        :class:`AlphaInnerProduct` context) hashes each chunk once, not
        once per stream.  The window moves only at ``s^r`` position
        crossings (:func:`repro.core.schedules.exponential_interval_changes`),
        and each constant-window segment folds into every live interval
        with one block of acceptance uniforms — the scalar loop's draws,
        in its order."""
        m = plan.size
        if m == 0:
            return
        ctx = self.ctx
        reducer, bucket_hash, sign_hash = (
            ctx._reducer, ctx._bucket_hash, ctx._sign_hash
        )
        reduced_u = plan.unique_values(
            ("mod", reducer), lambda u: reducer.reduce_array(u)
        )
        buckets = plan.values(
            ("mod", reducer, bucket_hash),
            lambda u: bucket_hash.hash_array(reduced_u),
        )
        eff_signs = plan.values(
            ("mod", reducer, sign_hash),
            lambda u: sign_hash.hash_array(reduced_u),
        ) * plan.delta_signs
        mags = plan.abs_deltas
        t0 = self.t
        self.t = t0 + m
        changes = exponential_interval_changes(
            t0, m, ctx.s, self._current_window()
        )
        drive_interval_segments(
            m,
            changes,
            self._current_window(),
            lambda a, b: self._route_segment(a, b, buckets, eff_signs, mags),
            lambda wanted, t: self._sync_levels(wanted, t0 + t + 1),
        )

    def _route_segment(
        self,
        a: int,
        b: int,
        buckets: np.ndarray,
        eff_signs: np.ndarray,
        mags: np.ndarray,
    ) -> None:
        if a >= b:
            return
        for lvl in sorted(self._live):
            self._live[lvl].offer_batch(
                buckets[a:b], eff_signs[a:b], mags[a:b]
            )

    def consume(self, stream) -> "AlphaInnerProductSketch":
        return consume_stream(self, stream)

    def merge(self, other: "AlphaInnerProductSketch") -> "AlphaInnerProductSketch":
        """Fold a shard's sketch in via the rescaled-vector sum.

        All interval sketches over one shared context are CountSketch
        vectors under the *same* bucket/sign hashes, so their rescaled
        forms ``A / p`` add: the dot product of summed rescaled vectors
        expands into the pairwise shard estimates, each an unbiased
        Lemma 8 estimator of its sub-streams' contribution.  Each
        shard's oldest interval misses an ε-mass prefix of its own shard
        (Lemma 6 on the shard), so the merged estimate carries the union
        of those prefixes as its additive error — the same envelope as a
        single pass up to the shard count.  Requires value-equal shared
        randomness (same prime, bucket hash, and sign hash).
        """
        octx = other.ctx
        if (
            not isinstance(other, AlphaInnerProductSketch)
            or octx.n != self.ctx.n
            or octx.k != self.ctx.k
            or octx.s != self.ctx.s
            or octx.prime != self.ctx.prime
            or octx._bucket_hash != self.ctx._bucket_hash
            or octx._sign_hash != self.ctx._sign_hash
        ):
            raise ValueError("sketches do not share the Theorem 2 context")
        vec, rate = other.final_vector_and_rate()
        contribution = np.asarray(vec, dtype=np.float64) / rate
        if self._merged_rescaled is None:
            self._merged_rescaled = contribution.copy()
        else:
            self._merged_rescaled += contribution
        return self

    def final_vector_and_rate(self) -> tuple[np.ndarray, float]:
        """The oldest live interval's vector and its sampling rate; when
        shards have been merged in, their rescaled sum rides along (the
        returned vector is then already rescaled, rate 1)."""
        oldest = min(self._live.values(), key=lambda sk: sk.birth)
        if self._merged_rescaled is None:
            return oldest.vector, min(1.0, oldest.rate)
        own = oldest.vector.astype(np.float64) / min(1.0, oldest.rate)
        return own + self._merged_rescaled, 1.0

    def space_bits(self) -> int:
        vectors = sum(sk.space_bits() for sk in self._live.values())
        if self._merged_rescaled is not None:
            vectors += 64 * self.ctx.k  # merged rescaled accumulator
        # Position is tracked to within the interval schedule; the paper
        # stores log(n)-bit position (Figure 2) — charge it.
        return vectors + max(1, self.t.bit_length())
