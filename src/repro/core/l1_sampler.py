"""αL1Sampler: precision sampling for strong α-property streams (Fig. 3).

Return index i with probability ``(1 ± ε) |f_i| / ‖f‖_1`` plus an
O(ε)-relative-error estimate of ``f_i``, in
``O(ε⁻¹ log(1/ε) log n log(α log n / ε) log(1/δ))`` bits — replacing the
``log² n`` of the turnstile sampler.

Mechanism (Section 4): scale every coordinate by ``1/t_i`` with
``O(log(1/ε))``-wise independent uniform ``t_i`` (precision sampling [38]);
the scaled stream ``z`` still has the α-property **because f has the
strong α-property** (any coordinate-wise scaling preserves it) — this is
why the guarantee needs Definition 2.  Run a CSSS on z, output the maximal
``|y*_i|`` when it crosses ``‖f‖_1 / ε``, and abort when the Lemma 5 tail
estimate v or the max-candidate weight show the CSSS error could have
corrupted the decision (Recovery step 4).  Exact counters r = ‖f‖₁ and
q = ‖z‖₁ are available in the strict turnstile model.
"""

from __future__ import annotations

import numpy as np

from repro.batch import as_update_arrays, exact_sum, running_sum_extrema, consume_stream
from repro.core.csss import CSSSWithTailEstimate
from repro.core.schedules import PrecisionSamplingSchedule
from repro.hashing.kwise import UniformScalars
from repro.space.accounting import counter_bits


class AlphaL1Sampler:
    """One precision-sampling attempt (success probability Θ(ε)).

    Parameters
    ----------
    n:
        Universe size.
    eps:
        Relative error of the sampler.
    alpha:
        Strong α-property bound of the input stream.
    rng:
        Randomness source.
    k_constant:
        CSSS column parameter ``k = O(log(1/ε))`` multiplier.
    sensitivity:
        CSSS additive sensitivity ε'; the paper sets ``ε³/log²(n)``, we
        default to ``eps/8`` (practical; the benchmark sweeps confirm the
        distributional guarantee).
    abort_factor:
        Looseness of the Recovery-step-4 abort thresholds.
    """

    def __init__(
        self,
        n: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        k_constant: float = 2.0,
        sensitivity: float | None = None,
        sample_budget: int | None = None,
        depth: int | None = None,
        abort_factor: float = 4.0,
        sampling_seed=None,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        self.n = int(n)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.k = max(2, int(np.ceil(k_constant * np.log2(1.0 / eps + 1.0))))
        sens = sensitivity if sensitivity is not None else eps / 8.0
        self.csss = CSSSWithTailEstimate(
            n,
            k=self.k,
            eps=sens,
            alpha=alpha,
            rng=rng,
            depth=depth,
            sample_budget=sample_budget,
            sampling_seed=sampling_seed,
        )
        self._t = UniformScalars(n, rng, k=max(4, self.k))
        self._schedule = PrecisionSamplingSchedule(self._t)
        self.abort_factor = float(abort_factor)
        self.r = 0  # exact ||f||_1 (strict turnstile)
        self.q = 0  # exact ||z||_1 on the fixed-point grid
        self._max_q = 0

    def _inv_t(self, item: int) -> int:
        """Fixed-point ``round(1/t_i)`` — keeps CSSS counters integral."""
        return self._schedule.weight(item)

    def update(self, item: int, delta: int) -> None:
        w = self._inv_t(item)
        self.csss.update(item, delta * w)
        self.r += delta
        self.q += delta * w
        self._max_q = max(self._max_q, abs(self.q))

    def update_batch(self, items, deltas) -> None:
        """Batch update through the precision-sampling schedule.

        The per-key scaling weights are evaluated vectorised and the
        chunk is split into int64-safe spans
        (:meth:`repro.core.schedules.PrecisionSamplingSchedule.
        scaled_spans`): each safe span feeds the CSSS pair as one batch
        with exact ``r``/``q`` cumsum folds (the running ``|q|`` peak
        needs every intermediate value), while the rare updates whose
        scaled magnitude would overflow int64 take the per-update path
        so the ``r``/``q`` accounting stays exact on Python ints.  Both
        sub-paths are bit-identical to the scalar loop, so any mix of
        them is too.  Note the span split protects the *bookkeeping*,
        not the sketch: a single scaled update beyond int64 still
        exceeds what CSSS's int64 cells can absorb (true of every update
        path, scalar included) — the structure's counters are budgeted
        far below that by construction.
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        if items_arr.size == 0:
            return
        for kind, a, b, payload in self._schedule.scaled_spans(
            items_arr, deltas_arr
        ):
            if kind == "scalar":
                item = int(items_arr[a])
                self.csss.update(item, payload)
                self.r += int(deltas_arr[a])
                self.q += payload
                self._max_q = max(self._max_q, abs(self.q))
            else:
                self.csss.update_batch(items_arr[a:b], payload)
                self.r += exact_sum(deltas_arr[a:b])
                self.q, peak = running_sum_extrema(self.q, payload)
                self._max_q = max(self._max_q, peak)

    def merge(self, other: "AlphaL1Sampler") -> "AlphaL1Sampler":
        """Fold a same-seeded sibling in: the CSSS pair merges by rate
        alignment, the exact ``r``/``q`` counters add, and the running
        ``|q|`` peaks take the max (each shard's peak genuinely occurred
        on its sub-stream).  Requires value-equal precision scalars —
        every shard must scale item ``i`` by the same ``1/t_i``."""
        if (
            not isinstance(other, AlphaL1Sampler)
            or other.n != self.n
            or other._t != self._t
        ):
            raise ValueError("samplers do not share precision scalars")
        self.csss.merge(other.csss)
        self.r += other.r
        self.q += other.q
        self._max_q = max(self._max_q, other._max_q, abs(self.q))
        return self

    def consume(self, stream) -> "AlphaL1Sampler":
        return consume_stream(self, stream)

    def sample(self) -> tuple[int, float] | None:
        """Return ``(item, f_hat)`` or None (FAIL).

        Implements Recovery steps 1-4 of Figure 3: find the maximal
        ``|y*_i|``; abort if the maximum fails both the ``r/ε``
        threshold and the ``Ω(ε² q / polylog)`` heaviness check, or the
        tail-error estimate v is too large relative to ``√k (r + ε q)``.
        Both aborts return None and touch no state, so the cheap check
        goes first; the one universe scan feeds both the argmax and v.
        """
        if self.r <= 0:
            return None
        estimates = self.csss.query_all(np.arange(self.n))
        best = int(np.argmax(np.abs(estimates)))
        y_best = float(estimates[best])

        threshold = self.r / self.eps
        heaviness = 0.5 * (self.eps**2 / max(1.0, np.log2(self.n)) ** 2) * self.q
        if abs(y_best) < max(threshold, heaviness):
            return None
        v = self.csss.tail_error_estimate(float(self.q), estimates)
        sqrt_k = float(np.sqrt(self.k))
        sens = self.csss.main.eps
        if v > self.abort_factor * (sqrt_k * self.r + sqrt_k * sens * self.q):
            return None
        t_best = self._t(best)
        return best, y_best * t_best

    def space_bits(self) -> int:
        return (
            self.csss.space_bits()
            + self._t.space_bits()
            + counter_bits(max(1, abs(self.r)))
            + counter_bits(max(1, self._max_q))
        )


class AlphaL1MultiSampler:
    """``O(ε⁻¹ log(1/δ))`` independent attempts; first success wins.

    This is the Theorem 5 amplification: a single attempt outputs an index
    with probability Θ(ε); running ``copies`` attempts in parallel and
    returning the first non-FAIL result gives failure probability δ while
    keeping every attempt's distributional guarantee.
    """

    def __init__(
        self,
        n: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        copies: int | None = None,
        delta: float = 0.25,
        **sampler_kwargs,
    ) -> None:
        if copies is None:
            copies = max(1, int(np.ceil((1.0 / eps) * np.log(1.0 / delta))))
        self.samplers = [
            AlphaL1Sampler(n, eps, alpha, rng, **sampler_kwargs)
            for _ in range(copies)
        ]

    @property
    def n(self) -> int:
        """The universe, every attempt's."""
        return self.samplers[0].n

    def update(self, item: int, delta: int) -> None:
        for s in self.samplers:
            s.update(item, delta)

    def update_batch(self, items, deltas) -> None:
        """Composed batch update: attempts sample from independent
        generators, so chunk-major feeding equals the scalar interleave."""
        for s in self.samplers:
            s.update_batch(items, deltas)

    def merge(self, other: "AlphaL1MultiSampler") -> "AlphaL1MultiSampler":
        """Merge attempt-wise (same-seeded siblings pair up in order)."""
        if not isinstance(other, AlphaL1MultiSampler) or len(
            other.samplers
        ) != len(self.samplers):
            raise ValueError("multi-samplers are not shard-compatible")
        for mine, theirs in zip(self.samplers, other.samplers):
            mine.merge(theirs)
        return self

    def consume(self, stream) -> "AlphaL1MultiSampler":
        return consume_stream(self, stream)

    def sample(self) -> tuple[int, float] | None:
        for s in self.samplers:
            out = s.sample()
            if out is not None:
                return out
        return None

    def space_bits(self) -> int:
        return sum(s.space_bits() for s in self.samplers)
