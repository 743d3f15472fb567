"""Sampling Lemma machinery (Lemma 1 / Lemma 13) and the Lemma 1 sample.

The engine behind every L1 result in the paper: for an α-property stream,
each coordinate sees at most ``α ‖f‖_1`` insertions and deletions, so a
uniform sample of ``poly(α/ε)`` updates preserves every ``f_i`` — after
rescaling — up to an additive ``ε ‖f‖_1`` (Lemma 1), and sums of updates
to a single virtual counter up to ``γ m`` (Lemma 13).

Because the stream length ``m`` is unknown in advance, the paper's data
structures sample at rate ``2^-p`` and *halve* their retained counters via
binomial thinning each time the sample budget overflows (Figure 2, step
5a); :class:`~repro.core.schedules.AdaptiveSamplingSchedule` runs that
schedule, and :class:`SampledFrequencies` is the Lemma 1 sample built on it.
Non-unit updates are folded in by binomial thinning of ``|Δ|`` trials
(Section 1.3, Remark 2) via :func:`binomial_thin`.
"""

from __future__ import annotations

import numpy as np

from repro.batch import as_update_arrays, consume_stream
from repro.space.accounting import counter_bits


def lemma1_sampling_probability(
    alpha: float, eps: float, m: int, delta: float = 0.01
) -> float:
    """The Lemma 1 theoretical rate ``p >= α² ε⁻³ log(1/δ) / m``.

    Exposed for documentation/ablation; at practical scale this often
    exceeds 1 (sample everything), which is precisely the paper's point —
    sampling only pays once ``m >> poly(α/ε)``.
    """
    if alpha < 1 or not 0 < eps < 1 or m < 1 or not 0 < delta < 1:
        raise ValueError("need alpha >= 1, eps in (0,1), m >= 1, delta in (0,1)")
    return min(1.0, alpha**2 * np.log(1.0 / delta) / (eps**3 * m))


#: Above this expected sample count the inverse-CDF walk switches to the
#: normal quantile (the walk is O(kept) and ``(1-p)^n`` risks underflow;
#: at np >= 512 with p <= 1/2 the normal approximation error is far below
#: sketch error).
_INVCDF_WALK_LIMIT = 512.0


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile (Acklam's rational approximation).

    Deterministic and monotone in ``u`` — all that the order-insensitive
    sampler needs from it (|error| < 1.15e-9, far below counter
    granularity after rounding).
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    out = np.empty_like(u)
    lo = u < 0.02425
    hi = u > 1.0 - 0.02425
    mid = ~(lo | hi)
    if lo.any():
        q = np.sqrt(-2.0 * np.log(u[lo]))
        out[lo] = (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - u[hi]))
        out[hi] = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if mid.any():
        q = u[mid] - 0.5
        r = q * q
        out[mid] = (
            ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        ) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    return out


def binomial_from_uniforms(
    u: np.ndarray, mags: np.ndarray, p: float
) -> np.ndarray:
    """Order-insensitive binomial sampling: ``Bin(mags[t], p)`` from one
    pre-drawn uniform ``u[t]`` per update, via the inverse CDF.

    This is the engine of the vectorised CSSS sampling schedule (Figure 2
    step 5a): because each update owns exactly one uniform, the *same*
    ``u[t]`` can be re-quantised at a halved rate when a budget overflow
    lands mid-chunk — no fresh randomness, so the consumed stream (and
    hence the sketch state) is identical for every chunking of the input.

    Per element: unit magnitudes map ``u < p`` (Bernoulli); small expected
    counts walk the binomial CDF (exact); large expected counts
    (``mags * p > 512``) use the rounded normal quantile, whose error is
    negligible at that scale.  Monotone in ``u`` and exact-in-law in the
    first two regimes.

    >>> import numpy as np
    >>> binomial_from_uniforms(np.array([0.1, 0.9]), np.array([1, 1]), 0.25)
    array([1, 0])
    >>> int(binomial_from_uniforms(np.array([0.5]), np.array([40]), 0.5)[0])
    20
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    u = np.asarray(u, dtype=np.float64)
    mags = np.asarray(mags, dtype=np.int64)
    kept = np.zeros(len(mags), dtype=np.int64)
    if p >= 1.0:
        kept[:] = mags
        return kept
    unit = mags == 1
    if unit.any():
        kept[unit] = (u[unit] < p).astype(np.int64)
    rest = np.nonzero(~unit & (mags > 0))[0]
    if rest.size == 0:
        return kept
    n_rest = mags[rest].astype(np.float64)
    big = n_rest * p > _INVCDF_WALK_LIMIT
    if big.any():
        idx = rest[big]
        n_b = mags[idx].astype(np.float64)
        mean = n_b * p
        sd = np.sqrt(n_b * p * (1.0 - p))
        approx = np.round(mean + sd * _norm_ppf(u[idx]))
        kept[idx] = np.clip(approx, 0.0, n_b).astype(np.int64)
        rest = rest[~big]
    if rest.size == 0:
        return kept
    # Inverse-CDF walk: k[t] = min{k : CDF_{Bin(mags[t], p)}(k) > u[t]},
    # via the pmf recurrence pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p).
    q = 1.0 - p
    n_act = mags[rest].astype(np.float64)
    pmf = q ** n_act
    cdf = pmf.copy()
    k = np.zeros(rest.size, dtype=np.int64)
    u_act = u[rest]
    active = np.nonzero((cdf <= u_act) & (k < mags[rest]))[0]
    while active.size:
        k_a = k[active].astype(np.float64)
        pmf[active] *= (n_act[active] - k_a) / (k_a + 1.0) * (p / q)
        cdf[active] += pmf[active]
        k[active] += 1
        sub = (cdf[active] <= u_act[active]) & (k[active] < mags[rest][active])
        active = active[sub]
    kept[rest] = k
    return kept


def binomial_from_uniform(u: float, mag: int, p: float) -> int:
    """Scalar companion of :func:`binomial_from_uniforms`.

    Quantises one pre-drawn uniform into ``Bin(mag, p)`` through the same
    inverse CDF, with the allocation-free Bernoulli fast path for unit
    magnitudes — bit-identical to the one-element array call, which is
    what keeps scalar `update` and vectorised `update_batch` consuming
    per-update uniforms interchangeably.

    >>> binomial_from_uniform(0.1, 1, 0.25), binomial_from_uniform(0.9, 1, 0.25)
    (1, 0)
    """
    if p >= 1.0:
        return mag
    if mag == 1:
        return 1 if u < p else 0
    return int(
        binomial_from_uniforms(
            np.array([u]), np.array([mag], dtype=np.int64), p
        )[0]
    )


def binomial_thin(delta: int, p: float, rng: np.random.Generator) -> int:
    """Sample an update of magnitude |delta| at rate p (Remark 2).

    Returns ``sign(delta) * Bin(|delta|, p)`` — the distributional
    equivalent of expanding the update into unit updates and sampling each
    independently.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if delta == 0:
        return 0
    mag = abs(delta)
    kept = mag if p >= 1.0 else int(rng.binomial(mag, p))
    return kept if delta > 0 else -kept


class SampledFrequencies:
    """A uniformly sampled frequency table with rescaled point queries.

    The adaptive rate-and-halving schedule runs on
    :class:`~repro.core.schedules.AdaptiveSamplingSchedule`: every
    update owns one acceptance uniform (quantised to ``Bin(|Δ|, rate)``
    through the binomial inverse CDF) and halving thins draw from a
    separate stream, so ``update_batch`` folds whole budget segments as
    arrays — bit-identical to the scalar loop at every chunk size.

    The direct object of Lemma 1: feed updates, each retained at the
    current rate; ``estimate(i)`` returns the rescaled sampled frequency
    ``f*_i`` with additive error ``ε ‖f‖_1`` once the retained budget is
    ``poly(α/ε)``.  Halves itself (binomial thinning of every counter)
    when the retained gross weight exceeds ``budget``, so the rate adapts
    to unknown stream length exactly as in Figure 2.  The tables hold
    only the retained entries, which is what :meth:`space_bits` charges.
    """

    def __init__(self, budget: int, rng: np.random.Generator) -> None:
        if budget < 1:
            raise ValueError("budget must be positive")
        self.budget = int(budget)
        # Local import: schedules.py imports the quantisers from this
        # module, so the schedule class is resolved lazily.
        from repro.core.schedules import AdaptiveSamplingSchedule

        accept_rng, self._halve_rng = rng.spawn(2)
        self._sched = AdaptiveSamplingSchedule(budget, accept_rng)
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}

    @property
    def log2_inv_p(self) -> int:
        return self._sched.log2_inv_p

    @property
    def rate(self) -> float:
        return self._sched.rate

    @property
    def _retained(self) -> int:
        return self._sched.weight

    def _retained_total(self) -> int:
        return sum(self._pos.values()) + sum(self._neg.values())

    def _halve(self) -> None:
        """Thin every counter at 1/2, in ascending item order, so the
        halving stream is consumed identically however the table was
        built."""
        for table in (self._pos, self._neg):
            keys = sorted(table)
            if not keys:
                continue
            counts = np.fromiter(
                (table[k] for k in keys), dtype=np.int64, count=len(keys)
            )
            kept = self._halve_rng.binomial(counts, 0.5)
            for key, c in zip(keys, kept.tolist()):
                if c:
                    table[key] = c
                else:
                    del table[key]
        self._sched.register_halving(self._retained_total())

    def update(self, item: int, delta: int) -> None:
        kept = self._sched.offer(abs(delta))
        if kept:
            if delta > 0:
                self._pos[item] = self._pos.get(item, 0) + kept
            else:
                self._neg[item] = self._neg.get(item, 0) + kept
        while self._sched.needs_halving():
            self._halve()

    def update_batch(self, items, deltas) -> None:
        """Segmented batch update, bit-identical to the scalar loop.

        The schedule quantises the chunk in one pass and yields budget
        segments; within a segment the retained magnitudes scatter into
        the tables by sign (integer adds commute), and an overflow
        closes the segment at exactly the scalar halving position before
        the tail is re-quantised at the new rate.
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas)
        if items_arr.size == 0:
            return
        mags = np.abs(deltas_arr)
        positive = deltas_arr > 0
        for a, b, kept in self._sched.accept_batch(mags):
            nz = kept > 0
            if nz.any():
                seg_items = items_arr[a:b][nz]
                seg_pos = positive[a:b][nz]
                seg_kept = kept[nz]
                uniq, inverse = np.unique(seg_items, return_inverse=True)
                if float(seg_kept.astype(np.float64).sum()) < 2.0**52:
                    # bincount's float64 sums are exact below 2^53; the
                    # retained weight is budget-bounded anyway, so this
                    # is the always-taken fast path in practice.
                    pos_sums = np.bincount(
                        inverse[seg_pos],
                        weights=seg_kept[seg_pos],
                        minlength=len(uniq),
                    ).astype(np.int64)
                    neg_sums = np.bincount(
                        inverse[~seg_pos],
                        weights=seg_kept[~seg_pos],
                        minlength=len(uniq),
                    ).astype(np.int64)
                else:
                    pos_sums = np.zeros(len(uniq), dtype=object)
                    neg_sums = np.zeros(len(uniq), dtype=object)
                    np.add.at(
                        pos_sums, inverse[seg_pos],
                        seg_kept[seg_pos].astype(object),
                    )
                    np.add.at(
                        neg_sums, inverse[~seg_pos],
                        seg_kept[~seg_pos].astype(object),
                    )
                for key, p, q in zip(
                    uniq.tolist(), pos_sums.tolist(), neg_sums.tolist()
                ):
                    if p:
                        self._pos[key] = self._pos.get(key, 0) + p
                    if q:
                        self._neg[key] = self._neg.get(key, 0) + q
            while self._sched.needs_halving():
                self._halve()

    def merge(self, other: "SampledFrequencies") -> "SampledFrequencies":
        """Fold a shard's table in by rate alignment (Figure 2 style).

        The finer-rate shard's counters are thinned down to the coarser
        rate (``diff`` halvings compose into one ``Bin(c, 2^-diff)``),
        tables add, and the budget invariant is re-established — a valid
        Lemma 1 sample of the concatenated streams at the coarser rate.
        """
        if (
            not isinstance(other, SampledFrequencies)
            or other.budget != self.budget
        ):
            raise ValueError("samplers are not shard-compatible")
        while self._sched.log2_inv_p < other._sched.log2_inv_p:
            self._halve()
        diff = self._sched.log2_inv_p - other._sched.log2_inv_p
        for table, otable in (
            (self._pos, other._pos), (self._neg, other._neg)
        ):
            for key in sorted(otable):
                c = otable[key]
                if diff:
                    c = int(self._halve_rng.binomial(c, 0.5**diff))
                if c:
                    table[key] = table.get(key, 0) + c
        self._sched.weight = self._retained_total()
        while self._sched.needs_halving():
            self._halve()
        return self

    def consume(self, stream) -> "SampledFrequencies":
        return consume_stream(self, stream)

    def estimate(self, item: int) -> float:
        """Rescaled ``f*_i`` (Lemma 1)."""
        return (self._pos.get(item, 0) - self._neg.get(item, 0)) / self.rate

    def sum_estimate(self) -> float:
        """Rescaled ``sum_i f*_i`` (the final statement of Lemma 1)."""
        raw = sum(self._pos.values()) - sum(self._neg.values())
        return raw / self.rate

    def sampled_items(self) -> set[int]:
        return set(self._pos) | set(self._neg)

    def space_bits(self) -> int:
        # Each retained entry: item id (log n not known here; charge the
        # id at its own bit-length) + counter at observed width.
        bits = 0
        for table in (self._pos, self._neg):
            for item, count in table.items():
                bits += max(1, int(item).bit_length()) + counter_bits(
                    count, signed=False
                )
        bits += max(1, self.log2_inv_p.bit_length())  # the exponent p
        return bits
