"""L1 estimation for α-property streams (Section 5).

Two estimators:

* :class:`AlphaL1EstimatorStrict` — Figure 4.  Strict turnstile, (1 ± ε)
  with probability 1-δ in ``O(log(α/ε) + log(1/δ) + log log n)`` bits.
  A Morris counter paces exponentially growing sampling intervals
  ``I_j = [s^j, s^(j+2)]``; while the (estimated) position lies in I_j,
  updates are sampled at rate ``s^-j`` into a positive and a negative
  counter; at query time the *longest-running* pair is rescaled:
  ``s^-j* (c+ - c-)``.  Correctness rides on the Sampling Lemma (the
  rescaled signed sum estimates ``Σ_i f_i ± ε‖f̂‖₁`` for the suffix f̂,
  and the skipped prefix carries at most ε of the mass by the α-property).

* :class:`AlphaL1EstimatorGeneral` — Section 5.2 / Theorem 8.  General
  turnstile, ``O~(ε⁻² log α + log n)`` bits for strong α-property
  streams.  The [39] Cauchy sketch of Figure 5 is run with every
  coordinate ``y_i = (Af)_i`` replaced by a *sampled* fixed-point counter:
  updates ``Δ · A_{i,j}`` are thinned at a rate that retains poly(α/ε)
  samples, so counters need ``log(α log n/ε)`` bits instead of log n.
  The final estimate applies the median-of-cos formula to the rescaled
  counters.
"""

from __future__ import annotations

import numpy as np

from repro.batch import as_update_arrays, consume_stream, exact_sum
from repro.core.sampling import binomial_thin
from repro.core.schedules import (
    IntervalAcceptance,
    PacedCounterSchedule,
    drive_interval_segments,
    exponential_interval_changes,
    exponential_interval_window,
)
from repro.sketches.cauchy import _CauchyRow
from repro.space.accounting import counter_bits
from repro.streams.plan import ChunkPlan


class _SampledIntervalLevel(IntervalAcceptance):
    """One live interval ``I_j``: sampled signed counters at rate s^-j
    over an :class:`~repro.core.schedules.IntervalAcceptance` stream
    (level 0 samples at rate 1 and owns no generator)."""

    def __init__(
        self, j: int, rate: float, birth: int,
        rng: np.random.Generator | None,
    ) -> None:
        super().__init__(rate, rng)
        self.j = j
        self.birth = birth
        self.c_plus = 0
        self.c_minus = 0


class AlphaL1EstimatorStrict:
    """Figure 4: strict-turnstile (1 ± ε) L1 estimation.

    The Morris-paced interval schedule runs on
    :class:`~repro.core.schedules.PacedCounterSchedule` (one pacing
    uniform per update) and each live interval samples from its own
    spawned stream, so ``update_batch`` segments a chunk at the (rare)
    pacing bumps and folds each segment vectorised — bit-identical to
    the scalar loop at every chunk size.

    Parameters
    ----------
    alpha:
        L1 α-property bound.
    eps:
        Relative error target.
    rng:
        Randomness source.
    s:
        Interval base — the paper's ``s = O(α² δ⁻¹ log³(n)/ε²)``;
        defaults to ``ceil(s_constant α²/ε²)`` (the α²/ε² term is what
        the Sampling Lemma consumes; benchmarks sweep the constant).
    use_morris:
        Pace intervals with a Morris counter (the paper's choice, costing
        log log n bits) instead of an exact position counter.  Ablations
        flip this to isolate the Morris error contribution.
    """

    def __init__(
        self,
        alpha: float,
        eps: float,
        rng: np.random.Generator,
        s: int | None = None,
        s_constant: float = 64.0,
        use_morris: bool = True,
    ) -> None:
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        self.alpha = float(alpha)
        self.eps = float(eps)
        self._rng = rng
        self.s = (
            int(s)
            if s is not None
            else max(16, int(np.ceil(s_constant * alpha * alpha / (eps * eps))))
        )
        self.use_morris = bool(use_morris)
        self._pace = (
            PacedCounterSchedule(rng.spawn(1)[0]) if use_morris else None
        )
        self._morris = self._pace.counter if self._pace is not None else None
        self._t_exact = 0
        self._levels: dict[int, _SampledIntervalLevel] = {
            0: _SampledIntervalLevel(0, 1.0, 0, None)
        }
        self._max_counter = 0
        # Sum of merged shards' interval estimates (see merge()).
        self._merged_estimate = 0.0
        self._merged_shards = 0

    def _position_estimate(self) -> float:
        if self._pace is not None:
            return max(1.0, self._pace.estimate)
        return float(max(1, self._t_exact))

    def _levels_for(self, v: float) -> range:
        """Levels j with ``v ∈ I_j = [s^j, s^(j+2)]``."""
        return exponential_interval_window(v, self.s)

    def _current_window(self) -> range:
        keys = sorted(self._levels)
        return range(keys[0], keys[-1] + 1)

    def _sync_levels(self, wanted: range, birth: int) -> None:
        """Create/retire levels; new levels spawn their sampling stream
        from the shared generator at this exact stream position."""
        for j in wanted:
            if j not in self._levels:
                rate = min(1.0, float(self.s) ** (-j))
                child = self._rng.spawn(1)[0] if rate < 1.0 else None
                self._levels[j] = _SampledIntervalLevel(j, rate, birth, child)
        for j in list(self._levels):
            if j not in wanted:
                del self._levels[j]

    def update(self, item: int, delta: int) -> None:
        self._t_exact += 1
        if self._pace is not None:
            self._pace.advance()
        wanted = self._levels_for(self._position_estimate())
        self._sync_levels(wanted, self._t_exact)
        mag = abs(delta)
        for j in wanted:
            lvl = self._levels[j]
            kept = lvl.accept(mag)
            if kept:
                if delta > 0:
                    lvl.c_plus += kept
                else:
                    lvl.c_minus += kept
            peak = max(lvl.c_plus, lvl.c_minus)
            if peak > self._max_counter:
                self._max_counter = peak

    def _route_segment(
        self, a: int, b: int, mags: np.ndarray, positive: np.ndarray
    ) -> None:
        """Fold updates ``[a, b)`` (constant window) into every live
        level vectorised; exact Python-int folds keep the counters from
        wrapping where the scalar loop would not."""
        if a >= b:
            return
        seg_mags = mags[a:b]
        seg_pos = positive[a:b]
        for j in sorted(self._levels):
            lvl = self._levels[j]
            kept = lvl.accept_batch(seg_mags)
            cp = exact_sum(kept[seg_pos])
            cm = exact_sum(kept[~seg_pos])
            if cp:
                lvl.c_plus += cp
            if cm:
                lvl.c_minus += cm
            peak = max(lvl.c_plus, lvl.c_minus)
            if peak > self._max_counter:
                self._max_counter = peak

    def update_batch(self, items, deltas) -> None:
        """Segmented batch update, bit-identical to the scalar loop.

        The interval window can only move when the position estimate
        moves: at Morris pacing bumps (``advance_batch`` locates them
        from the chunk's block of pacing uniforms) or, under exact
        pacing, at analytically computed ``s^j`` crossings.  Between
        moves the live-level set is constant, so each segment folds into
        every level in one inverse-CDF pass over the level's own
        acceptance uniforms; counter sums within a segment commute, and
        level churn (including spawning a fresh level's sampling stream)
        happens at exactly the scalar stream positions.
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas)
        m = len(items_arr)
        if m == 0:
            return
        mags = np.abs(deltas_arr)
        positive = deltas_arr > 0
        t0 = self._t_exact
        self._t_exact = t0 + m
        if self._pace is not None:
            v0 = self._pace.v
            bumps = self._pace.advance_batch(m)
            changes = []
            for i, t in enumerate(bumps.tolist()):
                est = max(1.0, self._pace.estimate_at(v0 + i + 1))
                changes.append((t, self._levels_for(est)))
        else:
            changes = exponential_interval_changes(
                t0, m, self.s, self._current_window()
            )
        drive_interval_segments(
            m,
            changes,
            self._current_window(),
            lambda a, b: self._route_segment(a, b, mags, positive),
            lambda wanted, t: self._sync_levels(wanted, t0 + t + 1),
        )

    def consume(self, stream) -> "AlphaL1EstimatorStrict":
        return consume_stream(self, stream)

    def estimate(self) -> float:
        """``s^{j*} (c+_{j*} - c-_{j*})`` for the oldest live level, plus
        any merged shards' interval estimates."""
        j_star, lvl = min(
            self._levels.items(), key=lambda kv: kv[1].birth
        )
        own = (float(self.s) ** j_star) * (lvl.c_plus - lvl.c_minus)
        return own + self._merged_estimate

    def merge(self, other: "AlphaL1EstimatorStrict") -> "AlphaL1EstimatorStrict":
        """Fold a shard's estimator in by summing interval estimates.

        In the strict turnstile model ``‖f‖₁ = Σ_t Δ_t`` decomposes over
        contiguous shards of the stream, and each shard's longest-running
        interval estimates its shard's net delta sum to within
        ``ε``-mass (Sampling Lemma on the shard's gross weight, plus the
        α-property bound on the skipped prefix).  The merged estimate is
        therefore the sum of per-shard interval estimates — a different
        decomposition of the same quantity a single-pass estimator
        targets, with per-shard additive errors summing to the usual
        envelope.  Counters cannot be combined across shards (their
        rates are pinned to shard-local positions), so merging is an
        estimate-level fold; the merged object remains updatable on its
        own schedule.
        """
        if (
            not isinstance(other, AlphaL1EstimatorStrict)
            or other.s != self.s
            or other.eps != self.eps
            or other.alpha != self.alpha
            or other.use_morris != self.use_morris
        ):
            raise ValueError("estimators are not shard-compatible")
        self._merged_estimate += other.estimate()
        self._merged_shards += other._merged_shards + 1
        self._max_counter = max(self._max_counter, other._max_counter)
        return self

    def space_bits(self) -> int:
        counters = 2 * 2 * counter_bits(max(1, self._max_counter), signed=False)
        morris = self._morris.space_bits() if self._morris is not None else 0
        level_idx = 2 * max(1, max(self._levels).bit_length() if self._levels else 1)
        merged = 64 if self._merged_shards else 0
        return counters + morris + level_idx + merged


class AlphaL1EstimatorGeneral:
    """Theorem 8: general-turnstile (1 ± ε) L1 via sampled Cauchy counters.

    Parameters
    ----------
    n:
        Universe size.
    eps:
        Relative error target; ``r = ceil(rows_constant/ε²)`` main rows.
    alpha:
        (Strong) α-property bound; sets the per-row sample budget.
    rng:
        Randomness source.
    fixed_point_bits:
        Fractional bits of the fixed-point grid holding sampled
        ``Δ · A_{i,j}`` contributions (the paper's δ-precision from
        Lemma 12); 12 bits keeps discretisation far below sketch error.
    sample_budget:
        Retained absolute fixed-point mass per row before halving;
        default ``ceil(64 α²/ε²)`` — Lemma 13's poly(α/ε) with practical
        constants.
    sampling_seed:
        When given, the *thinning* stream (acceptance draws of
        :func:`~repro.core.sampling.binomial_thin`, counter halvings,
        and merge-time rate alignment) runs off
        ``default_rng(sampling_seed)`` instead of the constructor
        ``rng``.  Cauchy rows still come from ``rng``, so estimators
        built with the same ``rng`` seed but different ``sampling_seed``
        are mergeable *and* thin independently — the ROADMAP lever (c)
        shard-decorrelation knob, same pattern as
        :class:`repro.core.csss.CSSS`.
    """

    _CAUCHY_CLIP = 1e4  # tail clip: contributes O(1/clip) mass, see note

    def __init__(
        self,
        n: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        rows_constant: float = 6.0,
        calibration_rows: int = 16,
        fixed_point_bits: int = 12,
        sample_budget: int | None = None,
        sampling_seed=None,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.n = int(n)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.r = max(8, int(np.ceil(rows_constant / eps**2)))
        self.r_prime = int(calibration_rows)
        self.q = 1 << int(fixed_point_bits)
        self.budget = (
            sample_budget
            if sample_budget is not None
            else max(256, int(np.ceil(64.0 * alpha * alpha / (eps * eps))))
        )
        k_ind = max(4, int(np.ceil(np.log2(1 / eps))))
        # Rows are drawn from the caller's generator *before* the
        # thinning stream is rerooted, so same-`rng` estimators share
        # value-equal rows (mergeable) whatever their sampling_seed.
        self._rows = [_CauchyRow(n, k_ind, rng) for _ in range(self.r)]
        self._cal_rows = [_CauchyRow(n, k_ind, rng) for _ in range(self.r_prime)]
        self._rng = (
            rng if sampling_seed is None
            # repro: allow[rng-discipline] -- sampling_seed reroot: the
            # documented per-shard decorrelation seam (Params.sampling_seed)
            else np.random.default_rng(sampling_seed)
        )
        total = self.r + self.r_prime
        self.counters = np.zeros(total, dtype=np.int64)
        self.log2_inv_p = np.zeros(total, dtype=np.int64)
        self._weights = np.zeros(total, dtype=np.int64)
        self._max_abs = 0

    def _entry(self, row: int, item: int) -> float:
        if row < self.r:
            a = self._rows[row].entry(item)
        else:
            a = self._cal_rows[row - self.r].entry(item)
        # Clip the Cauchy tail: |A| > clip happens w.p. ~2/(pi*clip) per
        # entry and such entries would blow the fixed-point counters; the
        # estimator's median/cos pipeline is insensitive to the clip
        # because cos(y/y_med) only sees y through a bounded function.
        return float(np.clip(a, -self._CAUCHY_CLIP, self._CAUCHY_CLIP))

    def _row_update(
        self, row: int, item: int, delta: int, entry: float | None = None
    ) -> None:
        # Fixed-point magnitude of the scaled update (Lemma 12 precision).
        if entry is None:
            entry = self._entry(row, item)
        eta = entry * delta
        mag = int(round(abs(eta) * self.q))
        if mag == 0:
            return
        signed = mag if eta > 0 else -mag
        rate = 2.0 ** -int(self.log2_inv_p[row])
        kept = binomial_thin(signed, min(1.0, rate), self._rng)
        if kept == 0:
            return
        self.counters[row] += kept
        self._weights[row] += abs(kept)
        peak = abs(int(self.counters[row]))
        if peak > self._max_abs:
            self._max_abs = peak
        while self._weights[row] > self.budget * self.q:
            self._halve_counter(row)

    def _halve_counter(self, row: int) -> None:
        # Halve by binomial thinning of the counter's magnitude; the
        # counter is a signed sum of sampled grains, so thinning each
        # grain at 1/2 is equivalent to Bin on the absolute value
        # only when grains share a sign — we instead rethin the
        # *net* conservatively by halving (controlled bias << eps at
        # our budgets; grains of both signs cancel first).
        self.counters[row] = int(
            np.sign(self.counters[row])
        ) * int(self._rng.binomial(abs(int(self.counters[row])), 0.5))
        self.log2_inv_p[row] += 1
        self._weights[row] //= 2

    def update(self, item: int, delta: int) -> None:
        for row in range(self.r + self.r_prime):
            self._row_update(row, item, delta)

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    # Reads no summed view: the thinning stream draws once per
    # (row, update).
    def update_plan(self, plan) -> None:
        """Each row's hash/tan/clip entry pipeline — the dominant
        vectorised cost — runs once over the chunk's unique items
        (cached on a planned chunk, shared with value-equal rows of a
        same-seeded sibling or a :class:`~repro.sketches.cauchy.
        CauchyL1Sketch` sharing the generator); the thinning draws then
        run in the scalar order (item-major, rows inner), so the state
        matches the scalar loop bitwise, generator included."""
        total = self.r + self.r_prime
        entries = np.empty((total, plan.size), dtype=np.float64)
        for j, row in enumerate(self._rows + self._cal_rows):
            entries[j] = plan.values(row, row.entries)
        np.clip(entries, -self._CAUCHY_CLIP, self._CAUCHY_CLIP, out=entries)
        items = plan.items
        for t, delta in enumerate(plan.deltas.tolist()):
            item = int(items[t])
            for row in range(total):
                self._row_update(row, item, delta, entry=float(entries[row, t]))

    def consume(self, stream) -> "AlphaL1EstimatorGeneral":
        return consume_stream(self, stream)

    def merge(self, other: "AlphaL1EstimatorGeneral") -> "AlphaL1EstimatorGeneral":
        """Fold a same-seeded sibling in (CSSS-style rate alignment).

        Requires identical dimensions and Cauchy rows (by value — shards
        built by the same factory qualify).  Per row, the finer-rate
        counter is thinned down to the coarser rate (subsampling
        composes: ``diff`` halvings are one ``Bin(|c|, 2^-diff)``),
        counters and retained weights add, and the budget invariant is
        re-established — a valid sampled-Cauchy sketch of the
        concatenated streams at the coarser rate.
        """
        if (
            not isinstance(other, AlphaL1EstimatorGeneral)
            or other.n != self.n
            or other.r != self.r
            or other.r_prime != self.r_prime
            or other.q != self.q
            or other.budget != self.budget
            or other._rows != self._rows
            or other._cal_rows != self._cal_rows
        ):
            raise ValueError("sketches do not share dimensions and seeds")
        for row in range(self.r + self.r_prime):
            while self.log2_inv_p[row] < other.log2_inv_p[row]:
                self._halve_counter(row)
            diff = int(self.log2_inv_p[row] - other.log2_inv_p[row])
            c = int(other.counters[row])
            w = int(other._weights[row])
            if diff:
                c = int(np.sign(c)) * int(self._rng.binomial(abs(c), 0.5**diff))
                w >>= diff
            self.counters[row] += c
            self._weights[row] += w
            while self._weights[row] > self.budget * self.q:
                self._halve_counter(row)
        self._max_abs = max(
            self._max_abs,
            other._max_abs,
            int(np.abs(self.counters).max(initial=0)),
        )
        return self

    def _rescaled(self) -> tuple[np.ndarray, np.ndarray]:
        scale = (2.0 ** self.log2_inv_p.astype(np.float64)) / self.q
        vals = self.counters.astype(np.float64) * scale
        return vals[: self.r], vals[self.r :]

    def estimate(self) -> float:
        """Figure 5's median-of-cos estimator on the rescaled counters."""
        y, y_prime = self._rescaled()
        y_med = float(np.median(np.abs(y_prime)))
        if y_med == 0.0:
            return 0.0
        mean_cos = float(np.mean(np.cos(y / y_med)))
        mean_cos = min(1.0, max(mean_cos, 1e-12))
        return y_med * (-np.log(mean_cos))

    def space_bits(self) -> int:
        per = counter_bits(max(1, self._max_abs))
        rates = (self.r + self.r_prime) * max(
            1, int(self.log2_inv_p.max(initial=1)).bit_length()
        )
        seeds = sum(r.space_bits() for r in self._rows)
        seeds += sum(r.space_bits() for r in self._cal_rows)
        return (self.r + self.r_prime) * per + rates + seeds
