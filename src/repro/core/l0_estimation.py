"""L0 estimation for α-property streams (Section 6, Figure 7).

The unbounded-deletion KNW estimator (Figure 6) keeps all ``log n``
subsampling rows because the final L0 could land anywhere.  For an L0
α-property stream the sequence ``F0^t`` of distinct-touched counts is
non-decreasing and sandwiched in ``[L0^t, α L0]``, so a running O(1)-factor
estimate of F0 pins the final useful row index within a window of width
``O(log(α/ε))`` — those are the only rows ever stored (Figure 7), cutting
the row factor from log(n) to log(α/ε).

Components:

* :class:`AlphaRoughL0Estimate` — Corollary 2: wraps the rough F0
  estimator into non-decreasing estimates ``R^t ∈ [L0^t, 8 α L0]``.
* :class:`AlphaConstL0Estimator` — Lemma 20: the constant-factor L0
  estimator with only ``O(log α)`` live lsb-levels, steered by the same
  rough F0 estimates.
* :class:`AlphaL0Estimator` — Figure 7: the (1 ± ε) estimator holding a
  sliding window of KNW rows, combined with the small-L0 machinery
  (Lemmas 17 & 19).

Both run their baseline's machinery from :mod:`repro.sketches.knw_l0`
(Lemma 14's ``level_scan``, Figure 6's ``_KNWTable``) on what they store.

A stored row only accumulates updates from its creation time ``t_j``
onward; Theorem 10's argument shows the missed prefix carries an O(ε²)
fraction of the final L0 — our tests verify this end-to-end.
"""

from __future__ import annotations

import numpy as np

from repro.batch import (
    as_update_arrays,
    consume_stream,
    mod_scatter_add,
    scaled_mod_increments,
)
from repro.core.schedules import windowed_segments
from repro.hashing.kwise import PairwiseHash
from repro.hashing.modhash import capped_lsb, lsb_array
from repro.sketches.knw_l0 import (
    ExactSmallL0,
    RoughF0Estimator,
    _KNWTable,
    level_scan,
)
from repro.streams.plan import ChunkPlan


class AlphaRoughL0Estimate:
    """Corollary 2: non-decreasing ``R^t ∈ [L0^t, 8 α L0]`` w.h.p.

    Since ``L0^t <= F0^t <= F0 <= α L0`` for an L0 α-property stream, any
    F0 estimator with ``F̃0^t ∈ [F0^t, 8 F0^t]`` satisfies the corollary.
    The guarantee only kicks in once ``F0^t >= ~log n / log log n``; the
    floor value covers the early stream exactly as Section 6.3 prescribes.
    """

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = int(n)
        self._f0 = RoughF0Estimator(n, rng)
        log_n = max(2.0, np.log2(self.n))
        self.floor = max(8.0, log_n / max(1.0, np.log2(log_n)))

    def update(self, item: int, delta: int) -> None:
        self._f0.update(item, delta)

    def update_batch(self, items, deltas) -> None:
        self._f0.update_batch(items, deltas)

    @property
    def kmv_hash(self):
        """The KMV hash, for consumers that interleave the rough estimate
        with their own per-update state machine: evaluate it vectorised
        (``hash_array``, or as a value-equal plan cache key) and fold the
        values with :meth:`observe_hash`."""
        return self._f0._h

    def observe_hash(self, hv: int) -> None:
        """Fold one precomputed KMV hash value (see :attr:`kmv_hash`)."""
        self._f0._observe(hv)

    def fold_candidates(self, hash_values: np.ndarray) -> np.ndarray:
        """Indices whose fold could change the KMV state (superset).

        Everything else is a provably-no-op fold, so the running estimate
        — and therefore any estimate-steered window — is constant between
        consecutive candidates.  This is what lets the αL0 batch paths
        route whole inter-candidate segments as arrays.
        """
        return self._f0.fold_candidates(hash_values)

    def would_change(self, hv: int) -> bool:
        """Dynamic no-op check for one candidate (see
        :meth:`~repro.sketches.knw_l0.RoughF0Estimator.would_change`)."""
        return self._f0.would_change(hv)

    def merge(self, other: "AlphaRoughL0Estimate") -> "AlphaRoughL0Estimate":
        """Fold a same-seeded sibling in (delegates to the KMV merge,
        which is bit-identical to a single-pass replay)."""
        if not isinstance(other, AlphaRoughL0Estimate) or other.n != self.n:
            raise ValueError("estimates are not shard-compatible")
        self._f0.merge(other._f0)
        return self

    def estimate(self) -> float:
        return max(self.floor, self._f0.estimate())

    def space_bits(self) -> int:
        return self._f0.space_bits()


class AlphaConstL0Estimator:
    """Lemma 20: O(1)-factor L0 estimation with O(log α) live levels.

    ``update_batch`` uses segmented array routing: the level window can
    only move when the rough F0 estimate moves, which can only happen at
    KMV *fold candidates* (:meth:`AlphaRoughL0Estimate.fold_candidates`).
    Between consecutive candidates the live-level set is constant, so
    whole segments are routed to levels as arrays; level churn (which
    constructs fresh ``ExactSmallL0`` instances, drawing hash seeds from
    the shared generator) happens at exactly the same stream positions
    as in the scalar loop, keeping the state bit-identical.

    The structure of :class:`~repro.sketches.knw_l0.RoughL0Estimator`
    (one ExactSmallL0 per lsb level, decoded by
    :func:`~repro.sketches.knw_l0.level_scan`), but a level is only
    *instantiated* while its index lies in
    ``log2(R^t) ± (2 log2(α/ε) + slack)``, where R^t comes from
    :class:`AlphaRoughL0Estimate`.  Space:
    ``O(log α · log log n + log n)`` bits.
    """

    def __init__(
        self,
        n: int,
        alpha: float,
        rng: np.random.Generator,
        eps: float = 0.5,
        window_constant: float = 1.0,
        window_slack: int = 2,
        trials: int = 3,
    ) -> None:
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.n = int(n)
        self.alpha = float(alpha)
        self.log_n = max(1, int(np.ceil(np.log2(self.n))))
        # The paper keeps levels within +/- 2 log2(alpha/eps); the factor 2
        # is a proof constant, exposed here as window_constant (default 1,
        # same O(log(alpha/eps)) functional form).
        self.half_window = (
            int(np.ceil(window_constant * np.log2(max(2.0, alpha / eps))))
            + window_slack
        )
        self._rng = rng
        self._h = PairwiseHash(self.n, self.n, rng)
        self._rough = AlphaRoughL0Estimate(n, rng)
        self._trials = trials
        self._levels: dict[int, ExactSmallL0] = {}
        # Materialise the initial window now (as AlphaL0Estimator does):
        # the batch path only re-syncs when the window *moves*, so the
        # levels must already exist for the pre-first-move prefix.
        self._sync_levels()

    def _window_for(self, r_t: float) -> range:
        center = int(np.round(np.log2(max(1.0, r_t))))
        lo = max(0, center - self.half_window)
        hi = min(self.log_n, center + self.half_window)
        return range(lo, hi + 1)

    def _sync_levels(self) -> None:
        wanted = self._window_for(self._rough.estimate())
        for j in wanted:
            if j not in self._levels:
                self._levels[j] = ExactSmallL0(
                    self.n, c=132, rng=self._rng, trials=self._trials
                )
        for j in list(self._levels):
            if j not in wanted:
                del self._levels[j]

    def update(self, item: int, delta: int) -> None:
        self._rough.update(item, delta)
        self._sync_levels()
        j = capped_lsb(self._h(item), self.log_n)
        if j in self._levels:
            self._levels[j].update(item, delta)

    def _route_segment(
        self,
        items_arr: np.ndarray,
        deltas_arr: np.ndarray,
        levels: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        """Feed updates ``[start, stop)`` to the (constant) live levels."""
        if start >= stop:
            return
        seg = levels[start:stop]
        for j, level in self._levels.items():
            mask = seg == j
            if mask.any():
                level.update_batch(
                    items_arr[start:stop][mask], deltas_arr[start:stop][mask]
                )

    def update_batch(self, items, deltas) -> None:
        """Segmented batch update, bit-identical to the scalar loop.

        One vectorised pass computes the KMV hash values and the lsb
        level of every update.  The chunk is then walked candidate-to-
        candidate: each inter-candidate segment is routed to the live
        levels as arrays (level updates commute within a segment — the
        levels' own batch paths are order-exact), and at each candidate
        the rough estimate is folded and the level window re-synced,
        constructing/retiring levels at exactly the scalar stream
        positions (so shared-generator seed draws happen in the same
        order).
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        if items_arr.size == 0:
            return
        hvs = self._rough.kmv_hash.hash_array(items_arr)
        levels = lsb_array(self._h.hash_array(items_arr), cap=self.log_n)
        window_fn = lambda: self._window_for(self._rough.estimate())  # noqa: E731
        for a, b in windowed_segments(self._rough, hvs, window_fn):
            # Flush each constant-window segment, then sync (seed draws
            # for new levels happen at exactly the scalar position).
            self._route_segment(items_arr, deltas_arr, levels, a, b)
            self._sync_levels()

    def consume(self, stream) -> "AlphaConstL0Estimator":
        return consume_stream(self, stream)

    def estimate(self) -> float:
        """Lemma 14's level scan over the live levels."""
        return level_scan(self._levels)

    def space_bits(self) -> int:
        live = sum(l.space_bits() for l in self._levels.values())
        return live + self._h.space_bits() + self._rough.space_bits()


class AlphaL0Estimator(_KNWTable):
    """Figure 7: (1 ± ε) L0 estimation storing O(log(α/ε)) KNW rows.

    Parameters
    ----------
    n:
        Universe size.
    eps:
        Relative error target (K = ceil(1/ε²) buckets per row).
    alpha:
        L0 α-property bound.
    rng:
        Randomness source.
    window_slack:
        Extra rows kept on each side of ``log2(16 R^t / K)`` beyond the
        paper's ``2 log(4α/ε)``.
    """

    def __init__(
        self,
        n: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        window_constant: float = 1.0,
        window_slack: int = 1,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.n = int(n)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.K = max(4, int(np.ceil(1.0 / eps**2)))
        self.log_n = max(1, int(np.ceil(np.log2(self.n))))
        # Paper window: +/- 2 log2(4 alpha / eps); the leading 2 is a proof
        # constant, exposed as window_constant (default 1, same
        # O(log(alpha/eps)) functional form).
        self.half_window = (
            int(np.ceil(window_constant * np.log2(max(2.0, 4.0 * alpha / eps))))
            + window_slack
        )
        self._rng = rng
        k_ind = max(4, int(np.ceil(np.log2(1 / eps) + 1)))
        self._h1, self._h2, self._h3, self._h4, self.p, self._u = (
            self._draw_table(k_ind, rng))
        self._rough = AlphaRoughL0Estimate(n, rng)
        # Live rows: index -> bucket array (mod p).  Rows are created when
        # they enter the window (missing the prefix before creation; the
        # Theorem 10 analysis bounds that prefix's L0 contribution).
        self._rows: dict[int, np.ndarray] = {}
        # Small-L0 machinery (Lemma 17 / 19) — always cheap, always on.
        (self.K_small, self._h3_small, self.B_small,
         self._exact_small) = self._draw_small(k_ind, rng, alpha)
        self._sync_rows()

    # -- window management ----------------------------------------------------
    def _window(self) -> range:
        r_t = self._rough.estimate()
        center = int(np.round(np.log2(max(1.0, 16.0 * r_t / self.K))))
        lo = max(0, center - self.half_window)
        hi = min(self.log_n, center + self.half_window)
        return range(lo, hi + 1)

    def _sync_rows(self) -> None:
        wanted = self._window()
        for j in wanted:
            if j not in self._rows:
                self._rows[j] = np.zeros(self.K, dtype=np.int64)
        for j in list(self._rows):
            if j not in wanted:
                del self._rows[j]

    # -- updates ----------------------------------------------------------------
    def update(self, item: int, delta: int) -> None:
        self._rough.update(item, delta)
        self._sync_rows()
        j2 = self._h2(item)
        inc = (delta * int(self._u[self._h4(j2)])) % self.p
        row = capped_lsb(self._h1(item), self.log_n)
        if row in self._rows:
            col = self._h3(j2)
            self._rows[row][col] = (int(self._rows[row][col]) + inc) % self.p
        col_s = self._h3_small(j2)
        self.B_small[col_s] = (int(self.B_small[col_s]) + inc) % self.p
        self._exact_small.update(item, delta)

    def _route_segment(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        incs: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        """Scatter updates ``[start, stop)`` into the (constant) live
        rows; modular adds commute, so within-segment order is free."""
        if start >= stop:
            return
        seg_rows = rows[start:stop]
        for j, bucket_row in self._rows.items():
            mask = seg_rows == j
            if mask.any():
                mod_scatter_add(
                    bucket_row,
                    cols[start:stop][mask],
                    incs[start:stop][mask],
                    self.p,
                )

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    def update_plan(self, plan) -> None:
        """Segmented update with vectorised hashing and routing.

        Every item-keyed hash (the KMV halves, h1, h2, and h3/h4/h3-small
        over h2's outputs) runs once over the chunk's *unique* items —
        through the plan cache where keyed by an item hash — and the
        per-update columns are gathered back through the plan.  αL0 is
        not ℤ-linear as a whole (rows are born mid-chunk), so the deltas
        stay per update.

        The row window only moves when the rough estimate moves, which
        only happens at KMV fold candidates
        (:meth:`AlphaRoughL0Estimate.fold_candidates`) — so instead of
        walking every update, the chunk is walked candidate-to-candidate:
        each inter-candidate segment is scatter-added into the live rows
        in one vectorised pass per row, and the window is re-synced at
        exactly the scalar stream positions.  The collapsed small row
        and the exact small L0 absorb the whole chunk afterwards; they
        share no state with the rows, so the reordering is unobservable.
        """
        if plan.size == 0:
            return
        j2 = plan.unique_values(self._h2)
        rows = plan.gather(
            lsb_array(plan.unique_values(self._h1), cap=self.log_n)
        )
        cols = plan.gather(self._h3.hash_array(j2))
        incs = scaled_mod_increments(
            plan.deltas, plan.gather(self._u[self._h4.hash_array(j2)]),
            self.p,
        )
        hvs = plan.values(self._rough.kmv_hash)
        for a, b in windowed_segments(self._rough, hvs, self._window):
            # Flush each constant-window segment, then sync (row creation
            # happens at exactly the scalar stream position).
            self._route_segment(rows, cols, incs, a, b)
            self._sync_rows()
        mod_scatter_add(
            self.B_small, plan.gather(self._h3_small.hash_array(j2)), incs,
            self.p,
        )
        self._exact_small.update_plan(plan)

    def consume(self, stream) -> "AlphaL0Estimator":
        return consume_stream(self, stream)

    def merge(self, other: "AlphaL0Estimator") -> "AlphaL0Estimator":
        """Fold a same-seeded sibling's state in.

        All randomness in this estimator is drawn at construction (the
        hash family, the scaling vector ``u``, the small-L0 machinery),
        so same-factory shards are exactly mergeable component-wise: the
        KMV rough estimate merges bit-identically, modular row/bucket
        tables add mod p (rows live in only one shard keep their
        suffix), and the row window re-syncs to the merged estimate.
        Each shard's rows miss their shard-local creation prefix; the
        Theorem 10 argument bounds every such prefix's L0 contribution,
        so the merged decoder carries the same error envelope with the
        shard count as the constant.  The Lemma 21 structure's bound is
        checked with the seeds, so a sibling it would refuse (another α,
        or a snapshot from before the bound existed) is refused before
        any component merges.
        """
        if (
            not isinstance(other, AlphaL0Estimator)
            or other.n != self.n
            or other.K != self.K
            or other._exact_small.bound != self._exact_small.bound
            or other.p != self.p
            or other.half_window != self.half_window
            or not np.array_equal(other._u, self._u)
            or other._h1 != self._h1
            or other._h2 != self._h2
            or other._h3 != self._h3
            or other._h4 != self._h4
            or other._h3_small != self._h3_small
        ):
            raise ValueError("sketches do not share dimensions and seeds")
        self._rough.merge(other._rough)
        for j, row in other._rows.items():
            if j in self._rows:
                self._rows[j] = (self._rows[j] + row) % self.p
            else:
                self._rows[j] = row.copy()
        self._sync_rows()
        self.B_small = (self.B_small + other.B_small) % self.p
        self._exact_small.merge(other._exact_small)
        return self

    # -- queries ----------------------------------------------------------------
    def estimate(self) -> float:
        """Lemma 17's small-L0 paths, then the stored window's tail."""
        return self._decode(self._rows.items())

    def live_rows(self) -> list[int]:
        """Indices of currently stored rows (the O(log(α/ε)) window)."""
        return sorted(self._rows)

    def space_bits(self) -> int:
        return self._space_bits(len(self._rows), self._rough)
