"""CountSketch (Charikar-Chen-Farach-Colton [14]; paper Lemma 2).

A ``d x w`` table; row i hashes each item with a 4-wise ``h_i: [n] -> [w]``
and a 4-wise sign ``g_i: [n] -> {-1,+1}``; the point-query estimate of
``f_j`` is the median over rows of ``g_i(j) * A[i, h_i(j)]``.  Lemma 2: one
row errs by more than ``Err_2^k(f) / sqrt(k)`` with probability < 1/3 when
``w = 6k``; the median over ``d = O(log n)`` rows is then correct for all
items w.h.p.  Space is ``O(k log^2 n)`` bits — the log(n) counter width is
exactly what the paper's CSSS replaces with log(α · poly log n / eps).

This implementation is also the building block for the unbounded-deletion
baselines of the L1 sampler and the L2 norm estimator (Lemma 4).
"""

from __future__ import annotations

import numpy as np

import repro.kernels as _kernels
from repro.batch import as_update_arrays, consume_stream, exact_sum
from repro.hashing.kwise import FourWiseHash, SignHash
from repro.space.accounting import counter_bits


def median_scan_survivors(n, bucket_hashes, magnitudes, threshold) -> np.ndarray:
    """Items of ``[0, n)`` whose median-of-rows estimate can still reach
    ``threshold`` in magnitude, ascending: the exact pruned universe scan.

    ``magnitudes[r, b]`` is the float64 value, up to sign, that the
    caller's ``query_all`` puts in its estimate matrix for an item in
    row ``r``'s bucket ``b``.  The caller runs ``query_all`` on the
    survivors and keeps those at or above the threshold, which equals a
    full universe scan:

    - over ``d`` rows, ``|median| >= T`` needs ``ceil(d/2)`` rows whose
      magnitude reaches ``T`` (odd ``d``: the middle value and every
      value beyond it; even ``d``: the outer middle value and every
      value beyond it);
    - two float64 values below ``T`` sum to at most ``2·pred(T)`` and
      halving is exact, so rounding cannot lift a pruned item's median
      to ``T``, even where the magnitudes are themselves rounded
      (CountSketch cells above ``2^53``);
    - a row hit needs only the bucket hash, and a row with no cell at
      ``T`` cannot hit.

    A row's magnitudes sum to about the sketched L1 mass ``R``, so at
    most ``R/T`` of its cells reach ``T``; no item can leave before row
    ``d - ceil(d/2) + 1``, and few outlive it.
    """
    need = (len(bucket_hashes) + 1) // 2
    marked = magnitudes >= threshold
    rows = np.flatnonzero(marked.any(axis=1))
    if len(rows) < need:
        return np.empty(0, dtype=np.int64)
    items = np.arange(n, dtype=np.int64)
    hits = np.zeros(n, dtype=np.int32)
    for left, r in zip(range(len(rows) - 1, -1, -1), rows):
        hits += marked[r][bucket_hashes[r].hash_array(items)]
        # Until ``need - left`` turns positive no item can fall short.
        if need - left > 0:
            alive = hits >= need - left
            items, hits = items[alive], hits[alive]
            if items.size == 0:
                break
    return items


class CountSketch:
    """Classic CountSketch over universe ``[n]``.

    Parameters
    ----------
    n:
        Universe size.
    width:
        Buckets per row (the paper's ``6k``).
    depth:
        Number of rows (``O(log n)`` for w.h.p. guarantees).
    rng:
        Randomness source for the hash seeds.
    """

    def __init__(
        self, n: int, width: int, depth: int, rng: np.random.Generator
    ) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be positive")
        self.n = int(n)
        self.width = int(width)
        self.depth = int(depth)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self._bucket_hashes = [FourWiseHash(n, width, rng) for _ in range(depth)]
        self._sign_hashes = [SignHash(n, rng, k=4) for _ in range(depth)]
        self._max_abs_counter = 0
        self._gross_weight = 0

    def update(self, item: int, delta: int) -> None:
        """Apply stream update ``(item, delta)``."""
        self._gross_weight += abs(delta)
        for r in range(self.depth):
            b = self._bucket_hashes[r](item)
            self.table[r, b] += self._sign_hashes[r](item) * delta

    def update_batch(self, items, deltas) -> None:
        """Vectorised batch update: per row, one array hash evaluation and
        one scatter-add.  Integer adds commute, so the final table equals
        the scalar update loop exactly."""
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        self._gross_weight += exact_sum(np.abs(deltas_arr))
        if _kernels.try_table_update(self.table, self._bucket_hashes,
                                     self._sign_hashes, items_arr,
                                     deltas_arr):
            return
        for r in range(self.depth):
            buckets = self._bucket_hashes[r].hash_array(items_arr)
            signed = self._sign_hashes[r].hash_array(items_arr) * deltas_arr
            np.add.at(self.table[r], buckets, signed)

    # The table is ℤ-linear in the updates: duplicate items within a
    # chunk coalesce to one (item, summed-delta) pair bit-identically.
    def update_plan(self, plan) -> None:
        """Planned batch update: hash the chunk's *unique* items (one
        cached evaluation per hash function, shared with any value-equal
        consumer of the same plan) and scatter-add per-item summed
        deltas — bit-identical to :meth:`update_batch` by linearity."""
        self._apply_plan(plan, signed=True)

    def _apply_plan(self, plan, signed: bool) -> None:
        """Shared plan fold; ``signed=False`` feeds the insertion-only
        image ``|Δ|`` instead (the L2 heavy hitters candidate sketch)."""
        if not plan.coalesce_safe:
            deltas = plan.deltas if signed else np.abs(plan.deltas)
            self.update_batch(plan.items, deltas)
            return
        self._gross_weight += plan.gross_weight
        if signed:
            sums = plan.summed_deltas
            nz = plan.nonzero_sums
        else:
            sums = plan.summed_magnitudes  # > 0: nothing cancels
            nz = None
        # Fused kernel over the coalesced view: zero sums pass straight
        # through (adding zero is the identity), so the table matches
        # the nz-masked scatter below bit for bit.
        if _kernels.try_table_update(self.table, self._bucket_hashes,
                                     self._sign_hashes, plan.unique_items,
                                     sums):
            return
        # The filtered sum view is row-invariant — compute it once, not
        # per row (the per-row fancy-index copies only exist for the
        # buckets/signs, which genuinely differ by row).
        sums_nz = sums if nz is None else sums[nz]
        for r in range(self.depth):
            buckets = plan.unique_values(self._bucket_hashes[r])
            signs = plan.unique_values(self._sign_hashes[r])
            if nz is None:
                np.add.at(self.table[r], buckets, signs * sums_nz)
            else:
                np.add.at(self.table[r], buckets[nz], signs[nz] * sums_nz)

    def consume(self, stream) -> "CountSketch":
        """Feed every update of a stream; returns self for chaining."""
        return consume_stream(self, stream)

    def query(self, item: int) -> int:
        """Point query: median-of-rows estimate of ``f_item``."""
        estimates = np.empty(self.depth, dtype=np.int64)
        for r in range(self.depth):
            b = self._bucket_hashes[r](item)
            estimates[r] = self._sign_hashes[r](item) * self.table[r, b]
        return int(np.median(estimates))

    def query_all(self, items: np.ndarray | list[int]) -> np.ndarray:
        """Vectorised point queries for many items."""
        items_arr = np.asarray(items, dtype=np.int64)
        est = np.empty((self.depth, len(items_arr)), dtype=np.int64)
        for r in range(self.depth):
            buckets = self._bucket_hashes[r].hash_array(items_arr)
            signs = self._sign_hashes[r].hash_array(items_arr)
            est[r] = signs * self.table[r, buckets]
        return np.median(est, axis=0).astype(np.int64)

    def row_l2_estimate(self, row: int = 0) -> float:
        """``(sum_b A[row,b]^2)^(1/2)``, a (1 ± O(w^-1/2)) estimate of
        ``‖f‖_2`` (Lemma 4)."""
        vals = self.table[row].astype(np.float64)
        return float(np.sqrt((vals**2).sum()))

    def l2_estimate(self) -> float:
        """Median of per-row L2 estimates."""
        return float(
            np.median([self.row_l2_estimate(r) for r in range(self.depth)])
        )

    def heavy_hitters(self, threshold: float) -> set[int]:
        """All items whose point query is >= threshold in magnitude (the
        baseline HH decoder and Appendix A's candidate phase): an exact
        pruned universe scan (:func:`median_scan_survivors`), then the
        :meth:`query_all` test on the survivors.

        The magnitudes are ``float64(|cell|)``, the value ``np.median``
        reads from the int64 estimate matrix; the ``int64`` truncation
        of the median can only shrink it, so no pruned item is lost.
        """
        items = median_scan_survivors(
            self.n, self._bucket_hashes,
            np.abs(self.table).astype(np.float64), threshold,
        )
        if items.size == 0:
            return set()
        estimates = self.query_all(items)
        return {int(i) for i in items[np.abs(estimates) >= threshold]}

    def merge(self, other: "CountSketch") -> "CountSketch":
        """Fold a same-seeded sibling into this sketch, in place.

        Linear-sketch merge: tables add.  Hash functions are compared by
        *value*, so shards built by the same factory in separate worker
        processes (where object identity is lost to pickling) merge
        cleanly; the merged table is bit-identical to a single-pass
        replay of the concatenated streams.
        """
        if (
            not isinstance(other, CountSketch)
            or other.n != self.n
            or other.width != self.width
            or other.depth != self.depth
            or other._bucket_hashes != self._bucket_hashes
            or other._sign_hashes != self._sign_hashes
        ):
            raise ValueError("sketches do not share hash functions")
        self.table += other.table
        self._max_abs_counter = max(
            self._max_abs_counter,
            other._max_abs_counter,
            int(np.abs(self.table).max(initial=0)),
        )
        self._gross_weight += other._gross_weight
        return self

    def merged_with(self, other: "CountSketch") -> "CountSketch":
        """Out-of-place :meth:`merge`: a new sketch holding the sum."""
        out = self.clone_empty()
        out.merge(self)
        out.merge(other)
        return out

    def clone_empty(self) -> "CountSketch":
        """Empty sketch sharing this one's hash functions (for merges and
        for the shared-hash inner-product trick of Lemma 8)."""
        clone = object.__new__(CountSketch)
        clone.n = self.n
        clone.width = self.width
        clone.depth = self.depth
        clone.table = np.zeros_like(self.table)
        clone._bucket_hashes = self._bucket_hashes
        clone._sign_hashes = self._sign_hashes
        clone._max_abs_counter = 0
        clone._gross_weight = 0
        return clone

    def space_bits(self) -> int:
        """Counters at *capacity* width + hash seeds.

        The paper charges each baseline counter O(log(mM)) bits: a single
        bucket can absorb the stream's entire gross weight, so the sketch
        must allocate for it.  (This is exactly the cost the alpha-property
        structures avoid — their counters are capped by the sample budget.)
        No bucket magnitude can exceed the gross weight, so the capacity
        term dominates any observed peak.
        """
        per_counter = counter_bits(max(self._max_abs_counter, self._gross_weight))
        seeds = sum(h.space_bits() for h in self._bucket_hashes)
        seeds += sum(g.space_bits() for g in self._sign_hashes)
        return self.depth * self.width * per_counter + seeds

    def __repr__(self) -> str:  # pragma: no cover
        return f"CountSketch(n={self.n}, width={self.width}, depth={self.depth})"
