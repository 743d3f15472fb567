"""CountMin sketch (Cormode-Muthukrishnan [22]).

The classic strict-turnstile point-query/inner-product sketch: a ``d x w``
table of non-negative counters; each row hashes items pairwise
independently; the point query is the *minimum* over rows.  For inner
products (the paper cites [22] as the O(eps^-1 log n)-bit baseline,
Section 2.2) the row-wise dot product of two sketches sharing hashes
overestimates ``<f, g>`` by at most ``eps ‖f‖_1 ‖g‖_1`` with ``w = 2/eps``.
"""

from __future__ import annotations

import numpy as np

import repro.kernels as _kernels
from repro.batch import consume_stream
from repro.hashing.kwise import PairwiseHash
from repro.space.accounting import counter_bits
from repro.streams.plan import ChunkPlan


class CountMin:
    """CountMin over ``[n]`` with ``depth`` rows of ``width`` buckets."""

    def __init__(
        self, n: int, width: int, depth: int, rng: np.random.Generator
    ) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be positive")
        self.n = int(n)
        self.width = int(width)
        self.depth = int(depth)
        self.table = np.zeros((depth, width), dtype=np.int64)
        self._hashes = [PairwiseHash(n, width, rng) for _ in range(depth)]
        self._gross_weight = 0

    def update(self, item: int, delta: int) -> None:
        self._gross_weight += abs(delta)
        for r in range(self.depth):
            self.table[r, self._hashes[r](item)] += delta

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    # ℤ-linear table: in-chunk duplicates coalesce bit-identically.
    def update_plan(self, plan) -> None:
        """Vectorised update: one hash evaluation per row over the
        chunk's unique items (cached on a planned chunk) and one
        scatter-add of the per-item summed deltas.  Integer adds
        commute, so the table equals the scalar loop's exactly."""
        if not plan.coalesce_safe:
            plan = ChunkPlan.unplanned(plan.items, plan.deltas, self.n)
        self._gross_weight += plan.gross_weight
        sums = plan.summed_deltas
        # Fused kernel over the coalesced view (zero sums are identity
        # adds, so the nz mask is unnecessary there).
        if _kernels.try_table_update(self.table, self._hashes, None,
                                     plan.unique_items, sums):
            return
        # The filtered sum view is row-invariant — hoist it out of the
        # row loop instead of re-slicing per row.
        nz = plan.nonzero_sums
        sums_nz = sums if nz is None else sums[nz]
        for r in range(self.depth):
            buckets = plan.unique_values(self._hashes[r])
            target = buckets if nz is None else buckets[nz]
            np.add.at(self.table[r], target, sums_nz)

    def consume(self, stream) -> "CountMin":
        return consume_stream(self, stream)

    def query(self, item: int) -> int:
        """Min-over-rows point query (upper bound in strict turnstile)."""
        return int(
            min(self.table[r, self._hashes[r](item)] for r in range(self.depth))
        )

    def inner_product(self, other: "CountMin") -> int:
        """Min over rows of the row dot products (shared hashes required)."""
        if other._hashes is not self._hashes:
            raise ValueError("sketches do not share hash functions")
        dots = (self.table.astype(object) * other.table.astype(object)).sum(axis=1)
        return int(min(dots))

    def merge(self, other: "CountMin") -> "CountMin":
        """Fold a same-seeded sibling into this sketch, in place.

        Linear merge (tables add); hashes are compared by value so
        pickled shards from worker processes qualify.  Bit-identical to
        a single-pass replay of the concatenated streams.
        """
        if (
            not isinstance(other, CountMin)
            or other.n != self.n
            or other.width != self.width
            or other.depth != self.depth
            or other._hashes != self._hashes
        ):
            raise ValueError("sketches do not share hash functions")
        self.table += other.table
        self._gross_weight += other._gross_weight
        return self

    def clone_empty(self) -> "CountMin":
        clone = object.__new__(CountMin)
        clone.n = self.n
        clone.width = self.width
        clone.depth = self.depth
        clone.table = np.zeros_like(self.table)
        clone._hashes = self._hashes
        clone._gross_weight = 0
        return clone

    def space_bits(self) -> int:
        # Capacity accounting: a bucket can absorb the whole stream, and
        # no bucket magnitude can ever exceed the gross weight.
        per_counter = counter_bits(self._gross_weight, signed=False)
        seeds = sum(h.space_bits() for h in self._hashes)
        return self.depth * self.width * per_counter + seeds

    def __repr__(self) -> str:  # pragma: no cover
        return f"CountMin(n={self.n}, width={self.width}, depth={self.depth})"
