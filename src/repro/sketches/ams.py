"""AMS (Alon-Matias-Szegedy [6]) F2 / inner-product sketch.

Each of ``r`` atomic estimators keeps ``Z = sum_i sigma(i) f_i`` for a
4-wise independent sign function sigma.  ``Z^2`` is an unbiased estimator
of ``‖f‖_2^2``; the product of two atomic estimators sharing signs is an
unbiased estimator of ``<f, g>`` with variance ``O(‖f‖_2^2 ‖g‖_2^2)``.
Medians of means give the usual concentration.  Used as the second
unbounded-deletion inner-product baseline in the Theorem 2 benchmark.
"""

from __future__ import annotations

import numpy as np

import repro.kernels as _kernels
from repro.batch import consume_stream
from repro.hashing.kwise import SignHash
from repro.space.accounting import counter_bits
from repro.streams.plan import ChunkPlan


class AMSSketch:
    """AMS sketch: ``groups`` means of ``per_group`` atomic estimators."""

    def __init__(
        self,
        n: int,
        per_group: int,
        groups: int,
        rng: np.random.Generator,
    ) -> None:
        if per_group < 1 or groups < 1:
            raise ValueError("per_group and groups must be positive")
        self.n = int(n)
        self.per_group = int(per_group)
        self.groups = int(groups)
        self.r = self.per_group * self.groups
        self.z = np.zeros(self.r, dtype=np.int64)
        self._signs = [SignHash(n, rng, k=4) for _ in range(self.r)]
        self._gross_weight = 0

    def update(self, item: int, delta: int) -> None:
        self._gross_weight += abs(delta)
        for j in range(self.r):
            self.z[j] += self._signs[j](item) * delta

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    # Each Z_j is a ℤ-linear functional of the stream, so in-chunk
    # duplicates coalesce bit-identically.
    def update_plan(self, plan) -> None:
        """Vectorised update: per atomic estimator, one sign evaluation
        over the chunk's unique items (cached on a planned chunk) and
        one dot product against the per-item summed deltas — the
        scalar loop's integer sum, with an order of magnitude fewer
        hash evaluations on skewed planned chunks."""
        if not plan.coalesce_safe:
            plan = ChunkPlan.unplanned(plan.items, plan.deltas, self.n)
        self._gross_weight += plan.gross_weight
        sums = plan.summed_deltas
        # The reshape must alias z (guaranteed for a contiguous vector)
        # or the kernel would scatter into a copy.
        if self.z.flags.c_contiguous and _kernels.try_table_update(
                self.z.reshape(self.r, 1), None, self._signs,
                plan.unique_items, sums):
            return
        # |Σ signs·sums| is at most the gross weight, under 2^62 on a
        # coalesced chunk, so the int64 dot product is exact there; on
        # an unplanned one it wraps exactly where the scalar loop's
        # int64 adds (and the kernel's) do.
        for j in range(self.r):
            signs = plan.unique_values(self._signs[j])
            self.z[j] += int(np.dot(signs, sums))

    def consume(self, stream) -> "AMSSketch":
        return consume_stream(self, stream)

    def f2_estimate(self) -> float:
        """Median of group means of ``Z^2`` — estimates ``‖f‖_2^2``."""
        sq = self.z.astype(np.float64) ** 2
        means = sq.reshape(self.groups, self.per_group).mean(axis=1)
        return float(np.median(means))

    def inner_product(self, other: "AMSSketch") -> float:
        """Median of group means of ``Z_f * Z_g`` (shared signs)."""
        if other._signs is not self._signs:
            raise ValueError("sketches do not share sign functions")
        prod = self.z.astype(np.float64) * other.z.astype(np.float64)
        means = prod.reshape(self.groups, self.per_group).mean(axis=1)
        return float(np.median(means))

    def merge(self, other: "AMSSketch") -> "AMSSketch":
        """Fold a same-seeded sibling into this sketch, in place.

        Each atomic estimator is linear in the stream, so the Z vectors
        add; sign functions are compared by value so pickled shards from
        worker processes qualify.  Bit-identical to a single-pass replay
        of the concatenated streams.
        """
        if (
            not isinstance(other, AMSSketch)
            or other.n != self.n
            or other.per_group != self.per_group
            or other.groups != self.groups
            or other._signs != self._signs
        ):
            raise ValueError("sketches do not share sign functions")
        self.z += other.z
        self._gross_weight += other._gross_weight
        return self

    def clone_empty(self) -> "AMSSketch":
        clone = object.__new__(AMSSketch)
        clone.n = self.n
        clone.per_group = self.per_group
        clone.groups = self.groups
        clone.r = self.r
        clone.z = np.zeros_like(self.z)
        clone._signs = self._signs
        clone._gross_weight = 0
        return clone

    def space_bits(self) -> int:
        # Capacity accounting, as for CountSketch (|Z_j| never exceeds the
        # gross weight).
        per = counter_bits(self._gross_weight)
        seeds = sum(s.space_bits() for s in self._signs)
        return self.r * per + seeds
