"""s-sparse recovery linear sketch (paper Lemma 22).

Given a frequency vector that is promised s-sparse, a linear sketch of
``O(s)`` measurements recovers it exactly; otherwise it reports DENSE with
high probability.  This is the engine of both support samplers (Section 7).

Construction (standard, e.g. [38]): hash items pairwise-independently into
``2s`` buckets, repeated over ``O(log(s))`` independent rows; each bucket
keeps (count, identity-weighted count) so a bucket containing a single item
i with weight w holds ``(w, w * i)`` and is *decodable*.  Peeling decodable
buckets across rows recovers any s-sparse vector w.h.p.  A verification
row hashed with fresh randomness catches dense inputs: after peeling, a
non-zero residue means DENSE.

Space: ``O(s log n)`` bits, matching Lemma 22.
"""

from __future__ import annotations

import numpy as np

from repro.batch import as_update_arrays, consume_stream
from repro.hashing.kwise import PairwiseHash
from repro.space.accounting import counter_bits


class DenseError(Exception):
    """Raised when the sketched vector is not s-sparse."""


class SparseRecovery:
    """Exact s-sparse recovery with DENSE detection.

    Parameters
    ----------
    n:
        Universe size.
    s:
        Sparsity budget; vectors with ``‖f‖_0 <= s`` are recovered exactly
        (w.h.p. over hash choice).
    rng:
        Randomness source.
    rows:
        Number of peeling rows (default ``max(4, ceil(log2(s)) + 2)``).
    """

    def __init__(
        self,
        n: int,
        s: int,
        rng: np.random.Generator,
        rows: int | None = None,
    ) -> None:
        if s < 1:
            raise ValueError("sparsity budget must be positive")
        self.n = int(n)
        self.s = int(s)
        self.buckets = 2 * self.s
        self.rows = rows if rows is not None else max(4, int(np.ceil(np.log2(self.s + 1))) + 2)
        self._hashes = [PairwiseHash(n, self.buckets, rng) for _ in range(self.rows)]
        # counts[r, b] = sum of weights; ids[r, b] = sum of weight * item.
        self.counts = np.zeros((self.rows, self.buckets), dtype=object)
        self.ids = np.zeros((self.rows, self.buckets), dtype=object)
        self._max_abs = 0

    def update(self, item: int, delta: int) -> None:
        for r in range(self.rows):
            b = self._hashes[r](item)
            self.counts[r, b] += delta
            self.ids[r, b] += delta * item
        self._max_abs = max(self._max_abs, abs(int(delta)))

    def update_batch(self, items, deltas) -> None:
        """Vectorised batch update.

        Bucket hashing is vectorised; the scatter-adds run on the exact
        Python-integer (object dtype) tables, so the accumulated
        measurements are identical to the scalar loop's.
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        deltas_obj = deltas_arr.astype(object)
        weighted_obj = deltas_obj * items_arr.astype(object)
        for r in range(self.rows):
            buckets = self._hashes[r].hash_array(items_arr)
            np.add.at(self.counts[r], buckets, deltas_obj)
            np.add.at(self.ids[r], buckets, weighted_obj)
        if deltas_arr.size:
            self._max_abs = max(
                self._max_abs, int(np.abs(deltas_arr).max())
            )

    def consume(self, stream) -> "SparseRecovery":
        return consume_stream(self, stream)

    def recover(self) -> dict[int, int]:
        """Peel and return ``{item: weight}``; raises :class:`DenseError`
        if the residual does not vanish (vector was not s-sparse).

        Recovery is non-destructive: it peels working copies.
        """
        counts = self.counts.copy()
        ids = self.ids.copy()
        recovered: dict[int, int] = {}

        def peel(item: int, weight: int) -> None:
            for r in range(self.rows):
                b = self._hashes[r](item)
                counts[r, b] -= weight
                ids[r, b] -= weight * item

        # A bucket that only looks pure decodes a phantom item whose
        # negation a later row can decode, forever.  An s-sparse vector
        # peels within s + 1 passes; past them the residual is DENSE.
        for _ in range(self.s + 1):
            progress = False
            for r in range(self.rows):
                for b in range(self.buckets):
                    w = counts[r, b]
                    if w == 0:
                        continue
                    iw = ids[r, b]
                    if iw % w != 0:
                        continue
                    item = iw // w
                    if not 0 <= item < self.n:
                        continue
                    if self._hashes[r](int(item)) != b:
                        continue
                    item = int(item)
                    recovered[item] = recovered.get(item, 0) + int(w)
                    if recovered[item] == 0:
                        del recovered[item]
                    peel(item, int(w))
                    progress = True
            if not progress or len(recovered) > self.s:
                break
        if any(w != 0 for w in counts.flat):
            raise DenseError(
                f"residual mass remains after peeling (> {self.s}-sparse "
                "or unlucky hashing)"
            )
        return recovered

    def is_zero(self) -> bool:
        """True iff every measurement is zero (f may still be non-zero only
        with the negligible probability of full cancellation)."""
        return all(w == 0 for w in self.counts.flat)

    def space_bits(self) -> int:
        # Each bucket: weight counter + identity accumulator of
        # log(n * max_weight) bits; this is the O(s log n) of Lemma 22.
        weight_bits = counter_bits(max(1, self._max_abs) * self.s * 4)
        id_bits = weight_bits + max(1, int(self.n - 1).bit_length())
        seeds = sum(h.space_bits() for h in self._hashes)
        return self.rows * self.buckets * (weight_bits + id_bits) + seeds
