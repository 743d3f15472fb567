"""α-SupportSampler: support sampling for strict-turnstile L0 α-property
streams (Section 7, Figure 8).

Return at least ``min(k, ‖f‖_0)`` coordinates of the support.  The
turnstile baseline keeps an s-sparse recovery sketch at each of ``log n``
subsampling levels; for an α-property stream the useful level index —
where the subsample has ``Θ(s)`` survivors — is pinned by a running rough
F0 estimate ``R^t ∈ [L0^t, 8 α L0]`` within a window of width
``O(log(α/ε))``, so only those levels (plus a fixed band of deepest
levels covering tiny L0) are ever instantiated.

A level instantiated at time ``t_j`` sketches the *suffix* ``f^{t_j:m}``;
in the strict turnstile model every **strictly positive** coordinate of a
suffix belongs to the final support (deletions can only have removed mass
that existed), which is why only positive recovered coordinates are
returned — and why this algorithm needs the strict model (Theorem 11).
"""

from __future__ import annotations

import numpy as np

from repro.batch import as_update_arrays, consume_stream
from repro.core.l0_estimation import AlphaRoughL0Estimate
from repro.core.schedules import (
    drive_segments,
    estimate_changes,
    log_window,
    sync_window,
)
from repro.hashing.kwise import PairwiseHash
from repro.sketches.sparse_recovery import DenseError, SparseRecovery


class AlphaSupportSampler:
    """Figure 8 support sampler.

    This structure is the package's documented **order-sensitive
    holdout** for merging: its output certificate — strictly
    positive coordinates of a *suffix* belong to the final support —
    leans on every prefix of the stream being strict-turnstile.  A
    contiguous shard of a strict stream is not itself strict (it may
    delete mass inserted in an earlier shard), so per-shard suffix
    sketches cannot be soundly recombined; there is deliberately no
    ``merge()``.

    Parameters
    ----------
    n:
        Universe size.
    k:
        Number of support coordinates requested.
    alpha:
        L0 α-property bound of the stream.
    rng:
        Randomness source.
    sparsity_slack:
        Recovery budget per level is ``s = sparsity_slack * k`` (the
        paper's s = 205k is a proof constant).
    eps:
        Window-width parameter (the paper fixes ε = 1/48 inside the
        window definition).
    window_slack:
        Extra levels on each side of ``log2(n s / (3 R^t))``.
    """

    def __init__(
        self,
        n: int,
        k: int,
        alpha: float,
        rng: np.random.Generator,
        sparsity_slack: int = 8,
        eps: float = 1.0 / 48.0,
        window_constant: float = 1.0,
        window_slack: int = 1,
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.n = int(n)
        self.k = int(k)
        self.alpha = float(alpha)
        self.s = sparsity_slack * self.k
        self.log_n = max(1, int(np.ceil(np.log2(self.n))))
        # Paper window: +/- 2 log2(alpha/eps) with eps fixed at 1/48; the
        # leading 2 is a proof constant, exposed as window_constant.
        self.half_window = (
            int(np.ceil(window_constant * np.log2(max(2.0, alpha / eps))))
            + window_slack
        )
        self._rng = rng
        self._h = PairwiseHash(self.n, self.n, rng)
        self._rough = AlphaRoughL0Estimate(n, rng)
        # Deep levels j >= deep_floor are always kept: they are cheap (few
        # survivors) and cover the tiny-L0 regime, mirroring the paper's
        # "or j >= log(n s log log n / (24 log n))" clause.
        self.deep_floor = max(
            0,
            self.log_n
            - max(
                1,
                int(
                    np.ceil(
                        np.log2(
                            max(
                                2.0,
                                24.0
                                * np.log2(max(4.0, self.n))
                                / max(1.0, np.log2(np.log2(max(4.0, self.n)) + 2)),
                            )
                        )
                    )
                ),
            ),
        )
        self._levels: dict[int, SparseRecovery] = {}
        self._sync(self._window())

    # -- level management -------------------------------------------------------
    def _window(self) -> set[int]:
        # A set, iterated in its own order when levels are built: above
        # log n = 31 that order is not ascending, and it fixes the seeds.
        window = set(log_window(
            self.n * self.s / (3.0 * self._rough.estimate()),
            self.half_window, self.log_n))
        window |= set(range(self.deep_floor, self.log_n + 1))
        return window

    def _sync(self, wanted: set[int]) -> None:
        sync_window(self._levels, wanted,
                    lambda j: SparseRecovery(self.n, s=self.s, rng=self._rng))

    # -- stream interface ---------------------------------------------------------
    def _member_levels(self, item: int) -> list[int]:
        """Levels whose subsample ``I_j = {i : h(i) <= 2^j}`` contain item."""
        hv = self._h(item)
        min_j = max(0, int(hv).bit_length() - (1 if hv > 0 else 0))
        if hv == 0:
            min_j = 0
        # h(i) <= 2^j  <=>  j >= ceil(log2(h(i))) (with h(i) >= 1)
        while (1 << min_j) < hv:
            min_j += 1
        return [j for j in self._levels if j >= min_j]

    def _min_levels_array(self, items_arr: np.ndarray) -> np.ndarray:
        """Vectorised smallest member level: ``min{j : h(i) <= 2^j}``.

        ``ceil(log2(hv)) = bit_length(hv - 1)``, computed exactly via
        ``np.frexp`` (float64 represents the hash values exactly — the
        pairwise hash range is the universe size, far below 2^53).
        """
        hv = self._h.hash_array(items_arr)
        _, exponent = np.frexp(np.maximum(hv - 1, 0).astype(np.float64))
        return exponent.astype(np.int64)

    def update(self, item: int, delta: int) -> None:
        self._rough.update(item, delta)
        self._sync(self._window())
        for j in self._member_levels(item):
            self._levels[j].update(item, delta)

    def update_batch(self, items, deltas) -> None:
        """Segmented batch update, bit-identical to the scalar loop.

        One vectorised pass computes the KMV hash values and each
        update's smallest member level; then
        :func:`~repro.core.schedules.drive_segments` routes each
        constant-window segment to every live level as arrays (level
        ``j`` receives the updates with ``min_level <= j``; the levels'
        own batch paths are order-exact) and builds fresh
        ``SparseRecovery`` levels — drawing their seeds — at the scalar
        stream positions.
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        if items_arr.size == 0:
            return
        hvs = self._rough.kmv_hash.hash_array(items_arr)
        min_levels = self._min_levels_array(items_arr)

        def route(a: int, b: int) -> None:
            seg_levels = min_levels[a:b]
            for j in sorted(self._levels):
                mask = seg_levels <= j
                if mask.any():
                    self._levels[j].update_batch(
                        items_arr[a:b][mask], deltas_arr[a:b][mask]
                    )

        drive_segments(
            len(hvs), estimate_changes(self._rough, hvs, self._window),
            self._window(), route, lambda wanted, t: self._sync(wanted),
        )

    def consume(self, stream) -> "AlphaSupportSampler":
        return consume_stream(self, stream)

    # -- recovery -------------------------------------------------------------------
    def sample(self) -> set[int]:
        """Strictly positive coordinates of every decodable stored level."""
        out: set[int] = set()
        for j in sorted(self._levels, reverse=True):
            try:
                rec = self._levels[j].recover()
            except DenseError:
                continue
            out.update(i for i, w in rec.items() if w > 0)
            if len(out) >= self.k:
                break
        return out

    def live_levels(self) -> list[int]:
        return sorted(self._levels)

    def space_bits(self) -> int:
        return (
            self._h.space_bits()
            + self._rough.space_bits()
            + sum(l.space_bits() for l in self._levels.values())
        )
