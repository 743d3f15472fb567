"""L2 heavy hitters for α-property streams (Appendix A sketch).

The appendix observes that if ``|f_i| >= ε ‖f‖_2`` then, by the L2
α-property, ``I_i + D_i >= |f_i| >= (ε/α) ‖I + D‖_2`` — so every L2
ε-heavy hitter of ``f`` is an (ε/α) L2-heavy hitter of the *insertion-
only* stream ``I + D``.  The algorithm therefore:

1. finds the O(α²/ε²) candidates that are (ε/2α)-heavy in ``|stream|``
   (updates with absolute deltas), via a CountSketch sized for ε' = ε/α —
   standing in for the insertion-only BPTree of [11], whose guarantee
   (candidate containment) is identical at this altitude;
2. point-queries each candidate in a second CountSketch of the true
   (signed) stream with O(1/ε²) columns and O(log(α/ε)) rows, keeping
   those whose estimate is at least ``(3ε/4) ‖f‖_2``, with ``‖f‖_2``
   estimated by the second sketch's row L2 (Lemma 4).

Space: O((α²/ε²) log n log(α/ε)) bits — polynomial in α (the appendix
poses closing the gap to log α as an open question).
"""

from __future__ import annotations

import numpy as np

from repro.batch import consume_stream
from repro.sketches.countsketch import CountSketch
from repro.streams.plan import ChunkPlan


class AlphaL2HeavyHitters:
    """ε-L2 heavy hitters for general turnstile L2 α-property streams.

    Parameters
    ----------
    n:
        Universe size.
    eps:
        Heavy hitter threshold (against ``‖f‖_2``).
    alpha:
        L2 α-property bound.
    rng:
        Randomness source.
    candidate_width_constant, verify_width_constant:
        Practical constants scaling the two CountSketch widths.
    """

    def __init__(
        self,
        n: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        candidate_width_constant: float = 4.0,
        verify_width_constant: float = 4.0,
        depth: int | None = None,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.n = int(n)
        self.eps = float(eps)
        self.alpha = float(alpha)
        d = depth if depth is not None else max(5, int(np.ceil(np.log2(n))))
        cand_width = max(
            8, int(np.ceil(candidate_width_constant * (alpha / eps) ** 2))
        )
        verify_width = max(8, int(np.ceil(verify_width_constant / eps**2)))
        verify_depth = max(5, int(np.ceil(np.log2(max(2.0, alpha / eps)))) + 3)
        self._candidate_cs = CountSketch(n, cand_width, d, rng)
        self._verify_cs = CountSketch(n, verify_width, verify_depth, rng)

    def update(self, item: int, delta: int) -> None:
        # Candidate sketch sees the insertion-only image |delta|.
        self._candidate_cs.update(item, abs(delta))
        self._verify_cs.update(item, delta)

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    # Both constituent CountSketch tables are ℤ-linear, so in-chunk
    # duplicates coalesce bit-identically.
    def update_plan(self, plan) -> None:
        """Composed update (both CountSketches are deterministic, so
        chunk-major feeding equals the scalar interleaving): one
        unique-item pass serves both sketches — the candidate folds
        per-item summed magnitudes (the insertion-only image), the
        verify sketch per-item summed deltas."""
        self._candidate_cs._apply_plan(plan, signed=False)
        self._verify_cs._apply_plan(plan, signed=True)

    def consume(self, stream) -> "AlphaL2HeavyHitters":
        return consume_stream(self, stream)

    def heavy_hitters(self) -> set[int]:
        """Candidates from the insertion-only sketch, verified against the
        signed sketch at the (3ε/4)-threshold."""
        gross_l2 = self._candidate_cs.l2_estimate()
        if gross_l2 <= 0:
            return set()
        candidates = self._candidate_cs.heavy_hitters(
            0.5 * (self.eps / self.alpha) * gross_l2
        )
        if not candidates:
            return set()
        f_l2 = self._verify_cs.l2_estimate()
        out = set()
        cand = np.fromiter(candidates, dtype=np.int64)
        est = self._verify_cs.query_all(cand)
        for item, e in zip(cand, est):
            if abs(float(e)) >= 0.75 * self.eps * f_l2:
                out.add(int(item))
        return out

    def space_bits(self) -> int:
        return self._candidate_cs.space_bits() + self._verify_cs.space_bits()
