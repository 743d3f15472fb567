"""L1 ε-heavy hitters for α-property streams (Section 3).

Return every item with ``|f_i| >= ε ‖f‖_1`` and no item with
``|f_i| < (ε/2) ‖f‖_1``.  The algorithm (Theorems 3 and 4):

1. estimate ``R = (1 ± 1/8) ‖f‖_1`` — exactly, via one O(log n)-bit
   counter, in the strict turnstile model; via the [39] Cauchy estimator
   (Fact 1) in the general model;
2. run a CSSS with ``k = Θ(1/ε)`` and sensitivity ``Θ(ε)``, giving
   ``‖y* - f‖_∞ < (ε/8) ‖f‖_1`` since ``Err^k_2(f) <= ‖f‖_1 / sqrt(k)``;
3. report every i with ``|y*_i| >= (3ε/4) R``.

Space: ``O(ε⁻¹ log n log(α log(n)/ε))`` — the CountSketch baseline needs
``O(ε⁻¹ log² n)``.
"""

from __future__ import annotations

import numpy as np

from repro.batch import consume_stream

from repro.core.csss import CSSS
from repro.counters.exact import ExactL1Counter
from repro.sketches.cauchy import CauchyL1Sketch
from repro.streams.plan import ChunkPlan


class AlphaHeavyHitters:
    """ε-heavy hitters for strict or general turnstile α-property streams.

    Parameters
    ----------
    n:
        Universe size.
    eps:
        Heavy hitter threshold.
    alpha:
        The stream's L1 α-property bound.
    rng:
        Randomness source.
    strict_turnstile:
        If True, ``‖f‖_1`` is tracked exactly (Theorem 4); otherwise a
        Cauchy norm estimator supplies ``R`` (Theorem 3, Fact 1).
    k_constant, sens_constant:
        Practical stand-ins for the paper's ``k = 32/ε`` and sensitivity
        ``ε/32``; defaults keep the same functional form with smaller
        constants (documented in DESIGN.md).
    depth, sample_budget, sampling_seed:
        Forwarded to :class:`~repro.core.csss.CSSS` (``sampling_seed``
        decorrelates per-node sampling streams while hash seeds stay
        shared — the knob a session's ``node`` index sets).
    """

    def __init__(
        self,
        n: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        strict_turnstile: bool = True,
        k_constant: float = 8.0,
        sens_constant: float = 8.0,
        depth: int | None = None,
        sample_budget: int | None = None,
        sampling_seed=None,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        self.n = int(n)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.strict = bool(strict_turnstile)
        k = max(2, int(np.ceil(k_constant / eps)))
        self.csss = CSSS(
            n,
            k=k,
            eps=eps / sens_constant,
            alpha=alpha,
            rng=rng,
            depth=depth,
            sample_budget=sample_budget,
            sampling_seed=sampling_seed,
        )
        self._l1_exact = ExactL1Counter() if self.strict else None
        self._l1_sketch = (
            None
            if self.strict
            else CauchyL1Sketch(n, eps=0.125, rng=rng, rows_constant=3.0)
        )

    def update(self, item: int, delta: int) -> None:
        self.csss.update(item, delta)
        if self._l1_exact is not None:
            self._l1_exact.update(item, delta)
        else:
            self._l1_sketch.update(item, delta)

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    def update_plan(self, plan) -> None:
        """Composed update: the CSSS and the norm tracker are
        independent structures, so feeding each the whole chunk leaves
        the same state as the interleaved scalar loop.  The CSSS (and a
        Cauchy tracker) reuse the plan's unique-item hash evaluations;
        the exact tracker takes the full per-update columns (its
        running-peak accounting is multiplicity-sensitive, so it is
        never coalesced)."""
        self.csss.update_plan(plan)
        if self._l1_exact is not None:
            self._l1_exact.update_batch(plan.items, plan.deltas)
        else:
            self._l1_sketch.update_plan(plan)

    def consume(self, stream) -> "AlphaHeavyHitters":
        return consume_stream(self, stream)

    def merge(self, other: "AlphaHeavyHitters") -> "AlphaHeavyHitters":
        """Fold a same-seeded sibling in: the CSSS rows merge by rate
        alignment and the norm tracker merges exactly (strict) or
        linearly (Cauchy).  This is what lets sibling sessions
        (:meth:`repro.api.session.StreamSession.merge`) split
        heavy-hitter ingest across nodes."""
        if (
            not isinstance(other, AlphaHeavyHitters)
            or other.n != self.n
            or other.strict != self.strict
        ):
            raise ValueError("sketches are not shard-compatible")
        self.csss.merge(other.csss)
        if self._l1_exact is not None:
            self._l1_exact.merge(other._l1_exact)
        else:
            self._l1_sketch.merge(other._l1_sketch)
        return self

    def l1_estimate(self) -> float:
        """R: exact in strict mode, (1 ± 1/8)-approximate otherwise."""
        if self._l1_exact is not None:
            return float(self._l1_exact.value)
        return float(self._l1_sketch.estimate())

    def query(self, item: int) -> float:
        """CSSS point query for a single item."""
        return self.csss.query(item)

    def heavy_hitters(self) -> set[int]:
        """All i with ``|y*_i| >= (3ε/4) R`` (Section 3 decision rule)."""
        r = self.l1_estimate()
        if r <= 0:
            return set()
        return self.csss.heavy_candidates(0.75 * self.eps * r)

    def space_bits(self) -> int:
        norm_bits = (
            self._l1_exact.space_bits()
            if self._l1_exact is not None
            else self._l1_sketch.space_bits()
        )
        return self.csss.space_bits() + norm_bits
