"""Cauchy (1-stable) L1 sketch with the KNW median-of-cos estimator.

Indyk's L1 sketch [35] maintains ``y = A f`` for a matrix of 1-stable
(Cauchy) entries, generated as ``tan(theta)`` with theta uniform in
``(-pi/2, pi/2)``.  Kane-Nelson-Woodruff [39] (the paper's Figure 5) derive
a (1 ± eps) estimator using ``r = Theta(1/eps^2)`` rows plus a small second
matrix ``A'`` whose median absolute coordinate ``y'_med`` calibrates the
scale:

    ``L = y'_med * ( -ln( (1/r) * sum_i cos(y_i / y'_med) ) )``

This is the general-turnstile baseline the paper's Theorem 8 modifies: the
α-property algorithm estimates each coordinate ``y_i`` by *sampling* stream
updates instead of maintaining it exactly, shrinking counters from log(n)
to log(α log n / eps) bits.  The baseline here maintains exact ``y_i``.

Derandomisation note: the paper (and [39]) use k-wise independent entries
of A; we draw entries from per-(row, item) seeded Cauchy variables via a
k-wise hash into angle space, so the sketch is a genuine linear function of
the stream with reproducible entries and O(r · log(n/eps))-bit seeds.
"""

from __future__ import annotations

import numpy as np

import repro.kernels as _kernels
from repro.batch import consume_stream
from repro.hashing.kwise import KWiseHash
from repro.space.accounting import counter_bits
from repro.streams.plan import ChunkPlan

_ANGLE_RESOLUTION = 1 << 24


class _CauchyRow:
    """One row of the 1-stable matrix: item -> Cauchy(0,1) variable.

    Entries are ``tan(pi * (u - 1/2))`` with ``u`` a k-wise independent
    uniform in (0,1) derived from a hashed angle grid (resolution 2^24 —
    fine enough that discretisation error is far below sketch error).
    """

    def __init__(self, n: int, k: int, rng: np.random.Generator) -> None:
        self._h = KWiseHash(n, _ANGLE_RESOLUTION, k=k, rng=rng)

    def entry(self, item: int) -> float:
        u = (self._h(item) + 0.5) / _ANGLE_RESOLUTION
        return float(np.tan(np.pi * (u - 0.5)))

    def entries(self, items: np.ndarray) -> np.ndarray:
        u = (self._h.hash_array(items) + 0.5) / _ANGLE_RESOLUTION
        return np.tan(np.pi * (u - 0.5))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _CauchyRow):
            return NotImplemented
        return self._h == other._h

    def __hash__(self) -> int:
        return hash(("cauchy", self._h))

    def space_bits(self) -> int:
        return self._h.space_bits()


class CauchyL1Sketch:
    """KNW-style (1 ± eps) L1 estimator for general turnstile streams.

    Parameters
    ----------
    n:
        Universe size.
    eps:
        Target relative error; uses ``r = ceil(c / eps^2)`` main rows.
    rng:
        Randomness source.
    rows_constant:
        Practical stand-in for the Theta(1/eps^2) constant (default 6).
    calibration_rows:
        Rows of the auxiliary matrix A' (the paper's r' = Theta(1),
        default 16 so the median is stable).
    k_independence:
        Independence of the per-row entry generator (default
        Theta(log(1/eps)/log log(1/eps)) rounded up to >= 4).
    """

    def __init__(
        self,
        n: int,
        eps: float,
        rng: np.random.Generator,
        rows_constant: float = 6.0,
        calibration_rows: int = 16,
        k_independence: int | None = None,
    ) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        self.n = int(n)
        self.eps = float(eps)
        self.r = max(8, int(np.ceil(rows_constant / eps**2)))
        self.r_prime = int(calibration_rows)
        if k_independence is None:
            k_independence = max(4, int(np.ceil(np.log2(1 / eps))))
        self._rows = [_CauchyRow(n, k_independence, rng) for _ in range(self.r)]
        self._cal_rows = [
            _CauchyRow(n, k_independence, rng) for _ in range(self.r_prime)
        ]
        self.y = np.zeros(self.r, dtype=np.float64)
        self.y_prime = np.zeros(self.r_prime, dtype=np.float64)
        self._gross_weight = 0

    def update(self, item: int, delta: int) -> None:
        for j, row in enumerate(self._rows):
            self.y[j] += row.entry(item) * delta
        for j, row in enumerate(self._cal_rows):
            self.y_prime[j] += row.entry(item) * delta
        self._gross_weight += abs(delta)

    def _accumulate_batch(self, acc: np.ndarray, rows, plan) -> None:
        # Floating-point addition is not associative, so a vectorised
        # sum() would depend on the chunking.  A running (left-fold)
        # accumulation via cumsum performs exactly the scalar loop's
        # ((y + c_0) + c_1) + ... at C speed — bit-identical for every
        # chunk size.
        #
        # The compiled backend runs the same fold (one rounded multiply
        # + one rounded add per term, left to right, no FMA) over the
        # same precomputed entry arrays — tan stays in NumPy, whose
        # np.tan differs from libm by an ulp on part of the angle grid.
        # It takes the *unique* entries plus the plan's inverse gather
        # (``None`` on an unplanned chunk), skipping the per-update
        # gather copy entirely.
        deltas = plan.deltas
        if _kernels.backend().active:
            entries = [plan.unique_values(row, row.entries) for row in rows]
            if _kernels.try_cauchy_fold(acc, entries, deltas, plan.inverse):
                return
        buf = np.empty(len(deltas) + 1, dtype=np.float64)
        for j, row in enumerate(rows):
            buf[0] = acc[j]
            np.multiply(plan.values(row, row.entries), deltas, out=buf[1:])
            # repro: allow[overflow-discipline] -- float64 left-fold: the
            # Cauchy accumulators are floats, integer wrap cannot occur
            acc[j] = np.cumsum(buf)[-1]

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    # Reads no summed view: the y accumulators are float and the batch
    # contract is *bitwise* — regrouping e(i)·(Δ₁+Δ₂) differs from
    # e(i)·Δ₁ + e(i)·Δ₂ in the last ulp, so duplicates must stay
    # separate.  A planned chunk still pays off through entry reuse.
    def update_plan(self, plan) -> None:
        """Vectorised update: the per-row hash/tan entry pipeline — the
        dominant cost — runs over the chunk's unique items (cached on a
        planned chunk, shared with value-equal rows of any other
        consumer) and the left fold of :meth:`_accumulate_batch` folds the
        per-update terms in stream order, bit-identical to the scalar
        loop."""
        self._accumulate_batch(self.y, self._rows, plan)
        self._accumulate_batch(self.y_prime, self._cal_rows, plan)
        self._gross_weight += plan.gross_weight

    def consume(self, stream) -> "CauchyL1Sketch":
        return consume_stream(self, stream)

    def merge(self, other: "CauchyL1Sketch") -> "CauchyL1Sketch":
        """Fold a same-seeded sibling into this sketch, in place.

        ``y = A f`` is linear, so shard vectors add; entry generators are
        compared by value so pickled shards qualify.  Equal to a single-
        pass replay up to float-addition associativity (the estimator is
        unchanged at machine precision).
        """
        if (
            not isinstance(other, CauchyL1Sketch)
            or other.n != self.n
            or other.r != self.r
            or other.r_prime != self.r_prime
            or other._rows != self._rows
            or other._cal_rows != self._cal_rows
        ):
            raise ValueError("sketches do not share entry generators")
        self.y += other.y
        self.y_prime += other.y_prime
        self._gross_weight += other._gross_weight
        return self

    def estimate(self) -> float:
        """The Figure 5 estimator ``y'_med * (-ln mean cos(y_i / y'_med))``."""
        y_med = float(np.median(np.abs(self.y_prime)))
        if y_med == 0.0:
            return 0.0
        mean_cos = float(np.mean(np.cos(self.y / y_med)))
        # Guard: for eps-range inputs mean_cos ≈ exp(-L1/y_med) in (0, 1);
        # clamp tiny/negative means (possible at minuscule budgets).
        mean_cos = min(1.0, max(mean_cos, 1e-12))
        return y_med * (-np.log(mean_cos))

    def median_estimate(self) -> float:
        """Simpler median-|y|/median(|Cauchy|) estimator (Indyk [35]);
        kept for cross-checks and ablations."""
        return float(np.median(np.abs(self.y)))  # median(|C|) = 1

    def space_bits(self) -> int:
        """Counters wide enough for Cauchy-scaled gross traffic + seeds.

        The baseline must budget counters against the worst coordinate,
        which grows with the stream length m (this is exactly the log(n)
        cost the α-property algorithm avoids).
        """
        m = max(1, self._gross_weight)
        per_counter = counter_bits(m * 8)  # Cauchy tail headroom, as in [39]
        seeds = sum(r.space_bits() for r in self._rows)
        seeds += sum(r.space_bits() for r in self._cal_rows)
        return (self.r + self.r_prime) * per_counter + seeds
