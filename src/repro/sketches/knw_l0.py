"""KNW L0 (distinct elements) estimator [40] — the paper's Figure 6.

Three cooperating structures, all implemented from scratch:

* :class:`ExactSmallL0` (Lemma 21): exact L0 while ``L0 <= c`` using
  ``Theta(c^2)`` counters stored modulo a random prime (so cancelled
  coordinates are recognised), O(c^2 log log n) bits.
* :class:`RoughL0Estimator` (Lemma 14): constant-factor L0 — subsample
  the universe at ``log n`` lsb-levels, run a small ExactSmallL0
  (c = 132) per level, and decode with :func:`level_scan`.
* :class:`KNWL0Estimator` (Figure 6 + Lemma 17): the (1 ± eps) estimator.
  A ``log n x K`` matrix, K = 1/eps^2; item i lands in row ``lsb(h1(i))``,
  bucket ``h3(h2(i))``, with contents scaled by a random vector over F_p to
  defeat insert/delete cancellation across different items (Lemma 16).  At
  query time the rows are inverted via the balls-into-bins expectation
  (Lemma 15).  Small L0 is handled by a collapsed single row (Lemma 17)
  and an exact structure for L0 <= 100.
* :class:`RoughF0Estimator` (Lemma 18): non-decreasing O(1)-factor
  estimates of the *F0* (distinct items ever touched) at every point in
  the stream.  **Substitution (documented in DESIGN.md):** [40]'s
  construction is replaced by a k-minimum-values estimator over a k-wise
  hash; it is monotone by construction (the k-th smallest hash value only
  decreases), gives the same O(1)-factor guarantee in O(k log n) bits with
  constant k, and exercises the identical consumer code path (the α
  algorithms only need non-decreasing estimates in ``[F0^t, 8 F0^t]``).

Lemma 20 and Figure 7 (:mod:`repro.core.l0_estimation`) run
:func:`level_scan` and :class:`_KNWTable` on the levels and rows they
keep, so each of these subroutines is defined once.
"""

from __future__ import annotations

import numpy as np

from repro.batch import (
    as_update_arrays,
    consume_stream,
    mod_scatter_add,
    scaled_mod_increments,
)
from repro.hashing.kwise import KWiseHash, PairwiseHash
from repro.hashing.modhash import capped_lsb, lsb_array
from repro.hashing.primes import random_prime_in_range
from repro.space.accounting import counter_bits
from repro.streams.plan import ChunkPlan


class ExactSmallL0:
    """Lemma 21: exact L0 given the promise ``L0 <= c``.

    Items are hashed pairwise into ``Theta(c^2)`` buckets; each bucket
    keeps its net frequency modulo a random prime.  While at most ``c``
    distinct live items exist they are perfectly hashed with constant
    probability and no live frequency is divisible by the prime, so the
    number of non-zero buckets equals L0.  ``trials`` independent copies
    drive the failure probability down; the *maximum* across copies is
    returned (failures only undercount, per [40]).

    Given the stream's ``alpha`` (the L0 α-property
    ``||I + D||_0 <= alpha ||f||_0``), each trial keeps every bucket it
    has *touched*, residue 0 included, and *retires* once more than
    ``bound = floor(alpha c)`` are: touched buckets <= F0 <= alpha L0, so
    a retirement proves the final L0 exceeds ``c``.  A retired trial
    drops its table, is never hashed again and counts as ``c + 1``
    ("more than c").  The touched count only grows, so the scalar,
    batch, plan and merge paths retire a trial at the same chunk
    boundary.  Without ``alpha`` the table is unbounded (live buckets
    only), as [40] has it.
    """

    #: Touched buckets a trial may hold before it retires; ``None`` keeps
    #: the table unbounded.  The class-level default makes a snapshot
    #: from before the bound existed restore as the unbounded table it was.
    bound: int | None = None

    def __init__(
        self,
        n: int,
        c: int,
        rng: np.random.Generator,
        trials: int = 3,
        alpha: float | None = None,
    ) -> None:
        if c < 1:
            raise ValueError("capacity c must be positive")
        if alpha is not None and alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.n = int(n)
        self.c = int(c)
        self.trials = int(trials)
        self.bound = None if alpha is None else int(alpha * self.c)
        buckets = max(16, 8 * c * c)
        self._hashes = [PairwiseHash(n, buckets, rng) for _ in range(self.trials)]
        p_lo = max(64, 16 * c)
        self._primes = [
            random_prime_in_range(p_lo, p_lo**2, rng) for _ in range(self.trials)
        ]
        # bucket -> residue; None once the trial has retired.
        self._tables: list[dict | None] = [dict() for _ in range(self.trials)]

    def update(self, item: int, delta: int) -> None:
        bound = self.bound
        for t, tbl in enumerate(self._tables):
            if tbl is None:
                continue
            b = self._hashes[t](item)
            v = (tbl.get(b, 0) + delta) % self._primes[t]
            if bound is None:
                if v == 0:
                    tbl.pop(b, None)
                else:
                    tbl[b] = v
            elif b in tbl or len(tbl) < bound:
                tbl[b] = v
            else:
                self._tables[t] = None  # a new bucket past the bound

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    def update_plan(self, plan) -> None:
        """Vectorised update: each live trial hashes the chunk's unique
        items once (cached on a planned chunk) and reaches its buckets
        through the plan's gather.  The residue tables are dicts, so the
        accumulation is a loop, but per trial it folds the *per-bucket
        sums* of the per-update deltas in (:meth:`_fold`; never the
        plan's ``summed_*`` views), which equals the scalar sequence
        because modular addition commutes.  Retired trials cost
        nothing."""
        groups = []
        for h, tbl in zip(self._hashes, self._tables):
            if tbl is None:
                groups.append(None)
                continue
            buckets, index = np.unique(
                plan.unique_values(h), return_inverse=True
            )
            groups.append((buckets, plan.gather(index)))
        self._fold(plan.deltas, groups)

    def _fold(self, deltas: np.ndarray, groups) -> None:
        """Fold per-bucket delta sums into every live trial's table.

        ``groups[t]`` holds trial ``t``'s distinct buckets and each
        update's index among them (``None`` for a retired trial).  A
        bounded trial whose touched buckets would exceed the bound
        retires before folding, so its table never outgrows the bound.
        The sums are taken on exact Python integers when the chunk's
        gross weight could overflow int64 (the scalar path is a
        Python-int fold, so this one must not wrap either).
        """
        if all(group is None for group in groups):
            return
        exact = float(np.abs(deltas).astype(np.float64).sum()) >= 2.0**62
        sum_deltas = deltas.astype(object) if exact else deltas
        sum_dtype = object if exact else np.int64
        bound = self.bound
        for t, group in enumerate(groups):
            if group is None:
                continue
            uniq, inverse = group
            tbl, p = self._tables[t], self._primes[t]
            buckets = uniq.tolist()
            if bound is not None and len(tbl.keys() | buckets) > bound:
                self._tables[t] = None
                continue
            sums = np.zeros(len(uniq), dtype=sum_dtype)
            np.add.at(sums, inverse, sum_deltas)
            for b, s in zip(buckets, sums.tolist()):
                v = (tbl.get(b, 0) + s) % p
                if v == 0 and bound is None:
                    tbl.pop(b, None)
                else:
                    tbl[b] = v

    def merge(self, other: "ExactSmallL0") -> "ExactSmallL0":
        """Fold a same-seeded sibling's residue tables in (mod-p adds
        commute, and a trial's touched buckets are the union of both
        sides', so the merged tables — retirements included — are
        bit-identical to a single-pass replay of the concatenated
        streams).  Siblings must share the bound."""
        if (
            not isinstance(other, ExactSmallL0)
            or other.trials != self.trials
            or other.bound != self.bound
            or other._hashes != self._hashes
            or other._primes != self._primes
        ):
            raise ValueError("structures do not share hash seeds and bound")
        bound = self.bound
        for t, (tbl, theirs) in enumerate(zip(self._tables, other._tables)):
            if tbl is None:
                continue
            if theirs is None or (
                bound is not None and len(tbl.keys() | theirs.keys()) > bound
            ):
                self._tables[t] = None
                continue
            p = self._primes[t]
            for b, v in theirs.items():
                merged = (tbl.get(b, 0) + v) % p
                if merged == 0 and bound is None:
                    tbl.pop(b, None)
                else:
                    tbl[b] = merged
        return self

    def estimate(self) -> int:
        """max over trials of the number of non-zero buckets; a retired
        trial counts ``c + 1``."""
        if self.bound is None:
            return max(len(tbl) for tbl in self._tables)
        return max(
            self.c + 1 if tbl is None else sum(1 for v in tbl.values() if v)
            for tbl in self._tables
        )

    def space_bits(self) -> int:
        bucket_bits = max(
            1, int(self._hashes[0].range_size - 1).bit_length()
        )
        val_bits = max(max(1, p.bit_length()) for p in self._primes)
        seeds = sum(h.space_bits() for h in self._hashes)
        # Charged at capacity: c live buckets per trial as the promise
        # allows, or the bound's touched buckets before a trial retires.
        entries = self.c if self.bound is None else self.bound
        return self.trials * entries * (bucket_bits + val_bits) + seeds


#: A level with more than this many survivors is deep enough to
#: decode (Lemma 14).
SURVIVOR_THRESHOLD = 8


def level_scan(levels: dict[int, ExactSmallL0]) -> float:
    """Lemma 14's decoder over stored lsb levels ``{j: ExactSmallL0}``.

    The paper returns ``(20000/99) * 2^j`` for the deepest level j with
    more than :data:`SURVIVOR_THRESHOLD` survivors (``R in [L0, 110 L0]``,
    a slack for proof convenience).  The level rule is kept, but the
    *observed* count is scaled: ``T_j * 2^(j+1)`` (level j samples at rate
    2^-(j+1)) is within a small constant factor of L0 with the same
    failure probability.  With no such level, the shallowest stored
    level's count, scaled the same way, answers (at least 1).
    """
    for j in sorted(levels, reverse=True):
        count = levels[j].estimate()
        if count > SURVIVOR_THRESHOLD:
            return float(count) * 2.0 ** (j + 1)
    if not levels:
        return 1.0
    j = min(levels)
    return max(1.0, float(levels[j].estimate()) * 2.0 ** (j + 1))


class RoughL0Estimator:
    """Lemma 14: output R with ``L0 <= R <= 110 L0`` w.h.p.

    Universe subsampled at lsb-levels of a pairwise hash; level j holds an
    :class:`ExactSmallL0` with c = 132, and :func:`level_scan` decodes
    them (constants from [40] / Section 6.4).
    """

    def __init__(self, n: int, rng: np.random.Generator, trials: int = 3) -> None:
        self.n = int(n)
        self.log_n = max(1, int(np.ceil(np.log2(self.n))))
        self._h = PairwiseHash(self.n, self.n, rng)
        self._levels = [
            ExactSmallL0(self.n, c=132, rng=rng, trials=trials)
            for _ in range(self.log_n + 1)
        ]

    def _level_of(self, item: int) -> int:
        return capped_lsb(self._h(item), self.log_n)

    def update(self, item: int, delta: int) -> None:
        self._levels[self._level_of(item)].update(item, delta)

    def update_batch(self, items, deltas) -> None:
        """Batch update: vectorised level routing, then one batch per
        touched level (levels are independent structures, and within each
        level the item order is preserved)."""
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        levels = lsb_array(self._h.hash_array(items_arr), cap=self.log_n)
        for j in np.unique(levels).tolist():
            mask = levels == j
            self._levels[j].update_batch(items_arr[mask], deltas_arr[mask])

    def consume(self, stream) -> "RoughL0Estimator":
        return consume_stream(self, stream)

    def estimate(self) -> float:
        """Constant-factor L0 estimate (:func:`level_scan`)."""
        return level_scan(dict(enumerate(self._levels)))

    def space_bits(self) -> int:
        return self._h.space_bits() + sum(l.space_bits() for l in self._levels)


class _WideKMVHash:
    """8-wise hash into a ``2^60`` grid built from two 30-bit halves.

    The KMV estimator needs a hash range far above ``F0^2`` (so distinct
    items essentially never collide), but a single polynomial over a
    ``> 2^32`` field forces :meth:`~repro.hashing.kwise.KWiseHash.
    hash_array` onto the exact-Python-integer path (~20x slower).  Two
    independent k-wise hashes into ``[2^30)`` concatenated as high/low
    halves are jointly k-wise independent over the product grid (for
    distinct points the pair is uniform on ``[2^30) x [2^30)``, which the
    bit-concatenation maps bijectively onto ``[2^60)``) — and each half
    runs the exact uint64 Horner fast path.
    """

    HALF_BITS = 30

    def __init__(self, universe: int, k: int, rng: np.random.Generator) -> None:
        self.range_size = 1 << (2 * self.HALF_BITS)
        self._hi = KWiseHash(universe, 1 << self.HALF_BITS, k=k, rng=rng)
        self._lo = KWiseHash(universe, 1 << self.HALF_BITS, k=k, rng=rng)

    def __call__(self, x: int) -> int:
        return (self._hi(x) << self.HALF_BITS) | self._lo(x)

    def hash_array(self, xs: np.ndarray) -> np.ndarray:
        return (self._hi.hash_array(xs) << self.HALF_BITS) | self._lo.hash_array(
            xs
        )

    def __eq__(self, other: object) -> bool:
        """Value equality (both halves) — merge compatibility across
        worker processes, where pickling destroys identity."""
        if not isinstance(other, _WideKMVHash):
            return NotImplemented
        return self._hi == other._hi and self._lo == other._lo

    def __hash__(self) -> int:
        return hash(("wide-kmv", self._hi, self._lo))

    def space_bits(self) -> int:
        return self._hi.space_bits() + self._lo.space_bits()


class RoughF0Estimator:
    """Lemma 18 substitute: non-decreasing O(1)-factor F0 estimates.

    k-minimum-values over an 8-wise hash into ``[2^60]`` (a two-half
    construction on the vectorised fast path, :class:`_WideKMVHash`).
    The estimate ``(k - 1) * M / v_k`` (v_k = k-th smallest distinct hash
    value) is within a constant factor of the number of distinct items
    seen, with strong concentration for k = 64; monotonicity is
    structural.  The returned value is biased up by ``bias_up`` so that
    it is >= F0^t with good probability, as the consumers (Corollary 2)
    require estimates in ``[F0^t, 8 F0^t]``.
    """

    _M = 1 << 60

    def __init__(
        self,
        n: int,
        rng: np.random.Generator,
        k: int = 64,
        bias_up: float = 2.0,
    ) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        self.n = int(n)
        self.k = int(k)
        self.bias_up = float(bias_up)
        self._h = _WideKMVHash(n, k=8, rng=rng)
        self._smallest: list[int] = []  # sorted, at most k distinct values
        self._last_estimate = 0.0

    def update(self, item: int, delta: int) -> None:
        """Distinctness only depends on touches; delta is ignored."""
        self._observe(self._h(item))

    def _observe(self, hv: int) -> None:
        """Fold one (precomputed) hash value into the k smallest."""
        smallest = self._smallest
        if len(smallest) == self.k and hv >= smallest[-1]:
            return
        # Insert if new, keep sorted, truncate to k.
        import bisect

        pos = bisect.bisect_left(smallest, hv)
        if pos < len(smallest) and smallest[pos] == hv:
            return
        smallest.insert(pos, hv)
        if len(smallest) > self.k:
            smallest.pop()

    def would_change(self, hv: int) -> bool:
        """True iff folding ``hv`` now would change the KMV state.

        O(log k) membership test — the dynamic companion to
        :meth:`fold_candidates` (whose chunk-start snapshot over-counts
        while the reservoir is filling)."""
        import bisect

        smallest = self._smallest
        if len(smallest) == self.k and hv >= smallest[-1]:
            return False
        pos = bisect.bisect_left(smallest, hv)
        return not (pos < len(smallest) and smallest[pos] == hv)

    def fold_candidates(self, hash_values: np.ndarray) -> np.ndarray:
        """Indices whose fold could change the KMV state (a superset).

        A fold is a provably-no-op when the value is at/above the current
        k-th smallest (it cannot enter the reservoir — and the threshold
        only decreases, so a chunk-start snapshot stays valid) or when it
        is *already in* the reservoir (repeats of popular items).  Batch
        consumers — including estimate-steered windows, which can only
        move when a fold changes state — skip everything else.
        """
        if len(self._smallest) < self.k:
            return np.arange(len(hash_values))
        below = hash_values < self._smallest[-1]
        if not below.any():
            return np.zeros(0, dtype=np.int64)
        present = np.isin(
            hash_values, np.asarray(self._smallest, dtype=hash_values.dtype)
        )
        return np.nonzero(below & ~present)[0]

    def update_batch(self, items, deltas) -> None:
        """Batch update: one vectorised hash pass, then the (cheap,
        data-dependent) KMV folds in item order — state is identical to
        the scalar loop.  Provably-no-op folds
        (:meth:`fold_candidates`) are skipped."""
        items_arr, _ = as_update_arrays(items, deltas, self.n)
        hvs = self._h.hash_array(items_arr)
        for t in self.fold_candidates(hvs).tolist():
            self._observe(int(hvs[t]))

    def consume(self, stream) -> "RoughF0Estimator":
        return consume_stream(self, stream)

    def merge(self, other: "RoughF0Estimator") -> "RoughF0Estimator":
        """Fold a same-seeded sibling's reservoir in.

        KMV state is a pure set function of the hash values seen: the k
        smallest distinct values of a union equal the k smallest of the
        merged reservoirs, so (unusually for a sampling structure) the
        merged state is *bit-identical* to a single-pass replay.  The
        monotone clamp takes the max of both sides' last estimates.
        """
        if (
            not isinstance(other, RoughF0Estimator)
            or other.k != self.k
            or other._h != self._h
        ):
            raise ValueError("estimators do not share the KMV hash")
        for hv in other._smallest:
            self._observe(hv)
        self._last_estimate = max(self._last_estimate, other._last_estimate)
        return self

    def estimate(self) -> float:
        """Current (non-decreasing) F0 estimate."""
        if len(self._smallest) < self.k:
            raw = float(len(self._smallest))
        else:
            raw = (self.k - 1) * self._M / float(self._smallest[-1])
        est = max(1.0, self.bias_up * raw)
        # KMV is monotone already; the clamp makes it bulletproof against
        # floating-point wobble.
        self._last_estimate = max(self._last_estimate, est)
        return self._last_estimate

    def space_bits(self) -> int:
        return self.k * (self._M.bit_length() - 1) + self._h.space_bits()


#: Occupancy above which the Lemma 15 inversion is unreliable.
SATURATION = 0.6


def _invert_occupancy(T: int, K: int) -> float:
    """Balls-into-bins inversion: number of balls C from T non-empty of
    K bins, ``C = ln(1 - T/K) / ln(1 - 1/K)`` (Lemma 15 / Theorem 9)."""
    T = min(T, K - 1)
    if T <= 0:
        return 0.0
    return float(np.log(1.0 - T / K) / np.log(1.0 - 1.0 / K))


def _row_tail_estimate(rows, K: int) -> float:
    """Decode stored subsampling rows, ``(j, buckets)`` pairs, into an
    L0 estimate.

    The paper inverts the occupancy of the *single* row
    ``i* = log(16R/K)``; with its 110x-slack rough estimate the analysis
    needs astronomically large K for concentration.  This decoder reads
    the same rows with less variance: rows partition the support by lsb
    level (row j holds a ``2^-(j+1)`` fraction), so for the shallowest
    *unsaturated* stored row ``j0`` (occupancy <= :data:`SATURATION`,
    where the Lemma 15 inversion is accurate), the summed inverted
    counts of the stored rows ``j0, j0+1, ...`` estimate
    ``L0 * 2^-j0``; scaling by ``2^j0`` estimates L0 from the whole
    unsaturated tail instead of one row.  When every row is saturated it
    falls back to the paper's single-row formula on the deepest row.
    """
    occupancy = sorted((j, int(np.count_nonzero(row))) for j, row in rows)
    j0 = next((j for j, occ in occupancy if occ <= SATURATION * K), None)
    if j0 is None:
        j, occ = occupancy[-1]
        return (2.0 ** (j + 1)) * _invert_occupancy(occ, K)
    tail = sum(_invert_occupancy(occ, K) for j, occ in occupancy if j >= j0)
    return (2.0**j0) * tail


class _KNWTable:
    """What Figure 6 shares with Figure 7
    (:class:`~repro.core.l0_estimation.AlphaL0Estimator`): the hash
    draws, the Lemma 17 path, the row-tail decoder and the space charge.
    Each passes in what differs: the bucket hashes' independence ``k``,
    and its stored rows (all of them, or a window) as ``(j, buckets)``.
    """

    def _draw_table(self, k: int, rng: np.random.Generator) -> tuple:
        """Figure 6's draws, in order, for ``(h1, h2, h3, h4, p, u)``:
        ``h1`` routes item i to row ``lsb(h1(i))``, ``h2`` maps it into
        ``[K^3]``, the k-wise ``h3`` picks its bucket, and ``h4`` its
        scale from the random vector ``u`` over ``F_p``."""
        n, K = self.n, self.K
        h1 = PairwiseHash(n, n, rng)
        h2 = PairwiseHash(n, K**3, rng)
        h3 = KWiseHash(K**3, K, k=k, rng=rng)
        h4 = PairwiseHash(K**3, K, rng)
        d_lo = 100 * K * 32
        p = random_prime_in_range(d_lo, d_lo**2, rng)
        return h1, h2, h3, h4, p, rng.integers(1, p, size=K)

    def _draw_small(self, k: int, rng: np.random.Generator,
                    alpha: float | None = None) -> tuple:
        """Lemma 17's small-L0 path, ``(K', h3', B', exact)``: one
        collapsed row of ``K' = 2K`` buckets with its own k-wise bucket
        hash, plus exact recovery for L0 <= 100 (:class:`ExactSmallL0`,
        α-bounded given ``alpha``)."""
        K_small = 2 * self.K
        return (K_small, KWiseHash(self.K**3, K_small, k=k, rng=rng),
                np.zeros(K_small, dtype=np.int64),
                ExactSmallL0(self.n, c=100, rng=rng, alpha=alpha))

    def _decode(self, rows) -> float:
        """The Lemma 17 + Figure 6 decision procedure over the stored
        ``rows``.

        Try, in order: the exact structure (valid while L0 <= 100), the
        collapsed single row (valid while its occupancy stays below ~55%,
        i.e. L0 up to ~0.8 K'), then :func:`_row_tail_estimate`.
        """
        small_occ = int(np.count_nonzero(self.B_small))
        if small_occ > 0.55 * self.K_small:
            return _row_tail_estimate(rows, self.K)
        small = _invert_occupancy(small_occ, self.K_small)
        # The two small-regime views agree unless the exact structure
        # overflowed its perfect-hashing regime.
        exact = self._exact_small.estimate()
        return float(exact) if exact <= 100 and small <= 150 else small

    def _space_bits(self, stored_rows: int, rough) -> int:
        """``stored_rows`` rows and the collapsed row at ``log p`` bits a
        bucket, the hash seeds and ``u``, the rough estimate, and the
        exact small structure."""
        val_bits = max(1, int(self.p).bit_length())
        table = (stored_rows * self.K + self.K_small) * val_bits
        seeds = self.K * val_bits + sum(
            h.space_bits()
            for h in (self._h1, self._h2, self._h3, self._h4, self._h3_small)
        )
        return table + seeds + rough.space_bits() + self._exact_small.space_bits()


class KNWL0Estimator(_KNWTable):
    """Figure 6: (1 ± eps) L0 estimation for general turnstile streams.

    Stores all ``log2(n) + 1`` subsampling rows (Figure 7 stores
    O(log(α/eps))).  It maintains and charges the Lemma 14 estimate R
    (:attr:`rough`) by which the paper picks its row, but the decoder
    reads every row, so R steers nothing here.

    Parameters
    ----------
    n:
        Universe size.
    eps:
        Target relative error; K = ceil(1/eps^2) buckets per row.
    rng:
        Randomness source.
    """

    def __init__(self, n: int, eps: float, rng: np.random.Generator) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        self.n = int(n)
        self.eps = float(eps)
        self.K = max(4, int(np.ceil(1.0 / eps**2)))
        self.log_n = max(1, int(np.ceil(np.log2(self.n))))
        self.rows = self.log_n + 1
        k = max(
            4, int(np.ceil(np.log(1 / eps) / max(1.0, np.log(np.log(1 / eps) + 2))))
        )
        self._h1, self._h2, self._h3, self._h4, self.p, self._u = (
            self._draw_table(k, rng))
        self.B = np.zeros((self.rows, self.K), dtype=np.int64)
        self.rough = RoughL0Estimator(n, rng)
        (self.K_small, self._h3_small, self.B_small,
         self._exact_small) = self._draw_small(k, rng)

    # -- updates -------------------------------------------------------------
    def update(self, item: int, delta: int) -> None:
        self.rough.update(item, delta)
        j2 = self._h2(item)
        scale = int(self._u[self._h4(j2)])
        inc = (delta * scale) % self.p
        row = capped_lsb(self._h1(item), self.log_n)
        col = self._h3(j2)
        self.B[row, col] = (int(self.B[row, col]) + inc) % self.p
        col_s = self._h3_small(j2)
        self.B_small[col_s] = (int(self.B_small[col_s]) + inc) % self.p
        self._exact_small.update(item, delta)

    def update_batch(self, items, deltas) -> None:
        """Vectorised batch update.

        All five hash passes and the row routing run as array operations;
        the bucket accumulation is an overflow-safe modular scatter-add
        (:func:`repro.batch.mod_scatter_add`), which yields the same
        residues as reducing after every update.  The scaled increments
        are computed on exact Python integers (``delta * u`` can exceed
        63 bits) before reduction.
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        self.rough.update_batch(items_arr, deltas_arr)
        j2 = self._h2.hash_array(items_arr)
        scales = self._u[self._h4.hash_array(j2)]
        incs = scaled_mod_increments(deltas_arr, scales, self.p)
        rows = lsb_array(self._h1.hash_array(items_arr), cap=self.log_n)
        cols = self._h3.hash_array(j2)
        mod_scatter_add(self.B, (rows, cols), incs, self.p)
        cols_s = self._h3_small.hash_array(j2)
        mod_scatter_add(self.B_small, cols_s, incs, self.p)
        self._exact_small.update_batch(items_arr, deltas_arr)

    def consume(self, stream) -> "KNWL0Estimator":
        return consume_stream(self, stream)

    # -- queries -------------------------------------------------------------
    def estimate(self) -> float:
        """Lemma 17's small-L0 paths, then every row's tail."""
        return self._decode(enumerate(self.B))

    def space_bits(self) -> int:
        return self._space_bits(self.rows, self.rough)
