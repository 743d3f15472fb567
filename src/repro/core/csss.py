"""CSSampSim (CSSS): Countsketch simulated on uniform samples (Figure 2).

The paper's central data structure (Theorem 1).  A ``d x 6k`` Countsketch
table where each row is fed an *independent* uniform sample of the stream
(the rows therefore do not correspond to any single valid Countsketch run
— Section 2.1 — but each row independently satisfies the row guarantee on
its own sample, and the median over rows still concentrates).  Each table
cell holds a **pair** of counters ``(a+, a-)`` accumulating sampled
positive and negative contributions separately; when the sample budget
overflows, every counter is halved by binomial thinning and the sampling
rate is halved (step 5a), so counters stay ``O(log(α log n / ε))`` bits —
this is where the log(n) → log(α) saving comes from.

Guarantee (Theorem 1): for every i,
``|y*_i - f_i| <= 2 (Err_2^k(f) / sqrt(k) + ε ‖f‖_1)`` w.h.p., at space
``O(k log n log(α log n / ε))`` bits.

:class:`CSSSWithTailEstimate` adds the Lemma 5 machinery: a second CSSS
instance into which the best k-sparse approximation from the first is
fed negatively; the surviving row L2 norms (Lemma 4) bound
``Err_2^k(z)``, which the αL1Sampler's abort logic requires.
"""

from __future__ import annotations

import numpy as np

import repro.kernels as _kernels
from repro.batch import consume_stream, exact_sum
from repro.core.schedules import AdaptiveSamplingSchedule
from repro.hashing.kwise import FourWiseHash, SignHash
from repro.sketches.countsketch import median_scan_survivors
from repro.space.accounting import counter_bits
from repro.streams.plan import ChunkPlan


def derive_sampling_seed(seed, index: int):
    """Derive a distinct child sampling seed (None stays None).

    Appends ``index`` to the seed material, so composed structures
    (main/shadow pairs, multi-sampler copies, node-indexed builds)
    can hand each constituent an independent sampling stream from one
    caller-supplied seed.

    >>> derive_sampling_seed(None, 3) is None
    True
    >>> derive_sampling_seed(7, 1), derive_sampling_seed((7, 2), 1)
    ((7, 1), (7, 2, 1))
    """
    if seed is None:
        return None
    if isinstance(seed, (int, np.integer)):
        return (int(seed), index)
    return tuple(seed) + (index,)


def default_sample_budget(alpha: float, eps: float, constant: float = 32.0) -> int:
    """Practical stand-in for the paper's ``S = Θ(α²ε⁻²T² log n)``.

    The theory constant is astronomically conservative; experiments use
    ``S = constant * α² / ε²`` (the α²/ε² dependence is the part that
    matters — the benchmark sweeps verify the error falls accordingly).
    """
    return max(64, int(np.ceil(constant * alpha * alpha / (eps * eps))))


class CSSS:
    """CSSampSim over universe ``[n]``.

    Parameters
    ----------
    n:
        Universe size.
    k:
        Sensitivity parameter; the table has ``6k`` columns.
    eps:
        Additive-error parameter (ε‖f‖₁ term of Theorem 1).
    alpha:
        The stream's (assumed) L1 α-property parameter; sets the default
        sample budget.
    rng:
        Randomness source.  Hash seeds are drawn from it directly; the
        per-row *sampling* randomness comes from generators spawned off
        it (one acceptance stream and one halving stream per row), which
        is what makes the batched sampling schedule order-insensitive —
        see :meth:`update_plan`.
    depth:
        Number of rows (``O(log n)``; default ``max(5, ceil(log2 n))``).
    sample_budget:
        Retained samples per row before a halving; defaults to
        :func:`default_sample_budget`.
    sampling_seed:
        When given, the per-row sampling streams (acceptance + halving)
        are spawned from ``default_rng(sampling_seed)`` instead of from
        ``rng``.  Hash seeds still come from ``rng``, so sketches built
        with the same ``rng`` seed but different ``sampling_seed`` are
        mergeable *and* sample independently — the decorrelation knob
        the registry sets from a session's node index
        (:meth:`repro.api.registry.Params.sampling_seed`).  Accepts
        anything ``np.random.default_rng`` accepts (ints or int
        sequences).
    """

    def __init__(
        self,
        n: int,
        k: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        depth: int | None = None,
        sample_budget: int | None = None,
        sampling_seed=None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.n = int(n)
        self.k = int(k)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.width = 6 * self.k
        self.depth = depth if depth is not None else max(5, int(np.ceil(np.log2(n))))
        self.budget = (
            sample_budget
            if sample_budget is not None
            else default_sample_budget(alpha, eps)
        )
        self._bucket_hashes = [
            FourWiseHash(n, self.width, rng) for _ in range(self.depth)
        ]
        self._sign_hashes = [SignHash(n, rng, k=4) for _ in range(self.depth)]
        # Per-row sampling streams: one uniform per (row, update) inside
        # each row's AdaptiveSamplingSchedule, halving thins from
        # _halve_rngs.  Keeping the two streams separate is what makes
        # chunked replay bit-identical to the scalar loop: acceptance
        # consumption is exactly one draw per update, and halving
        # consumption depends only on the (chunk-invariant) acceptance
        # outcomes.  A sampling_seed reroots both stream families off a
        # private generator so shards can sample independently while
        # sharing hash seeds.
        sample_src = (
            rng if sampling_seed is None
            # repro: allow[rng-discipline] -- sampling_seed reroot: the
            # documented per-shard decorrelation seam (Params.sampling_seed)
            else np.random.default_rng(sampling_seed)
        )
        self._schedules = [
            AdaptiveSamplingSchedule(self.budget, child)
            for child in sample_src.spawn(self.depth)
        ]
        self._halve_rngs = list(sample_src.spawn(self.depth))
        # Separate positive / negative accumulators per cell (Figure 2).
        self.pos = np.zeros((self.depth, self.width), dtype=np.int64)
        self.neg = np.zeros((self.depth, self.width), dtype=np.int64)
        self._max_abs_counter = 0

    # -- sampling state views (per-row schedules are the source of truth) ----
    @property
    def log2_inv_p(self) -> np.ndarray:
        """Per-row halved-rate exponents (rate of row r is 2^-p_r)."""
        return np.array(
            [s.log2_inv_p for s in self._schedules], dtype=np.int64
        )

    @property
    def _row_weight(self) -> np.ndarray:
        return np.array([s.weight for s in self._schedules], dtype=np.int64)

    # -- update path ---------------------------------------------------------
    def _halve_row(self, r: int) -> None:
        rng = self._halve_rngs[r]
        self.pos[r] = rng.binomial(self.pos[r], 0.5)
        self.neg[r] = rng.binomial(self.neg[r], 0.5)
        self._schedules[r].register_halving(
            exact_sum(self.pos[r]) + exact_sum(self.neg[r])
        )

    def update(self, item: int, delta: int) -> None:
        """Apply stream update; each row samples it independently.

        Each row consumes exactly one acceptance uniform per update
        (regardless of the current rate), so the scalar loop and any
        chunked batch replay consume the per-row streams identically.
        """
        mag = abs(delta)
        sign = 1 if delta > 0 else -1
        for r in range(self.depth):
            sched = self._schedules[r]
            kept = sched.offer(mag)
            if kept == 0:
                continue
            b = self._bucket_hashes[r](item)
            signed = sign * self._sign_hashes[r](item)
            if signed > 0:
                self.pos[r, b] += kept
                touched = int(self.pos[r, b])
            else:
                self.neg[r, b] += kept
                touched = int(self.neg[r, b])
            if touched > self._max_abs_counter:
                self._max_abs_counter = touched
            while sched.needs_halving():
                self._halve_row(r)

    def _apply_row(
        self,
        r: int,
        buckets: np.ndarray,
        eff_signs: np.ndarray,
        mags: np.ndarray,
        gross: int,
    ) -> None:
        """Fold one chunk into row ``r`` with vectorised acceptance.

        The row's schedule quantises the whole chunk in one inverse-CDF
        pass and yields budget segments: everything up to and including
        the first overflow is scatter-added, the row is halved, and the
        schedule re-quantises the chunk *tail* from the same uniforms at
        the new rate.  Typically one segment per chunk — halvings are
        logarithmically rare — and a rate-1 row that cannot overflow
        keeps the chunk whole off the shared ``gross = Σ mags``.
        """
        sched = self._schedules[r]
        for start, stop, k_seg in sched.accept_batch(mags, gross):
            seg = slice(start, stop)
            # Fused segment scatter: one pass drives the kept counts
            # into the pos/neg rows and tracks the post-add maximum.
            # Counters only grow within a segment, so its running max
            # equals the NumPy path's max over touched final values.
            touched = _kernels.try_csss_scatter(
                self.pos[r], self.neg[r], buckets[seg], eff_signs[seg],
                k_seg,
            )
            if touched is not None:
                if touched > self._max_abs_counter:
                    self._max_abs_counter = int(touched)
            else:
                nz = k_seg > 0
                if nz.any():
                    b = buckets[seg][nz]
                    s = eff_signs[seg][nz]
                    kv = k_seg[nz]
                    pos_m = s > 0
                    if pos_m.any():
                        np.add.at(self.pos[r], b[pos_m], kv[pos_m])
                        touched = int(self.pos[r][b[pos_m]].max())
                        if touched > self._max_abs_counter:
                            self._max_abs_counter = touched
                    neg_m = ~pos_m
                    if neg_m.any():
                        np.add.at(self.neg[r], b[neg_m], kv[neg_m])
                        touched = int(self.neg[r][b[neg_m]].max())
                        if touched > self._max_abs_counter:
                            self._max_abs_counter = touched
            while sched.needs_halving():
                self._halve_row(r)

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    # Reads no summed view: every row consumes exactly one acceptance
    # uniform per *update*, so summing duplicates would change which
    # uniforms exist and desynchronise the sampling streams from the
    # scalar loop.  A planned chunk still pays off through cached
    # unique-item hashing.
    def update_plan(self, plan) -> None:
        """Per row: one bucket and one sign hash pass over the chunk's
        unique items (cached on a planned chunk, and shared there with
        the :class:`CSSSWithTailEstimate` shadow, same-seeded copies and
        any value-equal consumer), one acceptance uniform per update
        (the scalar loop's draws), one inverse-CDF quantisation and one
        scatter-add per budget segment (:meth:`_apply_row`).  Acceptance
        randomness is keyed to updates and halving draws from a separate
        per-row stream, so the state, every generator included, is the
        same for every chunking of the input."""
        if plan.size == 0:
            return
        mags = plan.abs_deltas
        delta_signs = plan.delta_signs
        for r in range(self.depth):
            buckets = plan.values(self._bucket_hashes[r])
            eff_signs = plan.values(self._sign_hashes[r]) * delta_signs
            self._apply_row(r, buckets, eff_signs, mags, plan.gross_weight)

    def consume(self, stream) -> "CSSS":
        return consume_stream(self, stream)

    def merge(self, other: "CSSS") -> "CSSS":
        """Fold a same-seeded sibling's rows into this sketch.

        Requires identical dimensions, budget, and hash functions (by
        value — shards built by the same factory in worker processes
        qualify).  Rows at different sampling rates are aligned first by
        binomial thinning (subsampling composes), counters are added, and
        the budget/halving invariant is re-established; the result is a
        valid CSSS of the concatenated streams at the coarser rate.
        """
        if not isinstance(other, CSSS):
            raise ValueError("can only merge another CSSS")
        if (
            other.n != self.n
            or other.k != self.k
            or other.depth != self.depth
            or other.budget != self.budget
            or other._bucket_hashes != self._bucket_hashes
            or other._sign_hashes != self._sign_hashes
        ):
            raise ValueError("sketches do not share dimensions and seeds")
        for r in range(self.depth):
            sched = self._schedules[r]
            while sched.log2_inv_p < other._schedules[r].log2_inv_p:
                self._halve_row(r)
            opos = other.pos[r].copy()
            oneg = other.neg[r].copy()
            rng = self._halve_rngs[r]
            for _ in range(sched.log2_inv_p - other._schedules[r].log2_inv_p):
                opos = rng.binomial(opos, 0.5)
                oneg = rng.binomial(oneg, 0.5)
            self.pos[r] += opos
            self.neg[r] += oneg
            sched.weight = exact_sum(self.pos[r]) + exact_sum(self.neg[r])
            while sched.needs_halving():
                self._halve_row(r)
        self._max_abs_counter = max(
            self._max_abs_counter,
            other._max_abs_counter,
            int(self.pos.max(initial=0)),
            int(self.neg.max(initial=0)),
        )
        return self

    # -- query path ----------------------------------------------------------
    def query(self, item: int) -> float:
        """Point query ``y*_i``: median over rows of the rescaled signed
        cell contents (Figure 2, step 6)."""
        est = np.empty(self.depth, dtype=np.float64)
        for r in range(self.depth):
            b = self._bucket_hashes[r](item)
            signed = self._sign_hashes[r](item) * float(
                self.pos[r, b] - self.neg[r, b]
            )
            est[r] = signed * (2.0 ** self._schedules[r].log2_inv_p)
        return float(np.median(est))

    def query_all(self, items: np.ndarray | list[int]) -> np.ndarray:
        items_arr = np.asarray(items, dtype=np.int64)
        est = np.empty((self.depth, len(items_arr)), dtype=np.float64)
        net = self.pos - self.neg
        for r in range(self.depth):
            buckets = self._bucket_hashes[r].hash_array(items_arr)
            signs = self._sign_hashes[r].hash_array(items_arr)
            est[r] = signs * net[r, buckets] * (
                2.0 ** self._schedules[r].log2_inv_p
            )
        return np.median(est, axis=0)

    def heavy_candidates(self, threshold: float) -> set[int]:
        """All items whose point query is >= threshold in magnitude
        (identification cost is charged to query time, per Section 3):
        an exact pruned universe scan (:func:`median_scan_survivors`),
        then the :meth:`query_all` test on the survivors.

        Row ``r``'s magnitudes are ``float64(|net|) * 2^p_r``, the
        values :meth:`query_all` puts in its estimate matrix.
        """
        scale = 2.0 ** self.log2_inv_p.astype(np.float64)
        magnitudes = np.abs(self.pos - self.neg) * scale[:, None]
        items = median_scan_survivors(
            self.n, self._bucket_hashes, magnitudes, threshold
        )
        if items.size == 0:
            return set()
        estimates = self.query_all(items)
        return {int(i) for i in items[np.abs(estimates) >= threshold]}

    def row_l2_estimate(self, r: int) -> float:
        """Rescaled L2 of row r's net cells — estimates ``‖s_r‖_2`` where
        ``s_r`` is the row's rescaled sample (Lemma 4)."""
        net = (self.pos[r] - self.neg[r]).astype(np.float64)
        return float(np.sqrt((net**2).sum())) * (
            2.0 ** self._schedules[r].log2_inv_p
        )

    def best_k_sparse(
        self, estimates: np.ndarray | None = None
    ) -> dict[int, float]:
        """The best k-sparse approximation ``ŷ`` of ``y*`` (universe scan).

        ``estimates`` is ``query_all(np.arange(n))`` when the caller
        already holds it; otherwise the scan computes it.
        """
        if estimates is None:
            estimates = self.query_all(np.arange(self.n))
        order = np.argsort(-np.abs(estimates))[: self.k]
        return {int(i): float(estimates[i]) for i in order if estimates[i] != 0.0}

    def space_bits(self) -> int:
        """Cells at structural-capacity width + seeds + rate exponents.

        Counters are capped near the per-row sample budget *by
        construction* (the halving schedule), so capacity is
        O(log(budget)) = O(log(alpha log n / eps)) bits — the paper's
        headline saving over the baseline's O(log(mM)) counters.
        """
        cap = max(self.budget, self._max_abs_counter, 1)
        per_counter = counter_bits(cap, signed=False)
        cells = 2 * self.depth * self.width * per_counter
        seeds = sum(h.space_bits() for h in self._bucket_hashes)
        seeds += sum(g.space_bits() for g in self._sign_hashes)
        rate_bits = self.depth * max(
            1,
            max(1, max(s.log2_inv_p for s in self._schedules)).bit_length(),
        )
        return cells + seeds + rate_bits

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CSSS(n={self.n}, k={self.k}, eps={self.eps}, depth={self.depth}, "
            f"budget={self.budget})"
        )


class CSSSWithTailEstimate:
    """Two CSSS instances implementing the Lemma 5 tail-error estimator.

    Both instances see the whole stream.  At query time the best k-sparse
    approximation ``ŷ`` from the first is *subtracted* from the second
    (linearity), and the median surviving row-L2 — by Lemma 4 a constant-
    factor estimate of ``‖s - ŷ‖_2`` per row — is turned into a value v
    with ``Err_2^k(z) <= v <= O(√k ε ‖z‖_1 + Err_2^k(z))`` w.h.p.
    """

    def __init__(
        self,
        n: int,
        k: int,
        eps: float,
        alpha: float,
        rng: np.random.Generator,
        depth: int | None = None,
        sample_budget: int | None = None,
        sampling_seed=None,
    ) -> None:
        # Both instances draw hash seeds from the caller's generator in
        # sequence and spawn their own per-row sampling streams off it,
        # so their sampling is independent — matching the analysis, and
        # making the main/shadow update interleaving irrelevant to state.
        # A caller-supplied sampling_seed is split into two distinct
        # child seeds so main and shadow stay independent.
        seeds = (
            derive_sampling_seed(sampling_seed, 0),
            derive_sampling_seed(sampling_seed, 1),
        )
        self.main = CSSS(
            n, k, eps, alpha, rng, depth, sample_budget,
            sampling_seed=seeds[0],
        )
        self.shadow = CSSS(
            n, k, eps, alpha, rng, depth, sample_budget,
            sampling_seed=seeds[1],
        )

    @property
    def n(self) -> int:
        """The universe, the main instance's (the shadow's is the same)."""
        return self.main.n

    def update(self, item: int, delta: int) -> None:
        self.main.update(item, delta)
        self.shadow.update(item, delta)

    def update_batch(self, items, deltas) -> None:
        self.update_plan(ChunkPlan.unplanned(items, deltas, self.n))

    def update_plan(self, plan) -> None:
        """Update both instances from one plan (chunk-major; equivalent
        to the scalar loop because the instances sample from independent
        generators).  The chunk's unique items are computed once; the
        two instances' hash functions differ by seed, so each still
        evaluates its own."""
        self.main.update_plan(plan)
        self.shadow.update_plan(plan)

    def consume(self, stream) -> "CSSSWithTailEstimate":
        return consume_stream(self, stream)

    def merge(self, other: "CSSSWithTailEstimate") -> "CSSSWithTailEstimate":
        """Merge both constituent CSSS instances (same-seeded sibling)."""
        if not isinstance(other, CSSSWithTailEstimate):
            raise ValueError("can only merge another CSSSWithTailEstimate")
        self.main.merge(other.main)
        self.shadow.merge(other.shadow)
        return self

    def query(self, item: int) -> float:
        return self.main.query(item)

    def query_all(self, items) -> np.ndarray:
        return self.main.query_all(items)

    def tail_error_estimate(
        self, l1_of_stream: float, estimates: np.ndarray | None = None
    ) -> float:
        """The Lemma 5 value v (using ``‖f‖_1`` for the additive term).

        Computes ``ŷ`` from the main instance, virtually subtracts it from
        the shadow instance's rows, and returns
        ``2 * median_r ‖row_r residual‖_2 + 5 ε ‖f‖_1``.  ``estimates``
        is the main instance's universe ``query_all`` when the caller
        already holds it (:meth:`CSSS.best_k_sparse`).
        """
        y_hat = self.main.best_k_sparse(estimates)
        shadow = self.shadow
        residual_l2 = np.empty(shadow.depth, dtype=np.float64)
        for r in range(shadow.depth):
            net = (shadow.pos[r] - shadow.neg[r]).astype(np.float64) * (
                2.0 ** int(shadow.log2_inv_p[r])
            )
            # Subtract y_hat's contribution from this row (linearity of
            # Countsketch: item i adds g_r(i) * y_hat_i to cell h_r(i)).
            for i, w in y_hat.items():
                b = shadow._bucket_hashes[r](i)
                net[b] -= shadow._sign_hashes[r](i) * w
            residual_l2[r] = float(np.sqrt((net**2).sum()))
        v = 2.0 * float(np.median(residual_l2)) + 5.0 * self.main.eps * l1_of_stream
        return v

    def space_bits(self) -> int:
        return self.main.space_bits() + self.shadow.space_bits()
