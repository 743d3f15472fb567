"""Order-insensitive sampling schedules — the shared batch-update core.

Every α-property structure in the paper interleaves *what it stores*
(counters, tables, CountSketch vectors) with *when it samples* (Morris-
paced intervals, budgeted adaptive rates, precision-sampling weights,
estimate-steered windows).  The storage is easy to vectorise; the
schedules are what historically forced scalar loops.  This module
extracts the scheduling machinery pioneered for CSSS (PR 2) into
reusable primitives, each with the same contract:

    Randomness is keyed to *stream positions*, never to processing
    order, so replaying a stream in chunks of any size consumes the
    generators identically to the scalar loop — batch state is
    bit-identical to scalar state.

Primitives
----------
* :class:`PacedCounterSchedule` — Morris-style geometric pacing.  One
  uniform per event from a dedicated stream; the counter bumps iff
  ``u < a^-v``.  ``advance_batch`` finds bump positions by vectorised
  geometric-gap skipping (`repro.counters.morris.MorrisCounter.
  bump_positions`), so position-estimate-steered interval schedules
  (Figure 4, Theorem 2) can segment a chunk at the (rare) bumps.
* :class:`AdaptiveSamplingSchedule` — the Figure 2 step-5a engine: per
  update one uniform, quantised to ``Bin(|Δ|, 2^-p)`` via the binomial
  inverse CDF; when the retained budget overflows mid-chunk the caller
  halves its structure and the *tail of the chunk is re-quantised from
  the same uniforms* at the new rate.  Extracted from ``core/csss.py``;
  CSSS rows and ``SampledFrequencies`` run on it.  The Theorem 8
  counters do not: :meth:`~repro.core.l1_estimation.
  AlphaL1EstimatorGeneral.update_plan` thins each (update, row) pair
  with one ``binomial_thin`` call from one generator, in a Python loop
  (about 1.6M calls per 4096-update chunk at n = 2^16, ε = 1/8).
* :class:`PrecisionSamplingSchedule` — per-key threshold acceptance
  (Section 4): deterministic fixed-point weights ``round(1/t_i)`` from
  :class:`~repro.hashing.kwise.UniformScalars.inverse_weight_array`,
  plus exact span-splitting around the rare updates whose scaled
  magnitude would overflow int64.
* Live windows — the levels or rows that Lemma 20, Figures 4, 7 and 8
  and Theorem 2 store.  :func:`log_window` places the estimate-steered
  windows and :func:`exponential_interval_window` the ``I_r = [s^r,
  s^(r+2)]`` interval rule; :func:`sync_window` is the one place a
  level is born or retired; and :func:`drive_segments` is the one
  batch loop, fed ``(t, wanted)`` window moves by
  :func:`estimate_changes` (the rough estimate moves only at KMV fold
  candidates), by :func:`exponential_interval_changes` (exact position
  pacing) or by the Morris bumps.

``tests/test_schedules.py`` pins the chunking-invariance of each
primitive directly; ``tests/test_batch_equivalence.py`` pins it end to
end through every consuming structure.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.batch import exact_sum, running_sums
from repro.core.sampling import binomial_from_uniform, binomial_from_uniforms
from repro.counters.morris import MorrisCounter


class PacedCounterSchedule:
    """Morris pacing with order-insensitive randomness consumption.

    Owns a dedicated uniform stream (pass a freshly spawned generator):
    every event consumes exactly one uniform whether it is offered
    scalar (:meth:`advance`) or as a block (:meth:`advance_batch`), so
    the pacing trajectory — and anything steered by it — is identical
    for every chunking.

    >>> import numpy as np
    >>> a = PacedCounterSchedule(np.random.default_rng(0))
    >>> b = PacedCounterSchedule(np.random.default_rng(0))
    >>> bumps = a.advance_batch(100)
    >>> scalar_bumps = [t for t in range(100) if b.advance()]
    >>> bumps.tolist() == scalar_bumps and a.v == b.v
    True
    """

    def __init__(self, rng: np.random.Generator, a: float = 2.0) -> None:
        self._rng = rng
        self.counter = MorrisCounter(rng, a=a)

    @property
    def v(self) -> int:
        return self.counter.v

    @property
    def estimate(self) -> float:
        """The Morris estimate of the number of events paced so far."""
        return self.counter.estimate

    def estimate_at(self, v: int) -> float:
        """The estimate the counter would report at exponent ``v`` —
        used to evaluate a window at an in-chunk bump position."""
        a = self.counter.a
        return (a**v - 1.0) / (a - 1.0)

    def advance(self) -> bool:
        """Pace one event (one uniform); True iff the counter bumped."""
        return self.counter.increment_from_uniform(self._rng.random())

    def advance_batch(self, m: int) -> np.ndarray:
        """Pace ``m`` events (one block of ``m`` uniforms); returns the
        0-based positions at which the counter bumped."""
        if m < 0:
            raise ValueError("m must be non-negative")
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        return self.counter.bump_positions(self._rng.random(m))

    def space_bits(self) -> int:
        return self.counter.space_bits()


class AdaptiveSamplingSchedule:
    """Budgeted adaptive-rate acceptance, keyed to a dedicated uniform
    stream (Figure 2, step 5a — extracted from the CSSS rows).

    Each update consumes exactly one uniform regardless of the current
    rate; the uniform is quantised to ``Bin(|Δ|, 2^-log2_inv_p)``
    through the binomial inverse CDF.  The schedule tracks the retained
    weight; *halving the structure is the caller's job* (thinning draws
    belong to the structure's own halving stream), reported back via
    :meth:`register_halving`.  Because acceptance randomness is keyed to
    updates and a mid-chunk overflow re-quantises the chunk tail from
    the same uniforms, chunk boundaries can never change the state.
    """

    def __init__(self, budget: int, rng: np.random.Generator) -> None:
        if budget < 1:
            raise ValueError("budget must be positive")
        self.budget = int(budget)
        self._rng = rng
        self.log2_inv_p = 0
        self.weight = 0

    @property
    def rate(self) -> float:
        """Current acceptance rate ``2^-log2_inv_p``."""
        return 2.0**-self.log2_inv_p

    def quantise(self, u: np.ndarray, mags: np.ndarray) -> np.ndarray:
        """Retained magnitudes for a block at the *current* rate (rate 1
        keeps everything; the uniforms are still owned by the updates, so
        callers may re-quantise the same block after a rate change)."""
        if self.log2_inv_p <= 0:
            return mags.copy()
        return binomial_from_uniforms(u, mags, 2.0**-self.log2_inv_p)

    def offer(self, mag: int) -> int:
        """Scalar acceptance: one uniform, retained magnitude booked."""
        u = self._rng.random()
        exp = self.log2_inv_p
        kept = mag if exp <= 0 else binomial_from_uniform(u, mag, 2.0**-exp)
        self.weight += kept
        return kept

    def needs_halving(self) -> bool:
        return self.weight > self.budget

    def register_halving(self, new_weight: int) -> None:
        """The caller thinned its structure by 1/2; record the halved
        rate and the re-measured retained weight."""
        self.log2_inv_p += 1
        self.weight = int(new_weight)

    def accept_batch(
        self, mags: np.ndarray, gross: int | None = None
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Vectorised acceptance of a chunk of magnitudes.

        Draws one uniform per update, quantises the whole block at the
        current rate, and yields ``(start, stop, kept)`` segments: each
        segment either exhausts the chunk or ends at the first budget
        overflow.  After an overflow segment the caller must halve its
        structure (calling :meth:`register_halving`) before resuming the
        iterator; the tail is then re-quantised from the same uniforms
        at the new rate — exactly the scalar trajectory.

        ``gross`` is the chunk's exact ``Σ mags`` (computed here when
        omitted), so callers feeding one chunk to many schedules pay
        for it once.  At rate 1 with ``weight + gross <= budget`` the
        chunk is kept whole: every prefix of the non-negative ``mags``
        is at most that sum, so the walk below would yield the same
        single segment and book the same weight.  ``mags`` itself is
        then the yielded segment — callers must not write to it.
        """
        m = len(mags)
        if m == 0:
            return
        u = self._rng.random(m)
        if self.log2_inv_p <= 0:
            if gross is None:
                gross = exact_sum(mags)
            if self.weight + gross <= self.budget:
                self.weight += gross
                yield 0, m, mags
                return
        kept = self.quantise(u, mags)
        start = 0
        while start < m:
            # Exact prefix sums: retained magnitudes can approach 2^63,
            # where a plain int64 cumsum would wrap and flip the budget
            # comparison (the scalar offer() path is exact Python ints).
            running = running_sums(kept[start:], self.weight)
            over = np.nonzero(running > self.budget)[0]
            stop = start + int(over[0]) + 1 if over.size else m
            seg = kept[start:stop]
            self.weight += exact_sum(seg)
            yield start, stop, seg
            if over.size and stop < m:
                kept[stop:] = self.quantise(u[stop:], mags[stop:])
            start = stop

    def space_bits(self) -> int:
        from repro.space.accounting import counter_bits

        return max(1, self.log2_inv_p.bit_length()) + counter_bits(
            max(1, self.weight), signed=False
        )


class PrecisionSamplingSchedule:
    """Per-key threshold acceptance for precision sampling (Section 4).

    Wraps :class:`~repro.hashing.kwise.UniformScalars`: every update to
    key ``i`` is scaled by the deterministic fixed-point weight
    ``round(1/t_i)``.  The schedule owns the two numeric hazards of the
    scaled stream: evaluating the weights vectorised, and splitting a
    chunk into int64-safe spans around the (rare) updates whose scaled
    magnitude could overflow — those single updates take the exact
    Python-int path while everything around them stays vectorised.
    """

    #: Products bounded below this are safe in int64 (one power of two
    #: of headroom under 2^63 absorbs float rounding slack).
    _SAFE_BOUND = 2.0**62

    def __init__(self, scalars) -> None:
        self.scalars = scalars

    def weight(self, item: int) -> int:
        """Fixed-point ``max(1, round(1/t_item))``."""
        return self.scalars.inverse_weight(item)

    def weight_array(self, items: np.ndarray) -> np.ndarray:
        return self.scalars.inverse_weight_array(items)

    def scaled_spans(
        self, items: np.ndarray, deltas: np.ndarray
    ) -> Iterator[tuple[str, int, int, np.ndarray | int]]:
        """Split a chunk into int64-safe vectorised spans.

        Yields ``("batch", start, stop, scaled_int64)`` for maximal
        spans whose products provably fit int64, and ``("scalar", t,
        t + 1, exact_python_int)`` for each overflowing update.  The
        concatenation covers the chunk in order, so feeding the spans to
        a batch/scalar pair of bit-identical paths reproduces the scalar
        loop exactly.
        """
        weights = self.weight_array(items)
        bound = np.abs(deltas).astype(np.float64) * weights.astype(np.float64)
        bad = np.nonzero(bound >= self._SAFE_BOUND)[0]
        if bad.size == 0:
            yield "batch", 0, len(items), deltas * weights
            return
        start = 0
        for t in bad.tolist():
            if t > start:
                yield "batch", start, t, deltas[start:t] * weights[start:t]
            yield "scalar", t, t + 1, int(deltas[t]) * int(weights[t])
            start = t + 1
        if start < len(items):
            yield "batch", start, len(items), deltas[start:] * weights[start:]

    def space_bits(self) -> int:
        return self.scalars.space_bits()


class IntervalAcceptance:
    """One live interval level's acceptance stream.

    A fixed rate and — for rates below 1 — a level-private uniform
    stream spawned from ``parent`` at level birth: exactly one uniform
    per offered update, scalar (:meth:`accept`) or block
    (:meth:`accept_batch`), so scalar and chunked feeding consume
    identically.  The shared primitive under the Figure 4 interval
    counters and the Theorem 2 interval CountSketch vectors — one
    implementation, one bit-identity contract.
    """

    def __init__(self, rate: float, parent: np.random.Generator) -> None:
        self.rate = float(min(1.0, rate))
        # None at rate 1: nothing to draw, and nothing spawned.
        self.rng = parent.spawn(1)[0] if self.rate < 1.0 else None

    def accept(self, mag: int) -> int:
        """Retained magnitude of one update (one uniform at rate < 1)."""
        if self.rng is None:
            return mag
        return binomial_from_uniform(self.rng.random(), mag, self.rate)

    def accept_batch(self, mags: np.ndarray) -> np.ndarray:
        """Retained magnitudes for a block (one uniform per update)."""
        if self.rng is None:
            return mags
        return binomial_from_uniforms(
            self.rng.random(len(mags)), mags, self.rate
        )


def sync_window(live: dict, wanted, make: Callable[[int], object]) -> None:
    """Build each key of ``wanted`` that ``live`` lacks, then delete the
    keys outside ``wanted``.

    The one place a windowed level or row is born or retired (Lemma 20,
    Figures 4, 7 and 8, Theorem 2).  Keys are built in ``wanted``'s own
    iteration order: factories draw seeds or spawn streams from a shared
    generator, so that order is part of the random realisation.

    >>> live = {0: "a", 1: "b"}
    >>> sync_window(live, range(1, 4), lambda j: f"new{j}")
    >>> live
    {1: 'b', 2: 'new2', 3: 'new3'}
    """
    for j in wanted:
        if j not in live:
            live[j] = make(j)
    for j in [j for j in live if j not in wanted]:
        del live[j]


def log_window(x: float, half: int, top: int) -> range:
    """Levels within ``half`` of ``round(log2 x)``, clamped to
    ``[0, top]`` (``x`` below 1 counts as 1): the placement of every
    estimate-steered window (Lemma 20, Figures 7 and 8).

    >>> log_window(1000.0, 2, 16), log_window(0.5, 2, 16), log_window(2**15, 2, 16)
    (range(8, 13), range(0, 3), range(13, 17))
    """
    center = int(np.round(np.log2(max(1.0, x))))
    return range(max(0, center - half), min(top, center + half) + 1)


def drive_segments(
    m: int,
    changes: Iterable[tuple[int, object]],
    current: object,
    route: Callable[[int, int], None],
    sync: Callable[[object, int], None],
) -> None:
    """The one segment loop of every live-window batch path.

    ``changes`` yields ``(t, wanted)``: the window the scalar loop holds
    from chunk position ``t`` on, in stream order (entries that repeat
    the window are skipped).  Each non-empty constant-window span
    ``[start, t)`` is routed against the live levels, then
    ``sync(wanted, t)`` creates and retires levels at exactly the scalar
    stream position; the trailing span closes the chunk.  ``current`` is
    the window the chunk starts under.
    """
    start = 0
    window = current
    for t, wanted in changes:
        if wanted != window:
            if t > start:
                route(start, t)
            sync(wanted, t)
            window = wanted
            start = t
    route(start, m)


def estimate_changes(
    rough, hash_values: np.ndarray, window: Callable[[], object]
) -> Iterator[tuple[int, object]]:
    """Lazy ``(t, window())`` source for :func:`drive_segments` over a
    rough-F0-steered chunk (Lemma 20, Figures 7 and 8).

    The rough estimate can only move at KMV *fold candidates*, so this
    walks the candidates, folds the state-changing hash values and
    yields at each estimate move.  ``window`` reads the estimate; the
    fold at ``t`` happens just before its yield, so the window is the
    one the scalar loop holds from ``t`` on.

    ``rough`` must expose ``fold_candidates`` / ``would_change`` /
    ``observe_hash`` / ``estimate`` (see
    :class:`repro.core.l0_estimation.AlphaRoughL0Estimate`).
    """
    last = rough.estimate()
    for t in rough.fold_candidates(hash_values).tolist():
        hv = int(hash_values[t])
        if not rough.would_change(hv):
            continue  # no-op fold
        rough.observe_hash(hv)
        estimate = rough.estimate()
        if estimate != last:
            last = estimate
            yield t, window()


def exponential_interval_window(v: float, s: int) -> range:
    """Live levels ``r`` with ``v ∈ I_r = [s^r, s^(r+2)]``.

    The shared interval rule of Figure 4 (strict L1) and Theorem 2
    (inner products): below ``s`` only level 0 is live; above, the top
    two levels ``{top - 1, top}`` with ``top = floor(log_s v)``.

    >>> exponential_interval_window(3.0, 10), exponential_interval_window(250.0, 10)
    (range(0, 1), range(1, 3))
    """
    if v < s:
        return range(0, 1)
    top = int(np.floor(np.log(v) / np.log(s)))
    return range(max(0, top - 1), top + 1)


def exponential_interval_changes(
    t0: int, m: int, s: int, current: range
) -> list[tuple[int, range]]:
    """In-chunk window moves under *exact* position pacing.

    For stream positions ``t0+1 .. t0+m`` (the chunk's updates), returns
    the chunk-relative positions where
    :func:`exponential_interval_window` differs from the window at the
    previous position (seeded with ``current``), each with its new
    window.  The float math matches the scalar rule operation-for-
    operation, so the detected positions are exactly where the scalar
    loop re-syncs its levels.
    """
    positions = np.arange(t0 + 1, t0 + m + 1, dtype=np.float64)
    top = np.floor(np.log(positions) / np.log(s)).astype(np.int64)
    lo = np.maximum(0, top - 1)
    hi = top.copy()
    small = positions < s
    lo[small] = 0
    hi[small] = 0
    boundary = np.empty(m, dtype=bool)
    boundary[0] = (int(lo[0]), int(hi[0])) != (current.start, current.stop - 1)
    boundary[1:] = (np.diff(lo) != 0) | (np.diff(hi) != 0)
    return [
        (t, range(int(lo[t]), int(hi[t]) + 1))
        for t in np.nonzero(boundary)[0].tolist()
    ]
