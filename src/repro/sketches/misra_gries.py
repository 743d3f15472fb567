"""Misra-Gries / SpaceSaving: the insertion-only heavy hitters endpoint.

Figure 1's α = 1 endpoint: insertion-only ε-heavy hitters take
``O(ε⁻¹ log n)`` bits [10].  Misra-Gries keeps ``ceil(1/ε) - 1`` (item,
counter) pairs; on an unmatched item with no free slot every counter is
decremented.  The classic guarantee: the tracked estimate of any item
undercounts by at most ``ε m``, so every ε-heavy hitter survives with a
non-zero counter.

This is a *baseline endpoint*, not an α-property algorithm: it is only
correct for insertion-only streams (α = 1), and it anchors the benchmark
tables at the regime the paper's algorithms converge to as α → 1.
"""

from __future__ import annotations

import numpy as np

from repro.batch import as_update_arrays, exact_sum
from repro.space.accounting import counter_bits


class MisraGries:
    """Deterministic insertion-only ε-heavy hitters summary.

    ``update_batch`` is segmented: runs of updates whose items are all
    currently tracked are pure counter additions (no eviction can occur)
    and fold as one grouped scatter-add; only the updates that touch an
    *untracked* item — the ones that can insert or trigger the shared
    decrement — take the scalar step, at exactly their stream position.
    Bit-identical to the scalar loop at every chunk size; the speedup
    tracks the fraction of stream mass landing on tracked items, which
    is precisely the regime heavy-hitter summaries are built for.

    Parameters
    ----------
    n:
        Universe size (only used for id-width space accounting).
    eps:
        Threshold; ``ceil(1/eps) - 1`` counters are kept.
    """

    #: Read by :class:`repro.streams.engine.ChunkDriver`, whose admission
    #: refuses every deletion before a chunk reaches any consumer.
    insertion_only = True

    def __init__(self, n: int, eps: float) -> None:
        if not 0 < eps < 1:
            raise ValueError("eps must be in (0, 1)")
        self.n = int(n)
        self.eps = float(eps)
        self.capacity = max(1, int(-(-1 // eps)) - 1)  # ceil(1/eps) - 1
        self._counters: dict[int, int] = {}
        self._m = 0
        self._max_counter = 0

    def update(self, item: int, delta: int) -> None:
        """Process ``delta`` insertions of ``item`` (delta must be > 0)."""
        if delta <= 0:
            raise ValueError(
                "Misra-Gries is insertion-only (the alpha = 1 endpoint); "
                "use the alpha-property algorithms for deletions"
            )
        self._m += delta
        counters = self._counters
        if item in counters:
            counters[item] += delta
        elif len(counters) < self.capacity:
            counters[item] = delta
        else:
            # Decrement everything by the largest amount delta covers;
            # the classic algorithm decrements by 1 per unmatched unit,
            # batched here: decrement by d = min(delta, min counter).
            remaining = delta
            while remaining > 0:
                smallest = min(counters.values())
                if len(counters) < self.capacity:
                    counters[item] = counters.get(item, 0) + remaining
                    break
                dec = min(remaining, smallest)
                remaining -= dec
                for key in list(counters):
                    counters[key] -= dec
                    if counters[key] == 0:
                        del counters[key]
        if counters:
            self._max_counter = max(self._max_counter, max(counters.values()))

    #: Runs shorter than this take a tight dict loop — the numpy
    #: group-by machinery only amortises on longer runs.
    _RUN_VECTOR_THRESHOLD = 64

    #: Chunk-remainder rescans allowed before a chunk bails to the
    #: scalar loop (see :meth:`update_batch`) — bounds the worst case at
    #: O(_MAX_PHASE_SCANS · chunk) array work per chunk.
    _MAX_PHASE_SCANS = 32

    def _add_run(self, items_arr, deltas_arr, start: int, stop: int) -> None:
        """Adds for a run of updates whose items are all tracked
        (counters only grow, the tracked set cannot change — exactly the
        scalar sequence).  Long runs group-by-scatter; short runs loop
        (exact Python ints either way)."""
        counters = self._counters
        if stop - start < self._RUN_VECTOR_THRESHOLD:
            maxc = self._max_counter
            total = 0
            for key, v in zip(
                items_arr[start:stop].tolist(),
                deltas_arr[start:stop].tolist(),
            ):
                c = counters[key] + v
                counters[key] = c
                total += v
                if c > maxc:
                    maxc = c
            self._max_counter = maxc
            self._m += total
            return
        seg_items = items_arr[start:stop]
        seg_deltas = deltas_arr[start:stop]
        uniq, inverse = np.unique(seg_items, return_inverse=True)
        exact = (
            float(np.abs(seg_deltas).astype(np.float64).sum()) >= 2.0**62
        )
        sums = np.zeros(len(uniq), dtype=object if exact else np.int64)
        np.add.at(
            sums, inverse, seg_deltas.astype(object) if exact else seg_deltas
        )
        for key, v in zip(uniq.tolist(), sums.tolist()):
            counters[key] += v
        self._m += exact_sum(seg_deltas)
        self._max_counter = max(self._max_counter, max(counters.values()))

    def _tracked_keys_array(self) -> np.ndarray:
        return np.fromiter(
            self._counters.keys(), dtype=np.int64, count=len(self._counters)
        )

    def _fill_stop(self, items_arr: np.ndarray, pos: int) -> int:
        """Largest ``stop`` such that replaying ``[pos, stop)`` can only
        add or insert: the table never reaches capacity with an
        unmatched item, so no decrement can fire and order is free."""
        room = self.capacity - len(self._counters)
        if room <= 0:
            return pos
        seg = items_arr[pos:]
        new_mask = ~np.isin(seg, self._tracked_keys_array())
        if not new_mask.any():
            return len(items_arr)
        new_positions = np.nonzero(new_mask)[0]
        _, first_idx = np.unique(seg[new_positions], return_index=True)
        first_positions = np.sort(new_positions[first_idx])
        if len(first_positions) <= room:
            return len(items_arr)
        # The (room + 1)-th distinct new key is the first update that can
        # find the table full; everything before it is order-free.
        return pos + int(first_positions[room])

    def _bulk_upsert(self, items_arr, deltas_arr, start: int, stop: int) -> None:
        """Grouped adds/inserts for a fill-phase region (the table never
        fills mid-region, so insert order is unobservable)."""
        counters = self._counters
        seg_items = items_arr[start:stop]
        seg_deltas = deltas_arr[start:stop]
        uniq, inverse = np.unique(seg_items, return_inverse=True)
        exact = (
            float(np.abs(seg_deltas).astype(np.float64).sum()) >= 2.0**62
        )
        sums = np.zeros(len(uniq), dtype=object if exact else np.int64)
        np.add.at(
            sums, inverse, seg_deltas.astype(object) if exact else seg_deltas
        )
        for key, v in zip(uniq.tolist(), sums.tolist()):
            counters[key] = counters.get(key, 0) + v
        self._m += exact_sum(seg_deltas)
        self._max_counter = max(self._max_counter, max(counters.values()))

    def update_batch(self, items, deltas) -> None:
        """Segmented batch update, bit-identical to the scalar loop.

        Two order-free regimes cover almost every update:

        * **fill phase** (table below capacity): adds and inserts only —
          the region up to the first update that can meet a full table
          is one grouped upsert (:meth:`_fill_stop`);
        * **full phase**: runs of updates on tracked items are pure adds
          between the untracked positions (one ``isin`` pass per phase
          entry), grouped or tight-looped by run length.

        Only the updates that can trigger the shared decrement — an
        untracked item meeting a full table — take the scalar step, at
        exactly their stream position; an eviction re-opens the fill
        phase.  The speedup therefore tracks the fraction of stream mass
        on tracked items, which is the regime heavy-hitter summaries are
        built for.

        Each phase entry rescans the chunk remainder once (``isin``), so
        eviction-heavy adversarial streams could otherwise degrade to
        O(chunk²): after ``_MAX_PHASE_SCANS`` rescans in one chunk the
        remainder simply replays through the scalar loop — identical
        state (the scalar loop *is* the contract), and never more than a
        constant factor over the pre-vectorisation cost.
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        if len(items_arr) == 0:
            return
        if int(deltas_arr.min()) <= 0:
            raise ValueError(
                "Misra-Gries is insertion-only (the alpha = 1 endpoint); "
                "use the alpha-property algorithms for deletions"
            )
        m = len(items_arr)
        counters = self._counters
        pos = 0
        pending: list[int] | None = None  # untracked positions, full phase
        cursor = 0
        scans = 0
        while pos < m:
            if scans > self._MAX_PHASE_SCANS:
                for key, v in zip(
                    items_arr[pos:].tolist(), deltas_arr[pos:].tolist()
                ):
                    self.update(key, v)
                return
            if len(counters) < self.capacity:
                scans += 1
                stop = self._fill_stop(items_arr, pos)
                if stop > pos:
                    self._bulk_upsert(items_arr, deltas_arr, pos, stop)
                    pos = stop
                    pending = None
                    continue
            if pending is None:
                scans += 1
                pending = (
                    pos
                    + np.nonzero(
                        ~np.isin(items_arr[pos:], self._tracked_keys_array())
                    )[0]
                ).tolist()
                cursor = 0
            while cursor < len(pending) and pending[cursor] < pos:
                cursor += 1
            stop = pending[cursor] if cursor < len(pending) else m
            if stop > pos:
                self._add_run(items_arr, deltas_arr, pos, stop)
                pos = stop
                continue
            # Scalar step: an untracked-at-scan item meeting a full table
            # (a stale entry for a since-inserted key adds identically).
            before = set(counters)
            self.update(int(items_arr[pos]), int(deltas_arr[pos]))
            pos += 1
            cursor += 1
            if not before <= counters.keys():
                pending = None  # eviction: tracked set shrank

    def merge(self, other: "MisraGries") -> "MisraGries":
        """Fold another summary in (mergeable-summaries [ACH+12]).

        Counters add; if more than ``capacity`` keys survive, every
        counter is reduced by the ``(capacity + 1)``-th largest value and
        non-positive entries drop — the classic merge that keeps the MG
        guarantee additive: the merged undercount is at most
        ``eps * m_a + eps * m_b = eps * m``.  Not bit-identical to a
        single-pass summary (Misra-Gries is order-dependent), but it
        carries the same certificate, which is what a merge needs.
        """
        if (
            not isinstance(other, MisraGries)
            or other.capacity != self.capacity
            or other.n != self.n
        ):
            raise ValueError("summaries are not shard-compatible")
        merged = dict(self._counters)
        for key, v in other._counters.items():
            merged[key] = merged.get(key, 0) + v
        if len(merged) > self.capacity:
            cut = sorted(merged.values(), reverse=True)[self.capacity]
            merged = {k: v - cut for k, v in merged.items() if v > cut}
        self._counters = merged
        self._m += other._m
        self._max_counter = max(self._max_counter, other._max_counter)
        return self

    def consume(self, stream) -> "MisraGries":
        for u in stream:
            self.update(u.item, u.delta)
        return self

    def query(self, item: int) -> int:
        """Tracked estimate; undercounts the truth by at most ``eps * m``."""
        return self._counters.get(item, 0)

    def heavy_hitters(self) -> set[int]:
        """Superset of the ε-heavy hitters (classical MG guarantee)."""
        return set(self._counters)

    def heavy_hitters_above(self, threshold: float) -> set[int]:
        """Items whose tracked count exceeds ``threshold - eps*m`` — used
        to report certified ε-heavy hitters only."""
        cutoff = threshold - self.eps * self._m
        return {i for i, c in self._counters.items() if c > cutoff}

    @property
    def stream_length(self) -> int:
        return self._m

    def space_bits(self) -> int:
        id_bits = max(1, int(self.n - 1).bit_length())
        value_bits = counter_bits(max(1, self._max_counter), signed=False)
        return self.capacity * (id_bits + value_bits)
