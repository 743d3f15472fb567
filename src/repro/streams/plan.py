"""Chunk planning: shared per-chunk precomputation for the replay engine.

After the batch pipeline (PR 1-3) removed the per-update Python loop, the
remaining redundancy in a hot replay is *inside* each chunk:

* **Duplicate items.**  On skewed streams a 4096-update chunk touches far
  fewer distinct items than updates, yet every linear sketch hashes and
  scatter-adds each occurrence separately.  ℤ-linear structures (the
  criterion is on :attr:`ChunkPlan.summed_deltas`) can instead absorb one
  ``(unique_item, summed_delta)`` pair per distinct item — bit-identical
  by additivity, 3-10x less scatter/hash work at zipf skew.
* **Repeated hashing.**  ``replay_many`` and composed structures (heavy
  hitters = CSSS + norm tracker, the Theorem 2 sketch *pair* sharing one
  context, main/shadow CSSS) evaluate k-wise hash polynomials over the
  same chunk once per consumer.  Hash values depend only on the item, so
  one evaluation over the chunk's *unique* items, gathered back through
  the inverse index, serves every consumer — and because the cache is
  keyed by hash-function **value** (:meth:`repro.hashing.kwise.KWiseHash.
  __eq__`), value-equal hash functions across different sketch objects
  (same-seeded shards, shared Theorem 2 contexts) hit the same entry.
* **Allocation churn.**  The unique/inverse/sum precomputation itself is
  served from preallocated dense workspaces owned by the planner when
  the universe is known and small (ROADMAP lever d), so chunk planning
  costs array passes, not allocations.

:class:`ChunkPlan` packages one admitted chunk plus all of the above,
computed lazily and at most once (:meth:`ChunkPlan.unplanned` validates
and packages a bare one, with none of it).  :class:`ChunkPlanner` owns the
workspaces and builds one plan per chunk; the engine
(:mod:`repro.streams.engine`) threads plans to every structure that
implements ``update_plan(plan)`` (see :func:`repro.batch.supports_plan`).
Plans are built only from columns admitted before the driver saw them
(``StreamSession.push`` and ``Stream`` construction validate them) and
only for consumers the driver admitted over the plan's universe, so
neither the plan nor ``update_plan`` re-checks them.

``update_plan`` is each such structure's one vectorised body: its
``update_batch`` is ``update_plan`` over :meth:`ChunkPlan.unplanned`, a
plan whose unique view is the bare chunk (identity gathers, per-update
"sums", no cache).  ``update_plan(plan)`` and ``update_batch(plan.items,
plan.deltas)`` therefore run the same code, and they leave the structure
bit-identical because the two plans' views agree: a gathered
unique-item evaluation is the per-update one, coalescing is only
consumed by structures whose state is linear over the integers, and
sampling structures read the full per-update columns so their RNG
consumption never depends on planning.

>>> import numpy as np
>>> planner = ChunkPlanner(universe=8)
>>> plan = planner.plan(np.array([3, 1, 3]), np.array([2, -1, 5]))
>>> plan.unique_items.tolist(), plan.summed_deltas.tolist()
([1, 3], [-1, 7])
>>> plan.gather(np.array([10, 20])).tolist()   # unique -> chunk order
[20, 10, 20]
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.batch import as_update_arrays, exact_sum

#: Summed coalesced deltas are folded in int64; a chunk whose gross
#: weight reaches this bound could wrap, so coalescing is refused and
#: consumers fall back to an unplanned plan of the same chunk.
_INT64_SAFE_BOUND = 2**62

#: Dense unique/sum workspaces pay O(universe) per chunk; above this
#: multiple of the chunk length the sort-based path is cheaper.
_DENSE_UNIVERSE_FACTOR = 8


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a cached view read-only: one plan feeds many consumers, so
    an in-place write by one would silently corrupt every later one."""
    arr.flags.writeable = False
    return arr


class ChunkPlan:
    """One admitted chunk plus its lazily computed shared views.

    Built by :class:`ChunkPlanner` over ``int64`` columns that were
    validated upstream; consumed by ``update_plan`` implementations.
    Everything is computed at most once per chunk and shared by every
    consumer fed from the same plan.
    """

    def __init__(
        self,
        items: np.ndarray,
        deltas: np.ndarray,
        universe: int | None,
        planner: "ChunkPlanner | None" = None,
    ) -> None:
        self.items, self.deltas = items, deltas
        self.n = universe
        self._planner = planner
        self._cache: dict = {}
        self._unique: np.ndarray | None = None
        self._inverse: np.ndarray | None = None
        self._sums: np.ndarray | None = None
        self._nonzero: np.ndarray | None = None
        self._nonzero_known = False
        self._gross: int | None = None
        self._abs: np.ndarray | None = None
        self._signs: np.ndarray | None = None

    @classmethod
    def unplanned(
        cls, items: np.ndarray, deltas: np.ndarray, universe: int | None
    ) -> "ChunkPlan":
        """A plan over a bare chunk, read by one structure.

        Every ``update_batch`` of a plan consumer is its ``update_plan``
        over one of these, so this is where a direct ``update_batch``
        validates its raw columns (:func:`~repro.batch.as_update_arrays`
        against ``universe``).  The chunk is its own unique view:
        :attr:`inverse` is ``None``, :meth:`gather` is the identity, and
        the summed views are the per-update columns (nothing is summed,
        so :attr:`coalesce_safe` holds at any weight).  :meth:`unique_values` evaluates without
        caching, since no other consumer shares the plan, and neither
        column is frozen: they may be the caller's own arrays.

        >>> plan = ChunkPlan.unplanned(np.array([3, 1, 3]),
        ...                            np.array([2, -1, 5]), 8)
        >>> plan.unique_items.tolist(), plan.inverse
        ([3, 1, 3], None)
        >>> plan.summed_deltas.tolist(), plan.gather(plan.deltas).tolist()
        ([2, -1, 5], [2, -1, 5])
        """
        return _UnplannedChunk(
            *as_update_arrays(items, deltas, universe), universe
        )

    # -- chunk-level views ---------------------------------------------------
    @property
    def size(self) -> int:
        return int(self.items.shape[0])

    @property
    def abs_deltas(self) -> np.ndarray:
        """``|Δ_t|`` per update (shared by every sampling consumer)."""
        if self._abs is None:
            self._abs = _frozen(np.abs(self.deltas))
        return self._abs

    @property
    def delta_signs(self) -> np.ndarray:
        """``sign(Δ_t)`` in {-1, +1} per update."""
        if self._signs is None:
            self._signs = _frozen(np.where(self.deltas > 0, 1, -1))
        return self._signs

    @property
    def gross_weight(self) -> int:
        """``Σ_t |Δ_t|`` as an exact Python int."""
        if self._gross is None:
            self._gross = exact_sum(self.abs_deltas)
        return self._gross

    @property
    def coalesce_safe(self) -> bool:
        """True when per-item delta sums provably fit int64.

        Coalescing consumers MUST check this and fall back to
        :meth:`unplanned` when False (the scalar/batch contract is
        exact at any magnitude; the coalesced fold is int64)."""
        return self.gross_weight < _INT64_SAFE_BOUND

    # -- duplicate coalescing ------------------------------------------------
    def _build_unique(self) -> None:
        if self._unique is not None:
            return
        planner = self._planner
        if planner is not None and planner._dense_ok(self.n, self.size):
            unique, inverse = planner._dense_unique(self.items)
        else:
            unique, inverse = np.unique(self.items, return_inverse=True)
        self._unique, self._inverse = _frozen(unique), _frozen(inverse)

    @property
    def unique_items(self) -> np.ndarray:
        """Sorted distinct items of the chunk."""
        self._build_unique()
        return self._unique

    @property
    def inverse(self) -> np.ndarray:
        """Index of each update's item within :attr:`unique_items`."""
        self._build_unique()
        return self._inverse

    def gather(self, unique_values: np.ndarray) -> np.ndarray:
        """Expand a per-unique-item array back to per-update order."""
        return unique_values[self.inverse]

    def _require_coalescable(self) -> None:
        if not self.coalesce_safe:
            raise ValueError(
                "chunk gross weight exceeds the int64-safe coalescing "
                "bound; consumers must fall back to ChunkPlan.unplanned"
            )

    @property
    def summed_deltas(self) -> np.ndarray:
        """``Σ Δ`` per unique item (int64-exact; guarded by
        :attr:`coalesce_safe`).

        Only a **ℤ-linear** consumer may read the summed views: its
        whole state after the chunk must equal, bitwise, its state
        after the per-item-summed chunk.  That holds for integer linear
        sketches (frequency vectors, CountSketch/CountMin tables, AMS
        sign sums).  It fails for:

        * sampling structures (CSSS, schedules-backed estimators) —
          their RNG consumption is per *update*, so coalescing would
          change which uniforms exist;
        * float-state linear sketches (Cauchy) — float addition
          commutes only to machine precision, and the batch contract
          is bitwise;
        * running-peak counters (``SignedCounter``) — the peak of the
          partial sums is multiplicity-sensitive.
        """
        if self._sums is None:
            self._require_coalescable()
            sums = np.zeros(len(self.unique_items), dtype=np.int64)
            np.add.at(sums, self.inverse, self.deltas)
            self._sums = _frozen(sums)
        return self._sums

    @property
    def nonzero_sums(self) -> np.ndarray | None:
        """Mask of unique items whose deltas did not cancel, or ``None``
        when every sum is non-zero (the common case — lets consumers
        skip the fancy-index copy)."""
        if not self._nonzero_known:
            mask = self.summed_deltas != 0
            self._nonzero = None if mask.all() else _frozen(mask)
            self._nonzero_known = True
        return self._nonzero

    @property
    def summed_magnitudes(self) -> np.ndarray:
        """``Σ |Δ|`` per unique item (for insertion-image consumers)."""
        key = ("plan", "summed_magnitudes")
        if key not in self._cache:
            self._require_coalescable()
            sums = np.zeros(len(self.unique_items), dtype=np.int64)
            np.add.at(sums, self.inverse, self.abs_deltas)
            self._cache[key] = _frozen(sums)
        return self._cache[key]

    # -- cross-consumer hash memoization -------------------------------------
    def unique_values(
        self, key, fn: Callable[[np.ndarray], np.ndarray] | None = None
    ) -> np.ndarray:
        """``fn(unique_items)``, cached under the value-keyed ``key``.

        ``key`` is usually the hash object itself: ``KWiseHash`` /
        ``SignHash`` (and the Cauchy entry rows, ``UniformScalars``, the
        mod-``p`` reducer) compare and hash by *value* — same seed
        coefficients, same field — so value-equal hash functions held by
        different consumers share one evaluation per chunk.  ``fn``
        defaults to ``key.hash_array``.  Results are cached read-only.
        """
        cache = self._cache
        try:
            return cache[key]
        except KeyError:
            pass
        except TypeError:  # unhashable key: evaluate uncached
            return (fn or key.hash_array)(self.unique_items)
        values = _frozen((fn or key.hash_array)(self.unique_items))
        cache[key] = values
        return values

    def values(
        self, key, fn: Callable[[np.ndarray], np.ndarray] | None = None
    ) -> np.ndarray:
        """Per-update expansion of :meth:`unique_values` (one hash pass
        over the distinct items, one O(chunk) gather per consumer)."""
        return self.gather(self.unique_values(key, fn))


class _UnplannedChunk(ChunkPlan):
    """:meth:`ChunkPlan.unplanned`: the chunk is its own unique view."""

    inverse = None
    coalesce_safe = True  # nothing is summed
    nonzero_sums = None  # validated deltas are never zero
    unique_items = property(lambda self: self.items)
    summed_deltas = property(lambda self: self.deltas)
    summed_magnitudes = property(lambda self: self.abs_deltas)

    def gather(self, unique_values: np.ndarray) -> np.ndarray:
        return unique_values

    def unique_values(self, key, fn=None) -> np.ndarray:
        return (fn or key.hash_array)(self.items)


class ChunkPlanner:
    """Builds :class:`ChunkPlan` objects, owning reusable workspaces.

    One planner serves one replay: it persists across chunks so the
    dense unique/sum scratch arrays (used when ``universe`` is known and
    within :data:`_DENSE_UNIVERSE_FACTOR` of the chunk length) are
    allocated once, not per chunk.
    """

    def __init__(self, universe: int | None = None) -> None:
        self.universe = int(universe) if universe is not None else None
        self._seen: np.ndarray | None = None
        self._rank: np.ndarray | None = None

    def plan(self, items: np.ndarray, deltas: np.ndarray) -> ChunkPlan:
        """Wrap one admitted chunk in a plan."""
        return ChunkPlan(items, deltas, self.universe, self)

    # -- dense unique workspace ----------------------------------------------
    def _dense_ok(self, n: int | None, chunk_len: int) -> bool:
        # The dense path scans O(n) per chunk: worth it only when the
        # chunk is within a small factor of the universe (tiny chunks
        # keep the sort path so chunk_size=1 replays stay O(m log m)).
        return n is not None and n <= _DENSE_UNIVERSE_FACTOR * chunk_len

    def _dense_unique(
        self, items: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique + inverse via touched-flag workspaces: O(n + m)
        with no sort and no per-chunk allocation beyond the outputs."""
        n = self.universe
        if self._seen is None or len(self._seen) < n:
            self._seen = np.zeros(n, dtype=bool)
            self._rank = np.zeros(n, dtype=np.int64)
        seen = self._seen
        seen[items] = True
        unique = np.flatnonzero(seen)
        seen[unique] = False  # reset for the next chunk
        rank = self._rank
        rank[unique] = np.arange(len(unique), dtype=np.int64)
        inverse = rank[items]
        return unique, inverse
