"""Batch-update protocol for the sketch stack.

Every estimator in this library consumes a stream one ``(item, delta)``
update at a time through ``update()``.  That interface is the right unit
for the paper's analyses, but it forces a Python-level function call (and
one k-wise hash polynomial evaluation per hash function) per update — far
from "as fast as the hardware allows".  This module defines the package's
*batch* contract:

* :class:`BatchSketch` — a :class:`typing.Protocol` for anything exposing
  ``update_batch(items, deltas)`` next to the scalar ``update``;
* :func:`as_update_arrays` — the shared validator that turns arbitrary
  ``(items, deltas)`` column inputs into checked ``int64`` arrays with the
  same rejection rules as :class:`repro.streams.model.Update`;
* :class:`Mergeable` — a :class:`typing.Protocol` for sketches that can
  absorb a same-seeded sibling via ``merge(other)``, the contract behind
  :meth:`repro.api.session.StreamSession.merge`;
* :class:`PlanConsumer` — the chunk-planning contract (see
  :mod:`repro.streams.plan`): ``update_plan(plan)`` absorbs a
  pre-planned chunk (shared hash evaluations, and — for ℤ-linear
  structures — per-item coalesced deltas) and is the structure's one
  vectorised body: its ``update_batch`` runs it over an unplanned
  plan of the bare chunk;
* :func:`is_integer` — the one rule for integer arguments (sizes,
  seeds, indices): a ``1.5`` or ``True`` is refused, never truncated.

Equivalence contract
--------------------
``update_batch(items, deltas)`` MUST leave the sketch in exactly the same
state as ``for i, d in zip(items, deltas): update(i, d)`` — including any
consumed randomness, so chunking a stream differently can never change an
estimate.  Vectorised implementations achieve this by (a) precomputing
hash values with the vectorised :meth:`~repro.hashing.kwise.KWiseHash.
hash_array` (exact modular arithmetic — bit-identical to the scalar
``__call__``), (b) exploiting associativity of integer accumulation for
scatter-adds, and (c) using running (left-fold) accumulation for floating
point state, which is chunk-invariant where a vectorised ``sum()`` is not.
``tests/test_batch_equivalence.py`` enforces the contract for every
batch-capable structure in the package.

Merge contract
--------------
``a.merge(b)`` MUST leave ``a`` holding the sketch of the *concatenated*
input streams, provided ``a`` and ``b`` were built with identical seeds
(same constructor arguments including the generator seed — "shared hash
functions" in the paper's linear-sketch sense).  For linear integer
sketches the merged state is bit-identical to a single-pass replay; for
floating-point and sampling sketches it is the same estimator up to float
associativity / an independent sampling realisation.
``tests/test_merge_sharding.py`` enforces this for every mergeable sketch.
"""

from __future__ import annotations

import numbers
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

ArrayLike = "np.ndarray | Sequence[int]"

_INT64_MAX = int(np.iinfo(np.int64).max)


@runtime_checkable
class BatchSketch(Protocol):
    """Anything that can absorb stream updates one at a time or in bulk.

    >>> import numpy as np
    >>> from repro.streams.model import FrequencyVector
    >>> isinstance(FrequencyVector(8), BatchSketch)
    True
    """

    def update(self, item: int, delta: int) -> None:
        """Apply a single stream update ``(item, delta)``."""
        ...  # pragma: no cover - protocol

    def update_batch(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a column batch of updates; must equal the scalar loop."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class PlanConsumer(Protocol):
    """A sketch that can absorb a pre-planned chunk.

    ``update_plan(plan)`` receives a :class:`repro.streams.plan.ChunkPlan`
    and is the sketch's one vectorised body: its ``update_batch(items,
    deltas)`` is ``update_plan(ChunkPlan.unplanned(items, deltas, n))``,
    so a planned chunk and ``update_batch(plan.items, plan.deltas)`` run
    the same code over views that agree, and leave the sketch
    bit-identical.  The plan carries shared per-chunk
    precomputation — unique items, per-item summed deltas, a value-keyed
    hash-evaluation cache — so consumers fed from one plan
    (``replay_many``, composed structures) never repeat work.  A plan
    reaches only consumers the chunk driver admitted over its universe.

    >>> from repro.sketches.countmin import CountMin
    >>> import numpy as np
    >>> isinstance(CountMin(8, 4, 2, np.random.default_rng(0)), PlanConsumer)
    True
    """

    def update_plan(self, plan) -> None:
        """Apply a planned chunk; ``update_batch`` runs it unplanned."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class Mergeable(Protocol):
    """A sketch that can absorb a same-seeded sibling built elsewhere.

    ``merge(other)`` folds ``other``'s state into ``self`` in place and
    returns ``self``; afterwards ``self`` summarises the concatenation of
    both input streams.  Implementations MUST verify compatibility (same
    dimensions and, where applicable, equal hash functions *by value* —
    shards, sibling sessions and restored snapshots rebuild seeds from
    the same factory, so object identity cannot be assumed) and raise
    :class:`ValueError` otherwise.

    >>> import numpy as np
    >>> from repro.sketches.countmin import CountMin
    >>> a = CountMin(64, 8, 2, np.random.default_rng(0))
    >>> b = CountMin(64, 8, 2, np.random.default_rng(0))
    >>> a.update(3, 5); b.update(3, 2)
    >>> a.merge(b).query(3)
    7
    """

    def merge(self, other: "Mergeable") -> "Mergeable":
        """Fold ``other`` into ``self``; returns ``self``."""
        ...  # pragma: no cover - protocol


def as_update_arrays(
    items,
    deltas,
    universe: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce ``(items, deltas)`` columns to ``int64`` arrays.

    Enforces the :class:`~repro.streams.model.Update` model vectorised:
    equal 1-D lengths, integral dtypes, non-negative items (below
    ``universe`` when given), and no zero deltas.  Every value must also
    survive the cast: an unsigned value above ``2^63 - 1`` is refused
    (the cast would wrap it negative), and so is the delta ``-2^63``,
    whose magnitude no int64 holds (``np.abs`` wraps it, which would
    blind every overflow guard downstream).  Returns arrays safe to index
    with (a no-copy view when the input already is ``int64``).

    >>> items, deltas = as_update_arrays([3, 1], [5, -2], universe=8)
    >>> items.tolist(), deltas.tolist()
    ([3, 1], [5, -2])
    >>> as_update_arrays([9], [1], universe=8)
    Traceback (most recent call last):
        ...
    ValueError: item 9 outside universe [0, 8)
    >>> as_update_arrays([1], [-2**63])
    Traceback (most recent call last):
        ...
    ValueError: delta -9223372036854775808 has no int64 magnitude
    """
    items_arr = np.asarray(items)
    deltas_arr = np.asarray(deltas)
    if items_arr.ndim != 1 or deltas_arr.ndim != 1:
        raise ValueError("items and deltas must be 1-D arrays")
    if items_arr.shape[0] != deltas_arr.shape[0]:
        raise ValueError(
            f"items and deltas lengths differ "
            f"({items_arr.shape[0]} != {deltas_arr.shape[0]})"
        )
    if items_arr.size == 0:
        # Empty batches are valid no-ops; a bare [] arrives as float64.
        return (
            items_arr.astype(np.int64, copy=False),
            deltas_arr.astype(np.int64, copy=False),
        )
    if not np.issubdtype(items_arr.dtype, np.integer):
        raise TypeError("items must be integers")
    if not np.issubdtype(deltas_arr.dtype, np.integer):
        raise TypeError("deltas must be integers")
    for name, arr in (("item", items_arr), ("delta", deltas_arr)):
        if arr.dtype.kind == "u" and int(arr.max()) > _INT64_MAX:
            raise ValueError(f"{name} {int(arr.max())} does not fit in int64")
    if deltas_arr.dtype.kind == "i" and int(deltas_arr.min()) < -_INT64_MAX:
        raise ValueError(
            f"delta {int(deltas_arr.min())} has no int64 magnitude"
        )
    items_arr = items_arr.astype(np.int64, copy=False)
    deltas_arr = deltas_arr.astype(np.int64, copy=False)
    if items_arr.size:
        if int(items_arr.min()) < 0:
            raise ValueError("item must be non-negative")
        if universe is not None and int(items_arr.max()) >= universe:
            raise ValueError(
                f"item {int(items_arr.max())} outside universe [0, {universe})"
            )
        if not deltas_arr.all():
            raise ValueError(
                "zero-delta updates are not part of the model (a zero "
                "delta changes no frequency)"
            )
    return items_arr, deltas_arr


def is_integer(value) -> bool:
    """True for an integer that is not a bool: the rule every size,
    seed and index argument is checked against.  NumPy integers pass;
    a ``1.5`` (which ``int()`` would truncate) or a ``True`` does not.

    >>> is_integer(3), is_integer(np.int64(3)), is_integer(3.0)
    (True, True, False)
    >>> is_integer(True)
    False
    """
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def supports_batch(sketch) -> bool:
    """True when ``sketch`` exposes the batch half of the protocol.

    >>> from repro.streams.model import FrequencyVector
    >>> supports_batch(FrequencyVector(4)), supports_batch(object())
    (True, False)
    """
    return callable(getattr(sketch, "update_batch", None))


def supports_plan(sketch) -> bool:
    """True when ``sketch`` can absorb pre-planned chunks — and so,
    by the engine's plan policy, whether its replays plan each chunk.

    >>> from repro.sketches.countmin import CountMin
    >>> from repro.streams.model import FrequencyVector
    >>> supports_plan(CountMin(8, 4, 2, np.random.default_rng(0)))
    True
    >>> supports_plan(FrequencyVector(4)), supports_plan(object())
    (False, False)
    """
    return callable(getattr(sketch, "update_plan", None))


def supports_merge(sketch) -> bool:
    """True when ``sketch`` implements the :class:`Mergeable` protocol.

    >>> from repro.streams.model import FrequencyVector
    >>> supports_merge(FrequencyVector(4)), supports_merge(object())
    (True, False)
    """
    return callable(getattr(sketch, "merge", None))


#: Default chunk size for batched replay: large enough to amortise
#: per-chunk numpy overhead, small enough that per-chunk scratch arrays
#: (hash values, entry matrices) stay bounded.
DEFAULT_CHUNK_SIZE = 4096


def consume_stream(sketch, stream, chunk_size: int | None = None):
    """The shared ``consume`` body: chunked batch replay when possible.

    Array-backed streams replay through the engine's chunk driver
    (:func:`repro.streams.engine.replay`: planned chunks where the plan
    policy says so, else ``update_batch``, else the scalar loop), which
    keeps per-chunk scratch memory O(chunk) instead of O(stream); plain
    update iterables take the scalar loop.  Identical final state on
    every path, by the batch/plan contracts.  Returns the sketch for
    chaining.

    >>> from repro.streams.model import FrequencyVector, stream_from_updates
    >>> s = stream_from_updates(8, [(1, 2), (1, 3), (4, -1)])
    >>> int(consume_stream(FrequencyVector(8), s, chunk_size=2).f[1])
    5
    """
    if hasattr(stream, "as_arrays"):
        # Imported here: the engine sits above this substrate.
        from repro.streams.engine import replay

        return replay(stream, sketch, chunk_size)
    for u in stream:
        sketch.update(u.item, u.delta)
    return sketch


#: Partial sums bounded below this are safe in int64 arithmetic (one
#: power-of-two of headroom under 2^63 absorbs the float64 bound's
#: rounding slack).
_INT64_SAFE_BOUND = float(2**62)


def exact_sum(values: np.ndarray) -> int:
    """``sum(values)`` as an exact Python int.

    The scalar update paths accumulate counters on Python integers
    (arbitrary precision); a plain int64 ``values.sum()`` would silently
    wrap where they do not.  The int64 fast path is used only when a
    float64 bound proves every partial sum fits.
    """
    # Cast before abs: np.abs wraps an int64 -2^63 back to itself.
    if float(np.abs(values.astype(np.float64)).sum()) < _INT64_SAFE_BOUND:
        return int(values.sum())
    return int(values.astype(object).sum())


def running_sums(values: np.ndarray, base: int = 0) -> np.ndarray:
    """Exact prefix sums ``base + cumsum(values)``.

    The schedule engines compare running retained weight against a
    budget; a plain int64 ``np.cumsum`` wraps silently once a chunk
    carries near-2^63 magnitudes, flipping the comparison and silently
    corrupting the sampling trajectory.  The int64 fast path is used
    only when the float64 magnitude bound proves every prefix fits;
    otherwise the fold runs on object dtype (exact Python ints), which
    compares against integer budgets just the same.
    """
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64)
    bound = abs(float(base)) + float(
        np.abs(values.astype(np.float64)).sum()
    )
    if bound < _INT64_SAFE_BOUND:
        return base + np.cumsum(values)
    return base + np.cumsum(values.astype(object))


def running_sum_extrema(start: int, values: np.ndarray) -> tuple[int, int]:
    """Left-fold ``start + values`` exactly; returns ``(final, peak)``.

    ``peak`` is ``max |partial sum|`` over the post-add partial sums —
    the quantity running-peak counters track.  Falls back from the int64
    cumsum to exact Python-int folding when the float64 magnitude bound
    says partial sums could overflow (matching the scalar loop, which is
    exact at any magnitude).
    """
    if len(values) == 0:
        return start, 0
    bound = abs(start) + float(np.abs(values.astype(np.float64)).sum())
    if bound < _INT64_SAFE_BOUND:
        running = start + np.cumsum(values)
        return int(running[-1]), int(np.abs(running).max())
    total, peak = start, 0
    for v in values.tolist():
        total += v
        peak = max(peak, abs(total))
    return total, peak


def scaled_mod_increments(
    deltas: np.ndarray, scales: np.ndarray, modulus: int
) -> np.ndarray:
    """``(deltas * scales) % modulus`` exactly, as int64.

    The modular L0 tables scale each delta by a random field element
    before reduction; the product can exceed 63 bits for large deltas, so
    the obvious int64 multiply may wrap.  A float64 magnitude bound picks
    the int64 fast path when every product provably fits, and falls back
    to exact Python-integer (object) arithmetic otherwise — bit-identical
    either way, an order of magnitude apart in cost.
    """
    if len(deltas) == 0:
        return np.zeros(0, dtype=np.int64)
    bound = float(np.abs(deltas.astype(np.float64)).max()) * float(
        scales.max()
    )
    if bound < _INT64_SAFE_BOUND:
        return ((deltas * scales) % modulus).astype(np.int64)
    return (
        (deltas.astype(object) * scales.astype(object)) % modulus
    ).astype(np.int64)


def signed_scatter_add_peak(
    target: np.ndarray, indices: np.ndarray, values: np.ndarray
) -> int:
    """Scatter-add signed values and return the running ``max |cell|``.

    Structures that charge space at the *peak* magnitude a counter ever
    held need the maximum over every intermediate per-update state, which
    a plain ``np.add.at`` discards (mixed-sign values can cancel within a
    batch).  Grouping the contributions per target cell and walking each
    group's cumulative sum reproduces the exact per-update intermediate
    values of the scalar loop, at vectorised cost.  Falls back to an
    exact Python-int walk when the cumulative sums could overflow int64.
    """
    if len(values) == 0:
        return 0
    start_bound = float(np.abs(target.astype(np.float64)).max(initial=0))
    if start_bound + float(
        np.abs(values.astype(np.float64)).sum()
    ) >= _INT64_SAFE_BOUND:
        peak = 0
        for t in range(len(values)):
            idx = indices[t]
            total = int(target[idx]) + int(values[t])
            target[idx] = total
            peak = max(peak, abs(total))
        return peak
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    sorted_vals = values[order]
    running = np.cumsum(sorted_vals)
    group_start = np.empty(len(order), dtype=bool)
    group_start[0] = True
    group_start[1:] = sorted_idx[1:] != sorted_idx[:-1]
    starts = np.nonzero(group_start)[0]
    lengths = np.diff(np.append(starts, len(order)))
    # Subtract each group's prefix offset to get per-group cumsums, then
    # add the cell's starting value: these are the per-update cell states.
    group_offsets = np.zeros(len(starts), dtype=np.int64)
    group_offsets[1:] = running[starts[1:] - 1]
    base = target[sorted_idx[starts]]
    intermediate = (
        running - np.repeat(group_offsets, lengths) + np.repeat(base, lengths)
    )
    peak = int(np.abs(intermediate).max())
    np.add.at(target, indices, values)
    return peak


def mod_scatter_add(
    target: np.ndarray, indices, values: np.ndarray, modulus: int
) -> None:
    """``target[idx] = (target[idx] + v) % modulus`` scatter, overflow-safe.

    The obvious ``np.add.at`` followed by one ``%= modulus`` can wrap
    int64 when many near-``modulus`` addends land in one bucket.  A
    reduced bucket holds at most ``modulus - 1``, so after ``B`` further
    addends it holds at most ``(B + 1)(modulus - 1)``; the reduction is
    applied every ``B = floor((2^63 - 1) / (modulus - 1)) - 1`` addends,
    the largest block for which even a single bucket absorbing the whole
    block cannot overflow.  Equivalent to reducing after every single
    add (modular addition is associative).  Moduli so large that even
    two addends could wrap fall back to exact Python-integer scatter.
    """
    modulus = int(modulus)
    block = (2**63 - 1) // max(1, modulus - 1) - 1
    n = len(values)
    multi = isinstance(indices, tuple)
    if block < 1:
        for t in range(n):
            idx = tuple(ix[t] for ix in indices) if multi else indices[t]
            target[idx] = (int(target[idx]) + int(values[t])) % modulus
        return
    for start in range(0, n, block):
        stop = start + block
        idx = (
            tuple(ix[start:stop] for ix in indices)
            if multi
            else indices[start:stop]
        )
        np.add.at(target, idx, values[start:stop])
        target %= modulus
