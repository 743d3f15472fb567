"""Core stream model: updates, replayable streams, exact frequency vectors.

The paper's model (Section 1): a stream over universe ``[n]`` is a sequence
of updates ``(i_t, Delta_t)`` applied to a frequency vector ``f`` that
starts at zero.  The *insertion vector* ``I`` accumulates positive updates,
the *deletion vector* ``D`` the absolute values of negative updates, so
``f = I - D`` at all times.

:class:`FrequencyVector` is the exact, dense ground truth used by tests and
benchmarks (it is **not** a small-space structure; the sketches in
:mod:`repro.core` and :mod:`repro.sketches` are).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.batch import _INT64_MAX, as_update_arrays, exact_sum


@dataclass(frozen=True, slots=True)
class Update:
    """A single stream update ``(item, delta)``.

    ``item`` is a 0-based identity in ``[0, n)``; ``delta`` is a (possibly
    negative) integer frequency change.  Both must hold in the int64
    columns of :meth:`Stream.as_arrays`, so the values
    :func:`~repro.batch.as_update_arrays` refuses are refused here too.

    >>> Update(1, -2**63)
    Traceback (most recent call last):
        ...
    ValueError: delta -9223372036854775808 has no int64 magnitude
    """

    item: int
    delta: int

    def __post_init__(self) -> None:
        if self.item < 0:
            raise ValueError("item must be non-negative")
        if self.item > _INT64_MAX:
            raise ValueError(f"item {self.item} does not fit in int64")
        if self.delta == 0:
            raise ValueError("zero-delta updates are not part of the model")
        if abs(self.delta) > _INT64_MAX:
            raise ValueError(f"delta {self.delta} has no int64 magnitude")


class Stream:
    """A replayable sequence of updates over a fixed universe.

    Streams are materialised (lists of updates): the experiments replay the
    same stream into several sketches and into the exact ground truth, so
    one-shot iterators would be error-prone.  For the sizes this repository
    benchmarks (``m`` up to a few million) this is cheap.

    Parameters
    ----------
    n:
        Universe size; every update's item must lie in ``[0, n)``.
    updates:
        The update sequence.
    """

    def __init__(self, n: int, updates: Iterable[Update] | None = None) -> None:
        if n < 1:
            raise ValueError("universe size must be positive")
        self.n = int(n)
        self._updates: list[Update] = []
        self._arrays_cache: tuple[np.ndarray, np.ndarray] | None = None
        if updates is not None:
            for u in updates:
                self.append(u)

    def append(self, update: Update) -> None:
        """Append an update, validating the item against the universe."""
        if not 0 <= update.item < self.n:
            raise ValueError(
                f"item {update.item} outside universe [0, {self.n})"
            )
        self._arrays_cache = None
        self._updates.append(update)

    def extend(self, updates: Iterable[Update]) -> None:
        for u in updates:
            self.append(u)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._updates)

    def __len__(self) -> int:
        return len(self._updates)

    def __getitem__(self, idx: int) -> Update:
        return self._updates[idx]

    @property
    def total_update_weight(self) -> int:
        """``sum_t |Delta_t|`` — the stream's gross L1 traffic."""
        return sum(abs(u.delta) for u in self._updates)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stream as ``(items, deltas)`` int64 column arrays.

        This is the zero-copy interface of the batch pipeline
        (:mod:`repro.streams.engine`): the columns are built once, cached,
        and invalidated by :meth:`append`.  Callers receive the cached
        arrays directly and must not mutate them.
        """
        if self._arrays_cache is None:
            m = len(self._updates)
            items = np.fromiter(
                (u.item for u in self._updates), dtype=np.int64, count=m
            )
            deltas = np.fromiter(
                (u.delta for u in self._updates), dtype=np.int64, count=m
            )
            self._arrays_cache = (items, deltas)
        return self._arrays_cache

    @classmethod
    def from_arrays(cls, n: int, items, deltas) -> "Stream":
        """Build a stream from ``(items, deltas)`` columns.

        Validation is vectorised but matches :class:`Update` exactly:
        negative items, items outside ``[0, n)``, zero deltas, length
        mismatches, and non-integral dtypes are all rejected.
        """
        stream = cls(n)
        items_arr, deltas_arr = as_update_arrays(items, deltas, stream.n)
        stream._updates = [
            Update(item, delta)
            for item, delta in zip(items_arr.tolist(), deltas_arr.tolist())
        ]
        stream._arrays_cache = (
            items_arr.copy() if items_arr is items else items_arr,
            deltas_arr.copy() if deltas_arr is deltas else deltas_arr,
        )
        return stream

    def frequency_vector(self) -> "FrequencyVector":
        """Replay into an exact dense frequency vector (batch path; the
        result is identical to the scalar update loop)."""
        fv = FrequencyVector(self.n)
        if self._updates:
            fv.update_batch(*self.as_arrays())
        return fv

    def suffix(self, start: int) -> "Stream":
        """The stream restricted to updates ``start, start+1, ...`` (used by
        the support sampler's analysis, Section 7)."""
        return Stream(self.n, self._updates[start:])

    def concatenated_with(self, other: "Stream") -> "Stream":
        if other.n != self.n:
            raise ValueError("universe sizes differ")
        return Stream(self.n, list(self._updates) + list(other._updates))

    def unit_expanded(self) -> "Stream":
        """Expand each update into ``|delta|`` unit updates (Section 1.3).

        The L1 analyses assume ``Delta_t in {-1, +1}``; algorithms handle
        larger updates by binomial thinning, but tests sometimes want the
        literal expanded stream.
        """
        out = Stream(self.n)
        for u in self._updates:
            sign = 1 if u.delta > 0 else -1
            out.extend(Update(u.item, sign) for _ in range(abs(u.delta)))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(n={self.n}, m={len(self)})"


def stream_from_updates(n: int, pairs: Sequence[tuple[int, int]]) -> Stream:
    """Build a :class:`Stream` from ``(item, delta)`` pairs."""
    return Stream(n, (Update(i, d) for i, d in pairs))


class FrequencyVector:
    """Exact dense frequency state ``f = I - D`` with insertion/deletion
    split, for ground truth and α-property measurement.

    Tracks:

    * ``f`` — the current frequency vector;
    * ``insertions`` (``I``) and ``deletions`` (``D``) per Definition 1;
    * ``ever_touched`` — the support of ``I + D``, whose size is the
      stream's F0 (needed for the L0 α-property and Section 6).
    """

    # All three tables are ℤ-linear in the update stream, yet there is
    # no ``update_plan``: the vector IS a dense per-item sum already,
    # so its batch path is three scatter-adds and a plan cannot help.

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("universe size must be positive")
        self.n = int(n)
        self.f = np.zeros(n, dtype=np.int64)
        self.insertions = np.zeros(n, dtype=np.int64)
        self.deletions = np.zeros(n, dtype=np.int64)
        self.num_updates = 0

    def update(self, item: int, delta: int) -> None:
        if not 0 <= item < self.n:
            raise ValueError(f"item {item} outside universe [0, {self.n})")
        if delta == 0:
            raise ValueError("zero-delta updates are not part of the model")
        self.f[item] += delta
        if delta > 0:
            self.insertions[item] += delta
        else:
            self.deletions[item] -= delta
        self.num_updates += 1

    def update_batch(self, items, deltas) -> None:
        """Vectorised batch update; final state equals the scalar loop
        (integer scatter-adds are exact and order-independent)."""
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        np.add.at(self.f, items_arr, deltas_arr)
        pos = deltas_arr > 0
        np.add.at(self.insertions, items_arr[pos], deltas_arr[pos])
        np.subtract.at(self.deletions, items_arr[~pos], deltas_arr[~pos])
        self.num_updates += int(items_arr.size)

    def merge(self, other: "FrequencyVector") -> "FrequencyVector":
        """Fold another frequency vector into this one, in place.

        Exact linear merge over the same universe — bit-identical to
        replaying the concatenated streams.

        >>> a, b = FrequencyVector(4), FrequencyVector(4)
        >>> a.update(1, 5); b.update(1, -2); b.update(3, 7)
        >>> a.merge(b).f.tolist()
        [0, 3, 0, 7]
        """
        if not isinstance(other, FrequencyVector) or other.n != self.n:
            raise ValueError("universe sizes differ")
        self.f += other.f
        self.insertions += other.insertions
        self.deletions += other.deletions
        self.num_updates += other.num_updates
        return self

    # -- norms -------------------------------------------------------------
    def l1(self) -> int:
        """``‖f‖_1``."""
        return exact_sum(np.abs(self.f))

    def l2(self) -> float:
        """``‖f‖_2``."""
        return float(np.sqrt((self.f.astype(np.float64) ** 2).sum()))

    def l0(self) -> int:
        """``‖f‖_0`` — support size."""
        return int(np.count_nonzero(self.f))

    def f0(self) -> int:
        """Number of distinct items ever touched (the stream's F0)."""
        return int(np.count_nonzero(self.insertions + self.deletions))

    def lp(self, p: float) -> float:
        """``‖f‖_p`` for p > 0."""
        if p <= 0:
            raise ValueError("use l0() for p = 0")
        return float((np.abs(self.f.astype(np.float64)) ** p).sum() ** (1.0 / p))

    # -- derived quantities used by the paper's guarantees ------------------
    def err_k_p(self, k: int, p: float = 2.0) -> float:
        """``Err^k_p(f)``: p-norm of f with the k heaviest entries removed
        (Section 1.3).  This is the tail term in the CountSketch/CSSS
        guarantees."""
        if k < 0:
            raise ValueError("k must be non-negative")
        mags = np.sort(np.abs(self.f.astype(np.float64)))[::-1]
        tail = mags[k:]
        return float((tail**p).sum() ** (1.0 / p))

    def heavy_hitters(self, eps: float, p: float = 1.0) -> set[int]:
        """Exact set ``{i : |f_i| >= eps * ‖f‖_p}``."""
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        threshold = eps * (self.lp(p) if p > 0 else self.l0())
        return {int(i) for i in np.nonzero(np.abs(self.f) >= threshold)[0]}

    def inner_product(self, other: "FrequencyVector") -> int:
        if other.n != self.n:
            raise ValueError("universe sizes differ")
        return int(np.dot(self.f, other.f))

    def support(self) -> set[int]:
        return {int(i) for i in np.nonzero(self.f)[0]}

    def top_k(self, k: int) -> list[int]:
        """Items with the k largest magnitudes (ties broken by index)."""
        order = np.lexsort((np.arange(self.n), -np.abs(self.f)))
        return [int(i) for i in order[:k]]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FrequencyVector(n={self.n}, L1={self.l1()}, L0={self.l0()}, "
            f"updates={self.num_updates})"
        )
