"""Exact small counters used by the strict-turnstile algorithms.

In the strict turnstile model, ``‖f‖_1`` can be tracked *exactly* with a
single O(log n)-bit counter (the paper uses this in Theorem 4 and in the
αL1Sampler's recovery step).
"""

from __future__ import annotations

import numpy as np

from repro.batch import as_update_arrays, running_sum_extrema


class SignedCounter:
    """Plain integer counter with paper-style bit accounting."""

    def __init__(self) -> None:
        self.value = 0
        self._max_abs = 0

    def add(self, delta: int) -> None:
        self.value += delta
        self._max_abs = max(self._max_abs, abs(self.value))

    def add_batch(self, deltas: np.ndarray) -> None:
        """Vectorised adds: the running-peak accounting needs every
        intermediate value, which the exact running fold provides (the
        counter is a Python int in the scalar path, so the fold must not
        wrap at int64 either)."""
        if len(deltas) == 0:
            return
        self.value, peak = running_sum_extrema(self.value, deltas)
        self._max_abs = max(self._max_abs, peak)

    def merge(self, other: "SignedCounter") -> "SignedCounter":
        """Fold another counter in (values add; peaks take the max —
        each shard's peak genuinely occurred on its sub-stream)."""
        self.value += other.value
        self._max_abs = max(self._max_abs, other._max_abs, abs(self.value))
        return self

    def space_bits(self) -> int:
        """Sign bit + magnitude bits for the largest value ever held."""
        return 1 + max(1, int(self._max_abs).bit_length())


class ExactL1Counter:
    """Exact ``‖f‖_1`` for strict turnstile streams.

    In the strict turnstile model all frequencies stay non-negative, so
    ``‖f‖_1 = sum_i f_i`` and a single signed counter of the running sum of
    deltas equals the norm.  (In a general turnstile stream this only lower
    bounds the norm; callers must know their model.)
    """

    def __init__(self) -> None:
        self._c = SignedCounter()

    def update(self, item: int, delta: int) -> None:  # item unused; uniform API
        self._c.add(delta)

    def update_batch(self, items, deltas) -> None:
        _, deltas_arr = as_update_arrays(items, deltas)
        self._c.add_batch(deltas_arr)

    @property
    def value(self) -> int:
        return self._c.value

    def merge(self, other: "ExactL1Counter") -> "ExactL1Counter":
        """Fold another exact counter in (sums of deltas add)."""
        if not isinstance(other, ExactL1Counter):
            raise ValueError("can only merge another ExactL1Counter")
        self._c.merge(other._c)
        return self

    def space_bits(self) -> int:
        return self._c.space_bits()

