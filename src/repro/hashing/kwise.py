"""k-wise independent hash families (Carter-Wegman polynomial hashing).

A random polynomial of degree ``k-1`` over a prime field ``F_p`` evaluated
at distinct points is a k-wise independent family [13].  Every sketch in the
paper draws its hash functions from such families:

* CountSketch rows use a 4-wise ``h: [n] -> [6k]`` and a 4-wise sign
  function ``g: [n] -> {-1, +1}`` (Lemma 2).
* The L0 estimator (Figure 6) uses 2-wise ``h1, h2, h4`` and a
  ``Theta(log(1/eps)/log log(1/eps))``-wise ``h3``.
* The αL1Sampler scales items by ``O(log(1/eps))``-wise independent uniform
  factors ``t_i``.

Implementation notes
---------------------
:meth:`KWiseHash.hash_array` evaluates the polynomial over whole item
arrays at C speed: for field primes below ``2^32`` (every family except
the KMV hash's ``2^61`` range) Horner's rule runs in ``uint64`` — the
intermediate ``acc * x + c`` is bounded by ``(p-1)^2 + (p-1) < 2^64``, so
the modular arithmetic is exact and bit-identical to the scalar
``__call__``.  Larger primes fall back to numpy ``object`` arrays holding
exact Python integers.  This is the foundation of every vectorised
``update_batch`` in the package (see :mod:`repro.batch`).  The seed
coefficients account for ``k * ceil(log2 p)`` bits of space, which is
what :meth:`space_bits` reports — the paper's accounting.

Value semantics are part of the API: ``__eq__``/``__hash__`` compare the
computed *function* (domain, range, field, seed coefficients).  Two
subsystems rely on this — merge compatibility checks (sibling sessions
and restored snapshots rebuild their hash functions, so object identity
is lost) and the replay engine's per-chunk hash memoization
(:meth:`repro.streams.plan.ChunkPlan.unique_values`), where value-equal
hash functions held by different consumers share one evaluation per
chunk.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import repro.kernels as _kernels
from repro.hashing.primes import prime_for_universe


class KWiseHash:
    """k-wise independent hash ``h: [universe) -> [range_size)``.

    Parameters
    ----------
    universe:
        Domain size; inputs must lie in ``[0, universe)``.
    range_size:
        Output values lie in ``[0, range_size)``.
    k:
        Independence; ``k >= 1``.  ``k = 1`` degenerates to a constant.
    rng:
        Source of randomness for the coefficients.
    prime:
        Field size; defaults to a fixed prime above the universe.

    Notes
    -----
    Composing the polynomial with ``mod range_size`` keeps the family
    k-wise independent up to an ``O(range_size / p)`` bias, negligible for
    our default prime (> 2^16 above the universe).
    """

    def __init__(
        self,
        universe: int,
        range_size: int,
        k: int,
        rng: np.random.Generator,
        prime: int | None = None,
    ) -> None:
        if universe < 1:
            raise ValueError("universe must be positive")
        if range_size < 1:
            raise ValueError("range_size must be positive")
        if k < 1:
            raise ValueError("independence k must be >= 1")
        self.universe = int(universe)
        self.range_size = int(range_size)
        self.k = int(k)
        if prime is not None:
            self.prime = int(prime)
        else:
            # The field must dominate both the domain (for distinct
            # evaluation points) and the range (so that reducing the
            # polynomial value mod range_size has negligible bias).
            self.prime = prime_for_universe(max(self.universe, self.range_size))
        if self.prime <= max(self.universe, self.range_size):
            raise ValueError("prime must exceed universe and range sizes")
        # Leading coefficient non-zero keeps the polynomial degree exactly
        # k-1; not required for independence but avoids degenerate draws.
        coeffs = rng.integers(0, self.prime, size=self.k)
        if self.k > 1 and coeffs[0] == 0:
            coeffs[0] = 1 + int(rng.integers(0, self.prime - 1))
        self._coeffs: tuple[int, ...] = tuple(int(c) for c in coeffs)
        # uint64 Horner is exact iff (p-1)^2 + (p-1) < 2^64, i.e. p < 2^32.
        self._u64_ok = self.prime < (1 << 32)

    def __call__(self, x: int) -> int:
        """Hash a single item."""
        acc = 0
        for c in self._coeffs:
            acc = (acc * x + c) % self.prime
        return acc % self.range_size

    def hash_array(self, xs: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorised hashing; returns an int64 array of hashed values.

        Bit-identical to mapping :meth:`__call__` over ``xs``: the uint64
        fast path performs the same exact modular Horner recurrence, and
        the big-prime fallback uses exact Python integers.
        """
        arr = np.asarray(xs)
        if self._u64_ok and arr.dtype != object:
            # The compiled backend fuses the Horner loop into one pass
            # (repro.kernels); it declines (None) on ineligible layouts
            # and is bit-identical when it accepts.
            fused = _kernels.try_kwise(arr, self)
            if fused is not None:
                return fused
            p = np.uint64(self.prime)
            x = arr.astype(np.uint64) % p
            acc = np.zeros(x.shape, dtype=np.uint64)
            for c in self._coeffs:
                acc = (acc * x + np.uint64(c)) % p
            return (acc % np.uint64(self.range_size)).astype(np.int64)
        arr = arr.astype(object)
        acc = np.zeros_like(arr, dtype=object)
        for c in self._coeffs:
            acc = (acc * arr + c) % self.prime
        return (acc % self.range_size).astype(np.int64)

    def space_bits(self) -> int:
        """Seed storage: k coefficients of ceil(log2 p) bits each."""
        return self.k * max(1, int(np.ceil(np.log2(self.prime))))

    def __eq__(self, other: object) -> bool:
        """Value equality: two hashes are equal iff they compute the same
        function (same domain, range, field, and seed coefficients).

        Merging sketches across worker processes relies on this: pickling
        breaks object identity, so the merge compatibility checks compare
        hash *functions*, not hash objects.

        >>> import numpy as np
        >>> a = KWiseHash(64, 8, k=2, rng=np.random.default_rng(0))
        >>> b = KWiseHash(64, 8, k=2, rng=np.random.default_rng(0))
        >>> a == b and a is not b
        True
        """
        if not isinstance(other, KWiseHash):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.range_size == other.range_size
            and self.k == other.k
            and self.prime == other.prime
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.range_size, self.prime, self._coeffs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KWiseHash(universe={self.universe}, range={self.range_size}, "
            f"k={self.k}, p={self.prime})"
        )


class PairwiseHash(KWiseHash):
    """2-wise independent family (the workhorse of the L0 algorithms)."""

    def __init__(
        self,
        universe: int,
        range_size: int,
        rng: np.random.Generator,
        prime: int | None = None,
    ) -> None:
        super().__init__(universe, range_size, k=2, rng=rng, prime=prime)


class FourWiseHash(KWiseHash):
    """4-wise independent family (CountSketch rows, Lemma 2)."""

    def __init__(
        self,
        universe: int,
        range_size: int,
        rng: np.random.Generator,
        prime: int | None = None,
    ) -> None:
        super().__init__(universe, range_size, k=4, rng=rng, prime=prime)


class SignHash:
    """k-wise independent sign function ``g: [n] -> {-1, +1}``.

    Wraps a :class:`KWiseHash` into two buckets and maps ``{0,1}`` to
    ``{-1,+1}``.
    """

    def __init__(
        self,
        universe: int,
        rng: np.random.Generator,
        k: int = 4,
        prime: int | None = None,
    ) -> None:
        self._h = KWiseHash(universe, 2, k=k, rng=rng, prime=prime)

    def __call__(self, x: int) -> int:
        return 1 if self._h(x) else -1

    def hash_array(self, xs: np.ndarray | Sequence[int]) -> np.ndarray:
        return self._h.hash_array(xs) * 2 - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignHash):
            return NotImplemented
        return self._h == other._h

    def __hash__(self) -> int:
        return hash(("sign", self._h))

    def space_bits(self) -> int:
        return self._h.space_bits()


class UniformScalars:
    """k-wise independent uniform scalars ``t_i in (0, 1]``.

    The αL1Sampler (Figure 3) scales item ``i`` by ``1/t_i`` with
    ``O(log(1/eps))``-wise independent uniform ``t_i``.  We derive ``t_i``
    from a k-wise hash into ``[0, resolution)``: ``t_i = (h(i)+1) /
    resolution``, so ``t_i`` is never zero and is uniform on a fine grid.
    """

    def __init__(
        self,
        universe: int,
        rng: np.random.Generator,
        k: int,
        resolution: int = 1 << 30,
        prime: int | None = None,
    ) -> None:
        self.resolution = int(resolution)
        self._h = KWiseHash(universe, self.resolution, k=k, rng=rng, prime=prime)

    def __call__(self, x: int) -> float:
        return (self._h(x) + 1) / self.resolution

    def hash_array(self, xs: np.ndarray | Sequence[int]) -> np.ndarray:
        return (self._h.hash_array(xs) + 1) / self.resolution

    def inverse_weight(self, x: int) -> int:
        """Fixed-point ``max(1, round(1/t_x))`` — the precision-sampling
        scaling factor (keeps scaled counters integral)."""
        return max(1, int(round(1.0 / self(x))))

    def inverse_weight_array(self, xs: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`inverse_weight` (same rounding: both numpy
        and Python round half to even, so scalar/batch stay
        bit-identical)."""
        return np.maximum(1.0, np.round(1.0 / self.hash_array(xs))).astype(
            np.int64
        )

    def __eq__(self, other: object) -> bool:
        """Value equality (same grid and underlying hash) — the merge
        compatibility check for precision-sampling structures, which
        must agree on every ``t_i`` across worker processes."""
        if not isinstance(other, UniformScalars):
            return NotImplemented
        return self.resolution == other.resolution and self._h == other._h

    def __hash__(self) -> int:
        return hash(("uniform-scalars", self.resolution, self._h))

    def space_bits(self) -> int:
        return self._h.space_bits()
