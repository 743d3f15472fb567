"""Optional fused C kernels for the hot sketch update paths.

The stack's per-chunk update pipeline (uint64 Horner hash -> bucket ->
sign -> scatter-add) is NumPy-saturated: each stage is one more full
pass over the chunk.  This package compiles a small C99 source tree
(:mod:`._build`, no third-party deps) into single-pass kernels bound
through :mod:`ctypes`, with one hard rule: **every kernel is
bit-identical to the NumPy path it replaces** — the equivalence
harnesses run against both backends at every chunk size.

Backend selection::

    REPRO_KERNELS=auto   (default) use kernels when a compiler exists
                         and every self-test passes; else fall back
    REPRO_KERNELS=on     require kernels; raise when unavailable
    REPRO_KERNELS=off    pure NumPy, never compile

Fallback (off / no compiler / failed build / failed self-test) is
silent except for a one-time ``repro.kernels`` log line saying which.
``REPRO_KERNELS`` is the one backend selector; ``repro kernels``
reports what it resolved to.  The singleton is :func:`backend`;
:func:`override` swaps it for a ``with`` block (the test fixtures and
the benchmarks' backend comparisons).

Dispatch sites call the ``try_*`` helpers below, which return
``None``/``False`` whenever the kernel cannot take the call (backend
inactive, wrong dtype/layout, non-uniform hash rows) — the caller then
runs its NumPy path.  No sketch ever *requires* the backend.

This module must not import the hashing or sketch layers (they import
it); the self-tests compare each kernel against local NumPy reference
implementations of the exact array idioms those layers use.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.kernels._build import (
    BuildError,
    CFLAGS,
    SOURCE,
    build,
    cache_dir,
    effective_cflags,
    find_compiler,
    sanitize_mode,
)

__all__ = [
    "ABI_VERSION",
    "KERNEL_NAMES",
    "BuildError",
    "KernelBackend",
    "backend",
    "has",
    "override",
    "set_mode",
    "try_cauchy_fold",
    "try_csss_scatter",
    "try_kwise",
    "try_table_update",
]

_LOG = logging.getLogger("repro.kernels")

ABI_VERSION = 1

KERNEL_NAMES = (
    "kwise_hash",
    "fused_table_update",
    "cauchy_fold",
    "csss_scatter",
)

_MODES = ("auto", "on", "off")

_c = ctypes
#: symbol -> (argtypes, restype); pointers travel as raw addresses
#: (``ndarray.ctypes.data``) through ``c_void_p``.
_SIGNATURES = {
    "repro_abi_version": ((), _c.c_int64),
    "repro_kwise_hash": (
        (_c.c_void_p, _c.c_int64, _c.c_void_p, _c.c_int64,
         _c.c_uint64, _c.c_uint64, _c.c_void_p),
        None,
    ),
    "repro_fused_table_update": (
        (_c.c_void_p, _c.c_int64, _c.c_int64,
         _c.c_void_p, _c.c_int64, _c.c_uint64,
         _c.c_void_p, _c.c_int64, _c.c_uint64,
         _c.c_void_p, _c.c_void_p, _c.c_int64),
        None,
    ),
    "repro_cauchy_fold": (
        (_c.c_void_p, _c.c_int64, _c.c_void_p, _c.c_void_p,
         _c.c_void_p, _c.c_int64),
        None,
    ),
    "repro_csss_scatter": (
        (_c.c_void_p, _c.c_void_p, _c.c_void_p, _c.c_void_p,
         _c.c_void_p, _c.c_int64),
        _c.c_int64,
    ),
}

_logged: set[str] = set()


def _log_once(message: str) -> None:
    if message not in _logged:
        _logged.add(message)
        _LOG.info("repro.kernels: %s", message)


# ---------------------------------------------------------------------------
# NumPy reference implementations (the exact idioms of the dispatch
# sites) — used only by the load-time self-tests.

def _np_kwise(items, coeffs, prime, range_size):
    p = np.uint64(prime)
    x = items.astype(np.uint64) % p
    acc = np.zeros(x.shape, dtype=np.uint64)
    for c in coeffs:
        acc = (acc * x + np.uint64(c)) % p
    return (acc % np.uint64(range_size)).astype(np.int64)


def _np_table_update(table, bucket_rows, bucket_prime, sign_rows,
                     sign_prime, items, deltas):
    depth, width = table.shape
    for r in range(depth):
        if bucket_rows is None:
            buckets = np.zeros(items.shape, dtype=np.int64)
        else:
            buckets = _np_kwise(items, bucket_rows[r], bucket_prime, width)
        signed = deltas
        if sign_rows is not None:
            signs = _np_kwise(items, sign_rows[r], sign_prime, 2) * 2 - 1
            signed = signs * deltas
        np.add.at(table[r], buckets, signed)


def _np_cauchy_fold(acc, entries, deltas, inverse=None):
    buf = np.empty(len(deltas) + 1, dtype=np.float64)
    for j, e in enumerate(entries):
        gathered = e if inverse is None else e[inverse]
        buf[0] = acc[j]
        np.multiply(gathered, deltas, out=buf[1:])
        acc[j] = np.cumsum(buf)[-1]


def _np_csss_scatter(pos, neg, buckets, eff_signs, kept):
    best = -1
    nz = kept > 0
    if nz.any():
        b = buckets[nz]
        s = eff_signs[nz]
        kv = kept[nz]
        pos_m = s > 0
        if pos_m.any():
            np.add.at(pos, b[pos_m], kv[pos_m])
            best = max(best, int(pos[b[pos_m]].max()))
        neg_m = ~pos_m
        if neg_m.any():
            np.add.at(neg, b[neg_m], kv[neg_m])
            best = max(best, int(neg[b[neg_m]].max()))
    return best


def _selftest_rng():
    # repro: allow[rng-discipline] -- fixed-literal seed for load-time
    # kernel self-tests; never feeds sketch state
    return np.random.default_rng(12345)


_TEST_PRIME = (1 << 31) - 1  # Mersenne prime < 2^32: the exact regime


def _coeff_rows(rng, depth, k):
    rows = rng.integers(0, _TEST_PRIME, size=(depth, k), dtype=np.int64)
    return np.ascontiguousarray(rows.astype(np.uint64))


def _test_items(rng, m=257):
    # Negative and huge magnitudes included: (uint64) wrapping must
    # match ndarray.astype(np.uint64).
    items = rng.integers(-(1 << 62), 1 << 62, size=m, dtype=np.int64)
    items[:5] = (-1, 0, 1, -(1 << 62), (1 << 62) - 1)
    return items


def _selftest_kwise(lib) -> bool:
    rng = _selftest_rng()
    items = _test_items(rng)
    coeffs = _coeff_rows(rng, 1, 4)[0]
    out = np.empty(items.shape, dtype=np.int64)
    lib.repro_kwise_hash(items.ctypes.data, items.size, coeffs.ctypes.data,
                         coeffs.size, _TEST_PRIME, 97, out.ctypes.data)
    want = _np_kwise(items, coeffs, _TEST_PRIME, 97)
    return bool(np.array_equal(out, want))


def _selftest_table(lib) -> bool:
    rng = _selftest_rng()
    items = _test_items(rng)
    deltas = rng.integers(-9, 10, size=items.size, dtype=np.int64)
    deltas[:3] = 0  # plan paths feed zero sums through
    bucket = _coeff_rows(rng, 3, 2)
    sign = _coeff_rows(rng, 3, 4)
    cases = (
        (bucket, sign, 8),    # CountSketch
        (bucket, None, 8),    # CountMin
        (None, sign, 1),      # AMS (z viewed as (depth, 1))
    )
    for bucket_rows, sign_rows, width in cases:
        got = np.zeros((3, width), dtype=np.int64)
        want = np.zeros((3, width), dtype=np.int64)
        lib.repro_fused_table_update(
            got.ctypes.data, 3, width,
            bucket_rows.ctypes.data if bucket_rows is not None else None,
            bucket_rows.shape[1] if bucket_rows is not None else 0,
            _TEST_PRIME,
            sign_rows.ctypes.data if sign_rows is not None else None,
            sign_rows.shape[1] if sign_rows is not None else 0,
            _TEST_PRIME,
            items.ctypes.data, deltas.ctypes.data, items.size,
        )
        _np_table_update(want, bucket_rows, _TEST_PRIME, sign_rows,
                         _TEST_PRIME, items, deltas)
        if not np.array_equal(got, want):
            return False
    return True


def _selftest_cauchy(lib) -> bool:
    rng = _selftest_rng()
    m, n_rows, n_unique = 211, 4, 61
    deltas = rng.integers(-50, 51, size=m, dtype=np.int64)
    inverse = rng.integers(0, n_unique, size=m, dtype=np.int64)
    entries = [np.tan(np.pi * (rng.random(n_unique) - 0.5))
               for _ in range(n_rows)]
    full = [e[inverse] for e in entries]
    for ent, inv in ((full, None), (entries, inverse)):
        got = rng.standard_normal(n_rows)
        want = got.copy()
        ptrs = np.array([e.ctypes.data for e in ent], dtype=np.uintp)
        lib.repro_cauchy_fold(
            got.ctypes.data, n_rows, ptrs.ctypes.data,
            inv.ctypes.data if inv is not None else None,
            deltas.ctypes.data, m,
        )
        _np_cauchy_fold(want, ent, deltas, inv)
        if not np.array_equal(got, want):
            return False
    return True


def _selftest_csss(lib) -> bool:
    rng = _selftest_rng()
    m, width = 173, 16
    buckets = rng.integers(0, width, size=m, dtype=np.int64)
    signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=m)
    kept = rng.integers(0, 5, size=m, dtype=np.int64)
    pos_got = rng.integers(0, 40, size=width, dtype=np.int64)
    neg_got = rng.integers(0, 40, size=width, dtype=np.int64)
    pos_want, neg_want = pos_got.copy(), neg_got.copy()
    got = int(lib.repro_csss_scatter(
        pos_got.ctypes.data, neg_got.ctypes.data, buckets.ctypes.data,
        signs.ctypes.data, kept.ctypes.data, m,
    ))
    want = _np_csss_scatter(pos_want, neg_want, buckets, signs, kept)
    none_kept = np.zeros(m, dtype=np.int64)
    empty = int(lib.repro_csss_scatter(
        pos_got.ctypes.data, neg_got.ctypes.data, buckets.ctypes.data,
        signs.ctypes.data, none_kept.ctypes.data, m,
    ))
    return (got == want and empty == -1
            and np.array_equal(pos_got, pos_want)
            and np.array_equal(neg_got, neg_want))


_SELF_TESTS = {
    "kwise_hash": _selftest_kwise,
    "fused_table_update": _selftest_table,
    "cauchy_fold": _selftest_cauchy,
    "csss_scatter": _selftest_csss,
}


# ---------------------------------------------------------------------------
# The backend object and its singleton.

class KernelBackend:
    """State of the compiled backend: mode, loaded library (or the
    reason there is none), and per-kernel self-test verdicts."""

    def __init__(self, mode: str | None = None):
        if mode is None:
            mode = os.environ.get("REPRO_KERNELS", "auto") or "auto"
        mode = mode.strip().lower()
        if mode not in _MODES:
            raise ValueError(
                f"REPRO_KERNELS must be one of {_MODES}, got {mode!r}"
            )
        self.mode = mode
        # Raises BuildError on an unknown value even in off/auto mode:
        # a run that asked for a sanitizer must never silently get an
        # uninstrumented library.
        self.sanitize = sanitize_mode()
        self.compiler = find_compiler()
        self.lib: ctypes.CDLL | None = None
        self.lib_path = None
        self.reason: str | None = None
        self.kernels = {name: False for name in KERNEL_NAMES}
        if self.mode == "off":
            self.reason = "disabled (REPRO_KERNELS=off)"
            _log_once(f"pure NumPy backend: {self.reason}")
        else:
            self._load()

    # -- loading ----------------------------------------------------

    def _load(self) -> None:
        if self.compiler is None:
            return self._fail("no C compiler found")
        try:
            path = build(self.compiler, self.sanitize)
        except BuildError as exc:
            return self._fail(f"compile failed: {exc}")
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:  # pragma: no cover - stale/foreign .so
            return self._fail(f"dlopen failed: {exc}")
        try:
            for name, (argtypes, restype) in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.argtypes = list(argtypes)
                fn.restype = restype
        except AttributeError as exc:  # pragma: no cover - stale .so
            return self._fail(f"missing symbol: {exc}")
        got_abi = int(lib.repro_abi_version())
        if got_abi != ABI_VERSION:  # pragma: no cover - stale .so
            return self._fail(
                f"ABI mismatch (library {got_abi}, expected {ABI_VERSION})"
            )
        failed = [name for name, test in _SELF_TESTS.items()
                  if not test(lib)]
        if failed:
            return self._fail(
                "self-test failed (kernel(s) not bit-identical to "
                f"NumPy): {', '.join(failed)}"
            )
        self.lib = lib
        self.lib_path = path
        self.kernels = {name: True for name in KERNEL_NAMES}

    def _fail(self, reason: str) -> None:
        if self.mode == "on":
            raise RuntimeError(f"REPRO_KERNELS=on but {reason}")
        self.reason = reason
        _log_once(f"falling back to pure NumPy: {reason}")

    # -- state ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when the compiled library is loaded and every kernel
        passed its bit-identity self-test."""
        return self.lib is not None and all(self.kernels.values())

    def has(self, name: str) -> bool:
        return self.lib is not None and self.kernels.get(name, False)

    def describe(self) -> dict:
        """CLI-facing state record (``repro kernels``)."""
        return {
            "mode": self.mode,
            "active": self.active,
            "reason": self.reason,
            "compiler": self.compiler,
            "sanitize": self.sanitize,
            "cache_dir": str(cache_dir()),
            "library": str(self.lib_path) if self.lib_path else None,
            "cflags": " ".join(effective_cflags(self.sanitize)),
            "source": str(SOURCE),
            "kernels": dict(self.kernels),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else f"inactive ({self.reason})"
        return f"KernelBackend(mode={self.mode!r}, {state})"


_lock = threading.Lock()
_backend: KernelBackend | None = None


def backend() -> KernelBackend:
    """The process-wide backend singleton (built lazily: the first
    call in auto/on mode triggers the cached compile + self-tests)."""
    global _backend
    if _backend is None:
        with _lock:
            if _backend is None:
                _backend = KernelBackend()
    return _backend


def set_mode(mode: str) -> KernelBackend:
    """Replace the singleton with a fresh backend in ``mode``."""
    global _backend
    with _lock:
        _backend = KernelBackend(mode)
    return _backend


@contextmanager
def override(mode: str):
    """Swap the singleton for the duration of a ``with`` block — the
    test fixtures' and CLI's backend selector."""
    global _backend
    with _lock:
        previous = _backend
        _backend = KernelBackend(mode)
        current = _backend
    try:
        yield current
    finally:
        with _lock:
            _backend = previous


def has(name: str) -> bool:
    """Is kernel ``name`` available on the current backend?"""
    return backend().has(name)


# ---------------------------------------------------------------------------
# Packed-coefficient caches.  Keyed by the coefficient *values* (hash
# objects compare by value), shared across sketch instances, and never
# stored on the sketches themselves: backend flips must leave sketch
# state byte-for-byte untouched (the equivalence harnesses deep-compare
# ``__dict__``).

@lru_cache(maxsize=1024)
def _packed_coeffs(coeffs: tuple) -> np.ndarray:
    arr = np.array(coeffs, dtype=np.uint64)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=256)
def _packed_matrix(coeff_rows: tuple) -> np.ndarray:
    arr = np.array(coeff_rows, dtype=np.uint64)
    arr.flags.writeable = False
    return arr


def _packed_rows(hashes, depth: int, expected_range: int):
    """Pack per-row Horner coefficients into one (depth, k) uint64
    matrix; ``None`` when the rows are not uniform enough for the fused
    kernel (mixed k/prime, big-prime object path, wrong range)."""
    if len(hashes) != depth:
        return None
    rows = []
    prime = None
    for h in hashes:
        h = getattr(h, "_h", h)  # SignHash wraps a range-2 KWiseHash
        if not getattr(h, "_u64_ok", False):
            return None
        if h.range_size != expected_range:
            return None
        if prime is None:
            prime = h.prime
        elif h.prime != prime:
            return None
        rows.append(h._coeffs)
    if len({len(r) for r in rows}) != 1:
        return None
    return _packed_matrix(tuple(rows)), len(rows[0]), prime


def _int64_vector(arr) -> bool:
    return (isinstance(arr, np.ndarray) and arr.dtype == np.int64
            and arr.ndim == 1 and arr.flags.c_contiguous)


# ---------------------------------------------------------------------------
# Dispatch helpers.  Each returns None/False when the kernel cannot
# take the call; the caller then runs its NumPy path.

def try_kwise(arr: np.ndarray, h) -> np.ndarray | None:
    """Fused Horner hash of ``arr`` under hash object ``h`` (anything
    with ``_coeffs``/``prime``/``range_size``/``_u64_ok``)."""
    b = backend()
    if not b.has("kwise_hash"):
        return None
    if not getattr(h, "_u64_ok", False) or not _int64_vector(arr):
        return None
    coeffs = _packed_coeffs(h._coeffs)
    out = np.empty(arr.shape, dtype=np.int64)
    b.lib.repro_kwise_hash(
        arr.ctypes.data, arr.size, coeffs.ctypes.data, coeffs.size,
        h.prime, h.range_size, out.ctypes.data,
    )
    return out


def try_table_update(table, bucket_hashes, sign_hashes, items,
                     deltas) -> bool:
    """One fused hash+sign+scatter pass per row over ``table``.

    ``bucket_hashes is None`` routes every update to column 0 (the AMS
    layout); ``sign_hashes is None`` skips the sign flip (CountMin).
    Serves the raw-chunk path and the plan-coalesced path alike (zero
    sums are identity adds).
    """
    b = backend()
    if not b.has("fused_table_update"):
        return False
    if not (isinstance(table, np.ndarray) and table.dtype == np.int64
            and table.ndim == 2 and table.flags.c_contiguous):
        return False
    if not (_int64_vector(items) and _int64_vector(deltas)):
        return False
    if items.size != deltas.size:
        return False
    depth, width = table.shape
    if bucket_hashes is None:
        if width != 1:
            return False
        bc, kb, bprime = None, 0, 1
    else:
        packed = _packed_rows(bucket_hashes, depth, width)
        if packed is None:
            return False
        bc, kb, bprime = packed
    if sign_hashes is None:
        sc, ks, sprime = None, 0, 1
    else:
        packed = _packed_rows(sign_hashes, depth, 2)
        if packed is None:
            return False
        sc, ks, sprime = packed
    b.lib.repro_fused_table_update(
        table.ctypes.data, depth, width,
        bc.ctypes.data if bc is not None else None, kb, bprime,
        sc.ctypes.data if sc is not None else None, ks, sprime,
        items.ctypes.data, deltas.ctypes.data, items.size,
    )
    return True


def try_cauchy_fold(acc, entries, deltas, inverse=None) -> bool:
    """Sequential left-fold ``acc[r] += sum entries[r][idx] * deltas``
    over precomputed per-row entry arrays (``inverse`` gathers the
    plan's unique entries back onto the chunk)."""
    b = backend()
    if not b.has("cauchy_fold"):
        return False
    if not (isinstance(acc, np.ndarray) and acc.dtype == np.float64
            and acc.ndim == 1 and acc.flags.c_contiguous):
        return False
    if len(entries) != acc.size or not _int64_vector(deltas):
        return False
    if inverse is not None:
        if not _int64_vector(inverse) or inverse.size != deltas.size:
            return False
    for e in entries:
        if not (isinstance(e, np.ndarray) and e.dtype == np.float64
                and e.ndim == 1 and e.flags.c_contiguous):
            return False
        if inverse is None and e.size != deltas.size:
            return False
    ptrs = np.array([e.ctypes.data for e in entries], dtype=np.uintp)
    b.lib.repro_cauchy_fold(
        acc.ctypes.data, acc.size, ptrs.ctypes.data,
        inverse.ctypes.data if inverse is not None else None,
        deltas.ctypes.data, deltas.size,
    )
    return True


def try_csss_scatter(pos_row, neg_row, buckets, eff_signs,
                     kept) -> int | None:
    """Drive one accepted CSSS segment into the pos/neg counter rows;
    returns the post-add max over touched cells (-1: nothing kept), or
    ``None`` when the kernel cannot take the call."""
    b = backend()
    if not b.has("csss_scatter"):
        return None
    for arr in (pos_row, neg_row, buckets, eff_signs, kept):
        if not _int64_vector(arr):
            return None
    if not (buckets.size == eff_signs.size == kept.size):
        return None
    return int(b.lib.repro_csss_scatter(
        pos_row.ctypes.data, neg_row.ctypes.data, buckets.ctypes.data,
        eff_signs.ctypes.data, kept.ctypes.data, kept.size,
    ))
