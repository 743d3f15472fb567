"""Optional fused C kernels for the hot sketch update paths.

The stack's per-chunk update pipeline (uint64 Horner hash -> bucket ->
sign -> scatter-add) is NumPy-saturated: each stage is one more full
pass over the chunk.  This package compiles one C99 source file
(:mod:`._build`, no third-party deps) into a small CPython extension
module of single-pass kernels, with one hard rule: **every kernel is
bit-identical to the NumPy path it replaces** — the equivalence
harnesses run against both backends at every chunk size.  Each kernel
is one ``METH_FASTCALL`` call that takes the NumPy arrays themselves
through the buffer protocol and releases the GIL around its loop; the
build needs the interpreter's ``Python.h``.

Backend selection::

    REPRO_KERNELS=auto   (default) use kernels when a compiler and
                         Python.h exist and every self-test passes;
                         else fall back
    REPRO_KERNELS=on     require kernels; raise when unavailable
    REPRO_KERNELS=off    pure NumPy, never compile

Fallback (off / no compiler / no ``Python.h`` / failed build / failed
self-test) is silent except for a one-time ``repro.kernels`` log line
saying which.
``REPRO_KERNELS`` is the one backend selector; ``repro kernels``
reports what it resolved to.  The singleton is :func:`backend`;
:func:`override` swaps it for a ``with`` block (the test fixtures and
the benchmarks' backend comparisons).

Dispatch sites call the ``try_*`` helpers below, which return
``None``/``False`` whenever the kernel cannot take the call (backend
inactive, non-uniform hash rows, or an array the binding refuses: not
C-contiguous, not int64/uint64/float64 by format, a read-only output,
mismatched lengths) — the caller then runs its NumPy path, and nothing
was written.  The array checks live in the binding alone.  No sketch
ever *requires* the backend.

This module must not import the hashing or sketch layers (they import
it); the self-tests compare each kernel against local NumPy reference
implementations of the exact array idioms those layers use.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
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
    "BuildError",
    "KernelBackend",
    "backend",
    "override",
    "try_cauchy_fold",
    "try_csss_scatter",
    "try_kwise",
    "try_table_update",
]

_LOG = logging.getLogger("repro.kernels")

ABI_VERSION = 2

_MODES = ("auto", "on", "off")

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
    out = lib.kwise_hash(items, coeffs, _TEST_PRIME, 97,
                         np.empty(items.shape, dtype=np.int64))
    want = _np_kwise(items, coeffs, _TEST_PRIME, 97)
    return out is not None and bool(np.array_equal(out, want))


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
        taken = lib.fused_table_update(
            got, bucket_rows, _TEST_PRIME, width,
            sign_rows, _TEST_PRIME, 2, items, deltas,
        )
        _np_table_update(want, bucket_rows, _TEST_PRIME, sign_rows,
                         _TEST_PRIME, items, deltas)
        if taken is None or not np.array_equal(got, want):
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
        taken = lib.cauchy_fold(got, ent, inv, deltas)
        _np_cauchy_fold(want, ent, deltas, inv)
        if taken is None or not np.array_equal(got, want):
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
    got = lib.csss_scatter(pos_got, neg_got, buckets, signs, kept)
    want = _np_csss_scatter(pos_want, neg_want, buckets, signs, kept)
    empty = lib.csss_scatter(pos_got, neg_got, buckets, signs,
                             np.zeros(m, dtype=np.int64))
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

def _import_extension(path):
    """Import the built extension module from ``path`` (kept out of
    ``sys.modules``: each backend holds its own module object)."""
    name = f"{__name__}._kernels"  # PyInit__kernels names the last part
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


class KernelBackend:
    """State of the compiled backend: mode, and the loaded extension
    module or the reason there is none.  The module is kept only when
    every kernel passes its self-test, so one bit says which backend
    runs."""

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
        self.lib = None  # the extension module once its self-tests pass
        self.lib_path = None
        self.reason: str | None = None
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
            lib = _import_extension(path)
        except ImportError as exc:  # pragma: no cover - stale/foreign .so
            return self._fail(f"import failed: {exc}")
        got_abi = lib.abi_version()
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

    def _fail(self, reason: str) -> None:
        if self.mode == "on":
            raise RuntimeError(f"REPRO_KERNELS=on but {reason}")
        self.reason = reason
        _log_once(f"falling back to pure NumPy: {reason}")

    # -- state ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when the extension module is loaded, which it is only
        once every kernel passed its bit-identity self-test."""
        return self.lib is not None

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


def _packed_rows(hashes):
    """Pack per-row Horner coefficients into one (depth, k) uint64
    matrix: ``(matrix, prime, range)``, ``(None, 0, 0)`` for no hash
    rows, or ``None`` when the rows are not uniform enough for the
    fused kernel (mixed k/prime/range, big-prime object path).  The
    binding checks the matrix against the table."""
    if hashes is None:
        return None, 0, 0
    hashes = [getattr(h, "_h", h) for h in hashes]  # SignHash wraps one
    if not all(getattr(h, "_u64_ok", False) for h in hashes):
        return None
    if len({(h.prime, h.range_size, len(h._coeffs)) for h in hashes}) != 1:
        return None
    matrix = _packed_matrix(tuple(h._coeffs for h in hashes))
    return matrix, hashes[0].prime, hashes[0].range_size


# ---------------------------------------------------------------------------
# Dispatch helpers.  Each returns None/False when the kernel cannot
# take the call (the binding declines any array it cannot dereference
# as the kernel needs); the caller then runs its NumPy path.

def try_kwise(arr: np.ndarray, h) -> np.ndarray | None:
    """Fused Horner hash of ``arr`` under hash object ``h`` (anything
    with ``_coeffs``/``prime``/``range_size``/``_u64_ok``)."""
    lib = backend().lib
    if lib is None or not getattr(h, "_u64_ok", False):
        return None
    return lib.kwise_hash(arr, _packed_coeffs(h._coeffs), h.prime,
                          h.range_size, np.empty(arr.shape, np.int64))


def try_table_update(table, bucket_hashes, sign_hashes, items,
                     deltas) -> bool:
    """One fused hash+sign+scatter pass per row over ``table``.

    ``bucket_hashes is None`` routes every update to column 0 (the AMS
    layout); ``sign_hashes is None`` skips the sign flip (CountMin).
    Serves the raw-chunk path and the plan-coalesced path alike (zero
    sums are identity adds).
    """
    lib = backend().lib
    if lib is None:
        return False
    bucket, sign = _packed_rows(bucket_hashes), _packed_rows(sign_hashes)
    if bucket is None or sign is None:
        return False
    return lib.fused_table_update(table, *bucket, *sign, items,
                                  deltas) is not None


def try_cauchy_fold(acc, entries, deltas, inverse=None) -> bool:
    """Sequential left-fold ``acc[r] += sum entries[r][idx] * deltas``
    over precomputed per-row entry arrays (``inverse`` gathers the
    plan's unique entries back onto the chunk)."""
    lib = backend().lib
    return (lib is not None
            and lib.cauchy_fold(acc, entries, inverse, deltas) is not None)


def try_csss_scatter(pos_row, neg_row, buckets, eff_signs,
                     kept) -> int | None:
    """Drive one accepted CSSS segment into the pos/neg counter rows;
    returns the post-add max over touched cells (-1: nothing kept), or
    ``None`` when the kernel cannot take the call."""
    lib = backend().lib
    if lib is None:
        return None
    return lib.csss_scatter(pos_row, neg_row, buckets, eff_signs, kept)
