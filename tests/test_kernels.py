"""The compiled kernel backend: build cache, selection modes,
self-test gating, dispatch-helper contracts, and bit-identity of every
kernel against the NumPy paths it replaces.

The broad equivalence harnesses (test_batch_equivalence,
test_chunk_plan) already run their full sweeps under both backends via
the ``backend`` fixture; this module covers the backend machinery
itself plus targeted parity checks that exercise the dispatch helpers
directly.
"""

from __future__ import annotations

import os
import sysconfig
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.api.serialize import payload_equal, restore, snapshot
from repro.core.csss import CSSS
from repro.hashing.kwise import KWiseHash, SignHash
from repro.kernels import _build
from repro.sketches.cauchy import CauchyL1Sketch
from repro.sketches.countsketch import CountSketch
from repro.streams.generators import bounded_deletion_stream
from repro.streams.model import Stream, Update

from test_batch_equivalence import assert_same_state

N = 256
SEED = 0x5EED


@lru_cache(maxsize=1)
def _kernel_available() -> bool:
    if os.environ.get("REPRO_KERNELS", "").strip().lower() == "off":
        return False  # CI's tests-no-kernels job: stay NumPy-only
    return kernels.KernelBackend("auto").active


def _require_kernels() -> None:
    if not _kernel_available():
        pytest.skip("no working C toolchain in this environment")


def _replay_chunks(sketch, stream, chunk_size):
    items, deltas = stream.as_arrays()
    for start in range(0, len(items), chunk_size):
        sketch.update_batch(items[start:start + chunk_size],
                            deltas[start:start + chunk_size])
    return sketch


# -- build + cache ------------------------------------------------------------

def test_compile_cache_reuses_library(tmp_path, monkeypatch):
    """Second build with an unchanged source tree returns the cached
    .so without recompiling (the cache key pins source + compiler +
    flags)."""
    compiler = _build.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    first = _build.build(compiler)
    assert first.parent == tmp_path
    assert _build.cache_key(compiler) in first.name
    assert first.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    stamp = first.stat().st_mtime_ns
    second = _build.build(compiler)
    assert second == first
    assert second.stat().st_mtime_ns == stamp  # no rebuild


def test_cache_key_tracks_the_interpreter(monkeypatch):
    """A build for one interpreter never loads into another: the key
    hashes the extension suffix and the include directory."""
    compiler = _build.find_compiler() or "cc"
    real_var, real_paths = sysconfig.get_config_var, sysconfig.get_paths

    def key(suffix, include):
        monkeypatch.setattr(
            sysconfig, "get_config_var",
            lambda name: suffix if name == "EXT_SUFFIX" else real_var(name))
        monkeypatch.setattr(
            sysconfig, "get_paths",
            lambda *a, **k: {**real_paths(*a, **k), "include": include})
        return _build.cache_key(compiler, None)

    py311 = key(".cpython-311-x86_64-linux-gnu.so", "/py/include")
    assert py311 != key(".cpython-312-x86_64-linux-gnu.so", "/py/include")
    assert py311 != key(".cpython-311-x86_64-linux-gnu.so", "/py2/include")
    assert py311 == key(".cpython-311-x86_64-linux-gnu.so", "/py/include")


def test_missing_python_header_is_a_named_build_error(tmp_path,
                                                      monkeypatch):
    """Without ``Python.h`` the extension cannot build: ``auto`` falls
    back to NumPy with a reason naming the header, ``on`` raises."""
    if _build.find_compiler() is None:
        pytest.skip("no C compiler")
    empty = tmp_path / "include"
    empty.mkdir()
    real_paths = sysconfig.get_paths
    monkeypatch.setattr(
        sysconfig, "get_paths",
        lambda *a, **k: {**real_paths(*a, **k), "include": str(empty)})
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "cache"))
    b = kernels.KernelBackend("auto")
    assert not b.active and b.lib is None
    assert "Python.h" in b.reason
    with pytest.raises(RuntimeError, match="Python.h"):
        kernels.KernelBackend("on")


def test_backend_loads_from_fresh_cache_dir(tmp_path, monkeypatch):
    """A cold cache directory is populated and the backend passes all
    self-tests from it."""
    _require_kernels()
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    b = kernels.KernelBackend("auto")
    assert b.active
    assert b.lib_path is not None and b.lib_path.parent == tmp_path


def test_failed_self_test_keeps_no_module(monkeypatch):
    """The module is kept only when every kernel passes its self-test,
    so one failing kernel turns the whole backend off; the reason names
    it, and ``on`` mode raises with it."""
    _require_kernels()
    monkeypatch.setitem(kernels._SELF_TESTS, "cauchy_fold",
                        lambda lib: False)
    b = kernels.KernelBackend("auto")
    assert not b.active and b.lib is None
    assert "self-test failed" in b.reason and "cauchy_fold" in b.reason
    with pytest.raises(RuntimeError, match="cauchy_fold"):
        kernels.KernelBackend("on")


# -- selection modes ----------------------------------------------------------

def test_mode_off_never_loads():
    b = kernels.KernelBackend("off")
    assert not b.active
    assert b.lib is None
    assert "off" in b.reason


def test_mode_on_raises_without_compiler(monkeypatch):
    monkeypatch.setattr(kernels, "find_compiler", lambda: None)
    with pytest.raises(RuntimeError, match="REPRO_KERNELS=on"):
        kernels.KernelBackend("on")


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="REPRO_KERNELS"):
        kernels.KernelBackend("sometimes")


def test_env_selects_mode(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "off")
    assert kernels.KernelBackend().mode == "off"


def test_override_swaps_and_restores_singleton():
    before = kernels.backend()
    with kernels.override("off") as inner:
        assert kernels.backend() is inner
        assert not inner.active
    assert kernels.backend() is before


def test_describe_is_complete():
    info = kernels.backend().describe()
    assert set(info) >= {"mode", "active", "reason", "compiler",
                         "cache_dir", "library", "cflags"}


# -- sanitizer builds ---------------------------------------------------------

def test_sanitize_mode_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS_SANITIZE", raising=False)
    assert _build.sanitize_mode() is None
    monkeypatch.setenv("REPRO_KERNELS_SANITIZE", "off")
    assert _build.sanitize_mode() is None
    monkeypatch.setenv("REPRO_KERNELS_SANITIZE", "UBSan")
    assert _build.sanitize_mode() == "ubsan"


def test_invalid_sanitizer_raises(monkeypatch):
    """An unknown sanitizer name must fail loudly, never fall back to
    an uninstrumented build a CI job would mistake for a clean pass."""
    monkeypatch.setenv("REPRO_KERNELS_SANITIZE", "msan")
    with pytest.raises(_build.BuildError,
                       match="REPRO_KERNELS_SANITIZE"):
        _build.sanitize_mode()
    with pytest.raises(_build.BuildError):
        kernels.KernelBackend("off")


def test_effective_cflags_fold_in_sanitizer():
    assert _build.effective_cflags(None) == _build.CFLAGS
    for mode, extra in _build.SANITIZER_FLAGS.items():
        eff = _build.effective_cflags(mode)
        assert eff == _build.CFLAGS + extra
    # -fwrapv stays on: int64 wrapping is defined for these kernels
    # and UBSan must not flag it.
    assert "-fwrapv" in _build.effective_cflags("ubsan")


def test_sanitizer_flags_key_separate_cache_slots():
    compiler = _build.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    keys = {_build.cache_key(compiler, mode)
            for mode in (None, "asan", "ubsan")}
    assert len(keys) == 3


def test_describe_reports_sanitize(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_SANITIZE", "ubsan")
    info = kernels.KernelBackend("off").describe()
    assert info["sanitize"] == "ubsan"
    assert "-fsanitize=undefined" in info["cflags"]
    monkeypatch.delenv("REPRO_KERNELS_SANITIZE")
    assert kernels.KernelBackend("off").describe()["sanitize"] is None


def test_ubsan_build_loads_and_stays_bit_identical(
    tmp_path, monkeypatch
):
    """A UBSan-instrumented module builds, imports, passes the
    self-tests, and hashes bit-identically to NumPy — with
    -fno-sanitize-recover, any undefined operation would abort the
    process here instead.  (The ASan leg needs its runtime preloaded
    into the host process, so it runs in CI under LD_PRELOAD.)"""
    compiler = _build.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_KERNELS_SANITIZE", "ubsan")
    try:
        path = _build.build(compiler, "ubsan")
    except _build.BuildError as exc:
        pytest.skip(f"toolchain lacks UBSan support: {exc}")
    assert _build.cache_key(compiler, "ubsan") in path.name

    h = KWiseHash(1 << 12, 512, k=4, rng=np.random.default_rng(3))
    items = np.arange(999, dtype=np.int64) % (1 << 12)
    try:
        with kernels.override("on") as b:
            assert b.sanitize == "ubsan"
            assert b.active
            got = h.hash_array(items)
    except RuntimeError as exc:
        pytest.skip(f"sanitized library did not activate: {exc}")
    with kernels.override("off"):
        want = h.hash_array(items)
    assert np.array_equal(got, want)


# -- dispatch-helper contracts ------------------------------------------------

def test_dispatch_helpers_decline_when_off():
    """Every try_* helper must decline (not raise, not mutate) when
    the backend is inactive — the callers' NumPy fallback depends on
    that."""
    with kernels.override("off"):
        h = KWiseHash(N, 64, k=3, rng=np.random.default_rng(0))
        assert kernels.try_kwise(np.arange(8, dtype=np.int64), h) is None
        cs = CountSketch(N, 8, 2, np.random.default_rng(0))
        before = cs.table.copy()
        ok = kernels.try_table_update(
            cs.table, cs._bucket_hashes, cs._sign_hashes,
            np.arange(4, dtype=np.int64), np.ones(4, dtype=np.int64))
        assert ok is False
        assert np.array_equal(cs.table, before)
        acc = np.zeros(2)
        assert kernels.try_cauchy_fold(
            acc, [np.zeros(4), np.zeros(4)],
            np.ones(4, dtype=np.int64)) is False
        assert kernels.try_csss_scatter(
            np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
            np.zeros(4, dtype=np.int64), np.ones(4, dtype=np.int64),
            np.ones(4, dtype=np.int64)) is None


# -- binding contract -----------------------------------------------------------
#
# The extension checks every array it dereferences: C-contiguous layout,
# the element format (int64 / uint64 / float64 by format code, native
# byte order), writable outputs, matching lengths.  Anything else is a
# decline that writes nothing, and the caller's NumPy path then lands
# on the kernel's bits for the same values.

def _variants(good: np.ndarray, output: bool) -> dict[str, np.ndarray]:
    """Arrays holding ``good``'s values that the binding must refuse:
    the other element types, the byte-swapped dtype, a strided view,
    Fortran order for a matrix, and a read-only copy of an output."""
    out = {np.dtype(t).name: good.astype(t)
           for t in (np.int32, np.uint64, np.float64, np.int64)
           if np.dtype(t) != good.dtype}
    out["byteswapped"] = good.astype(good.dtype.newbyteorder("S"))
    out["strided"] = np.repeat(good, 2, axis=-1)[..., ::2]
    if good.ndim == 2:
        out["fortran"] = np.asfortranarray(good)
    if output:
        out["readonly"] = good.copy()
        out["readonly"].flags.writeable = False
    return out


def _bad_calls(args: tuple, names: dict, outputs=()) -> dict:
    """``args`` with one array (positions keyed in ``names``) swapped
    for each of its refused variants."""
    return {f"{name}_{label}": args[:i] + (bad,) + args[i + 1:]
            for i, name in names.items()
            for label, bad in _variants(args[i], i in outputs).items()}


def _assert_declines(helper, cases: dict, outputs) -> None:
    """Every case declines (``None``/``False``) and leaves the arrays
    at positions ``outputs`` as they were."""
    for label, args in cases.items():
        before = [args[i].copy() for i in outputs]
        result = helper(*args)
        assert result is None or result is False, label
        for i, was in zip(outputs, before):
            assert np.array_equal(args[i], was), label


def _rng_arrays(m=300):
    rng = np.random.default_rng(SEED)
    items = rng.integers(0, N, size=m, dtype=np.int64)
    deltas = rng.integers(1, 10, size=m, dtype=np.int64)
    deltas[::3] *= -1
    return rng, items, deltas


def test_kwise_binding_declines_what_it_cannot_dereference():
    _require_kernels()
    _, items, _ = _rng_arrays()
    h = KWiseHash(N, 97, k=4, rng=np.random.default_rng(1))
    with kernels.override("auto") as b:
        want = kernels.try_kwise(items, h)
        assert want is not None
        for label, bad in _variants(items, False).items():
            assert kernels.try_kwise(bad, h) is None, label
            # hash_array falls back to its NumPy path: the kernel's bits.
            assert np.array_equal(h.hash_array(bad), want), label
        out = np.full(items.shape, -7, dtype=np.int64)
        args = (items, kernels._packed_coeffs(h._coeffs), h.prime,
                h.range_size, out)
        cases = _bad_calls(args, {0: "items", 1: "coeffs", 4: "out"}, (4,))
        cases["out_length"] = args[:4] + (out[:-1],)
        _assert_declines(b.lib.kwise_hash, cases, (4,))


def test_table_binding_declines_what_it_cannot_dereference():
    _require_kernels()
    _, items, deltas = _rng_arrays()
    with kernels.override("auto"):
        cs = CountSketch(N, 8, 3, np.random.default_rng(0))

        def update(table, items, deltas):
            return kernels.try_table_update(
                table, cs._bucket_hashes, cs._sign_hashes, items, deltas)

        args = (cs.table, items, deltas)
        cases = _bad_calls(args, {0: "table", 1: "items", 2: "deltas"}, (0,))
        cases["table_rows"] = (cs.table[:2], items, deltas)
        cases["lengths"] = (cs.table, items, deltas[:-1])
        _assert_declines(update, cases, (0,))
        assert update(*args)
    with kernels.override("off"):
        ref = CountSketch(N, 8, 3, np.random.default_rng(0))
        ref.update_batch(items, deltas)
    assert np.array_equal(cs.table, ref.table)


def test_cauchy_binding_declines_what_it_cannot_dereference():
    _require_kernels()
    rng, _, deltas = _rng_arrays()
    m, n_rows, n_unique = deltas.size, 3, 41
    full = [np.tan(np.pi * (rng.random(m) - 0.5)) for _ in range(n_rows)]
    unique = [np.tan(np.pi * (rng.random(n_unique) - 0.5))
              for _ in range(n_rows)]
    inverse = rng.integers(0, n_unique, size=m, dtype=np.int64)
    acc = rng.standard_normal(n_rows)
    cases = {
        **_bad_calls((acc, full, deltas), {0: "acc", 2: "deltas"}, (0,)),
        **_bad_calls((acc, unique, deltas, inverse), {3: "inverse"}),
        "entries_count": (acc, full[:2], deltas),
        "entry_length": (acc, [full[0], full[1][:-1], full[2]], deltas),
        "inverse_length": (acc, unique, deltas, inverse[:-1]),
    }
    for label, bad in _variants(full[1], False).items():
        cases[f"entry_{label}"] = (acc, [full[0], bad, full[2]], deltas)
    with kernels.override("auto"):
        _assert_declines(kernels.try_cauchy_fold, cases, (0,))
        for entries, inv in ((full, None), (unique, inverse)):
            got, want = acc.copy(), acc.copy()
            assert kernels.try_cauchy_fold(got, entries, deltas, inv)
            kernels._np_cauchy_fold(want, entries, deltas, inv)
            assert np.array_equal(got, want)


def test_csss_binding_declines_what_it_cannot_dereference():
    _require_kernels()
    rng, _, _ = _rng_arrays()
    m, width = 173, 16
    args = (
        rng.integers(0, 40, size=width, dtype=np.int64),  # pos
        rng.integers(0, 40, size=width, dtype=np.int64),  # neg
        rng.integers(0, width, size=m, dtype=np.int64),  # buckets
        rng.choice(np.array([-1, 1], dtype=np.int64), size=m),  # signs
        rng.integers(0, 5, size=m, dtype=np.int64),  # kept
    )
    names = dict(enumerate(("pos", "neg", "buckets", "signs", "kept")))
    cases = _bad_calls(args, names, (0, 1))
    cases["kept_length"] = args[:4] + (args[4][:-1],)
    cases["signs_length"] = args[:3] + (args[3][:-1], args[4])
    pos, neg = args[0].copy(), args[1].copy()
    want = kernels._np_csss_scatter(pos, neg, *args[2:])
    with kernels.override("auto"):
        _assert_declines(kernels.try_csss_scatter, cases, (0, 1))
        assert kernels.try_csss_scatter(*args) == want
    assert np.array_equal(args[0], pos) and np.array_equal(args[1], neg)


# -- targeted parity ----------------------------------------------------------

def test_kwise_hash_parity():
    """hash_array dispatches to the C Horner kernel and returns the
    same uint-reduced values, for plain and sign hashes."""
    _require_kernels()
    rng = np.random.default_rng(SEED)
    items = rng.integers(0, 1 << 16, size=997, dtype=np.int64)
    h = KWiseHash(1 << 16, 4096, k=5, rng=np.random.default_rng(1))
    s = SignHash(1 << 16, np.random.default_rng(2), k=4)
    with kernels.override("off"):
        want_h, want_s = h.hash_array(items), s.hash_array(items)
    with kernels.override("auto"):
        got_h, got_s = h.hash_array(items), s.hash_array(items)
    assert np.array_equal(got_h, want_h)
    assert np.array_equal(got_s, want_s)


@pytest.mark.parametrize("chunk", [1, 13, 512])
def test_replay_parity_across_backends(chunk):
    """Full replays under each backend leave bit-identical deep state
    (hash seeds, tables, accumulators, consumed randomness)."""
    _require_kernels()
    stream = bounded_deletion_stream(N, 2000, alpha=4, seed=41,
                                     strict=False)
    for factory in (
        lambda rng: CountSketch(N, 32, 3, rng),
        lambda rng: CauchyL1Sketch(N, eps=0.4, rng=rng),
        lambda rng: CSSS(N, k=6, eps=0.15, alpha=4, rng=rng, depth=3),
    ):
        with kernels.override("off"):
            want = _replay_chunks(
                factory(np.random.default_rng(SEED)), stream, chunk)
        with kernels.override("auto"):
            got = _replay_chunks(
                factory(np.random.default_rng(SEED)), stream, chunk)
        assert_same_state(want, got)


def test_snapshot_restore_across_backend_flips():
    """A snapshot taken under one backend restores and continues under
    the other, landing on the same bits as an uninterrupted replay —
    backend choice must be invisible to persistence."""
    _require_kernels()
    stream = bounded_deletion_stream(N, 1600, alpha=4, seed=42,
                                     strict=False)
    items, deltas = stream.as_arrays()
    half = len(items) // 2
    first = Stream(N, (Update(int(i), int(d))
                       for i, d in zip(items[:half], deltas[:half])))
    second = Stream(N, (Update(int(i), int(d))
                        for i, d in zip(items[half:], deltas[half:])))

    with kernels.override("auto"):
        sk = _replay_chunks(
            CountSketch(N, 32, 3, np.random.default_rng(SEED)), first, 256)
        payload = snapshot(sk)
    with kernels.override("off"):
        resumed = restore(payload)
        _replay_chunks(resumed, second, 256)
        reference = _replay_chunks(
            CountSketch(N, 32, 3, np.random.default_rng(SEED)), stream, 256)
    assert_same_state(reference, resumed)
    assert payload_equal(snapshot(reference), snapshot(resumed))


_update_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=-40, max_value=40).filter(lambda d: d != 0),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=15, deadline=None)
@given(pairs=_update_lists, data=st.data())
def test_property_kernel_parity_random_chunkings(pairs, data):
    """Arbitrary mixed-sign streams and arbitrary chunk boundaries:
    kernel and NumPy backends are bit-identical on the structures with
    fused update paths."""
    if not _kernel_available():
        pytest.skip("no working C toolchain in this environment")
    stream = Stream(N, (Update(i, d) for i, d in pairs))
    chunk = data.draw(
        st.integers(min_value=1, max_value=len(pairs)), label="chunk")
    for factory in (
        lambda rng: CountSketch(N, 16, 3, rng),
        lambda rng: CSSS(N, k=4, eps=0.2, alpha=4, rng=rng, depth=3),
    ):
        with kernels.override("off"):
            want = _replay_chunks(
                factory(np.random.default_rng(7)), stream, chunk)
        with kernels.override("auto"):
            got = _replay_chunks(
                factory(np.random.default_rng(7)), stream, chunk)
        assert_same_state(want, got)
