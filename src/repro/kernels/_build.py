"""On-demand compilation of the C kernel source into an extension module.

No build system, no third-party deps: one ``subprocess`` call to the
host C compiler (discovered through ``$REPRO_KERNELS_CC``/``$CC``,
:mod:`sysconfig`, then ``cc``/``gcc``/``clang`` on ``PATH``) compiles
``_kernels.c`` against this interpreter's ``Python.h`` into a CPython
extension module in a content-addressed cache.  The sha256 of the
source text, compiler path, flag set, and the interpreter's include
directory and ``EXT_SUFFIX`` keys the filename, so a source, toolchain
or interpreter change recompiles (a build for 3.11 never loads into
3.12) and anything else reuses the cached build.  Compilation lands in
a temp file first and is moved into place with ``os.replace``, so
concurrent processes race safely.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")

#: -fwrapv pins int64 overflow to two's-complement wrapping (NumPy's
#: behaviour); -ffp-contract=off forbids FMA contraction so the Cauchy
#: fold keeps NumPy's one-rounding-per-operation semantics.
CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99", "-fwrapv",
          "-ffp-contract=off")
#: An extension module leaves the interpreter's symbols unresolved
#: until import; macOS's linker must be told so, ELF linkers allow it.
LDFLAGS = ("-lm",) + (
    ("-undefined", "dynamic_lookup") if sys.platform == "darwin" else ()
)

#: ``$REPRO_KERNELS_SANITIZE`` selects an instrumented build.  ASan
#: keeps frame pointers for readable reports; UBSan aborts on the first
#: undefined operation instead of recovering, so a CI run cannot paper
#: over a finding.  Note -fwrapv (above) stays on in both modes: int64
#: wrapping is *defined* for these kernels, UBSan must not flag it.
SANITIZER_FLAGS = {
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer", "-g"),
    "ubsan": ("-fsanitize=undefined", "-fno-sanitize-recover=undefined",
              "-g"),
}


class BuildError(RuntimeError):
    """Kernel compilation failed (missing headers, missing or broken
    compiler)."""


def interpreter() -> tuple[str, str]:
    """This interpreter's C include directory and extension suffix: a
    build is loadable only into an interpreter with the same pair."""
    return (sysconfig.get_paths()["include"],
            sysconfig.get_config_var("EXT_SUFFIX") or ".so")


def sanitize_mode() -> str | None:
    """The sanitizer selected by ``$REPRO_KERNELS_SANITIZE``, or None.

    An unknown value raises rather than silently building an
    uninstrumented library — a CI job asking for a sanitizer must
    never pass without one.
    """
    raw = os.environ.get("REPRO_KERNELS_SANITIZE", "").strip().lower()
    if not raw or raw == "off":
        return None
    if raw not in SANITIZER_FLAGS:
        raise BuildError(
            "REPRO_KERNELS_SANITIZE must be one of "
            f"{sorted(SANITIZER_FLAGS)} (or off/empty), got {raw!r}"
        )
    return raw


#: Default sentinel: "read $REPRO_KERNELS_SANITIZE".  Distinct from
#: None so callers can explicitly request a plain build even when the
#: environment selects a sanitizer.
_READ_ENV = object()


def effective_cflags(sanitize=_READ_ENV) -> tuple[str, ...]:
    """CFLAGS plus the selected sanitizer's instrumentation flags."""
    if sanitize is _READ_ENV:
        sanitize = sanitize_mode()
    if sanitize is None:
        return CFLAGS
    return CFLAGS + SANITIZER_FLAGS[sanitize]


def find_compiler() -> str | None:
    """The first usable C compiler: env override, the interpreter's
    build compiler, then common names on ``PATH``."""
    candidates: list[str] = []
    for env in ("REPRO_KERNELS_CC", "CC"):
        value = os.environ.get(env, "").split()
        if value:
            candidates.append(value[0])
    configured = (sysconfig.get_config_var("CC") or "").split()
    if configured:
        candidates.append(configured[0])
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        path = shutil.which(cand)
        if path:
            return path
    return None


def cache_dir() -> Path:
    root = os.environ.get("REPRO_KERNELS_CACHE")
    if root:
        return Path(root)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-kernels"


def cache_key(compiler: str, sanitize=_READ_ENV) -> str:
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    digest.update(compiler.encode())
    digest.update(
        " ".join(effective_cflags(sanitize) + LDFLAGS).encode()
    )
    digest.update("\0".join(interpreter()).encode())
    return digest.hexdigest()[:16]


def build(compiler: str | None = None, sanitize=_READ_ENV) -> Path:
    """Compile (or reuse) the kernel extension module; returns its path.

    ``sanitize`` defaults to :func:`sanitize_mode` (pass None to force
    a plain build) — instrumented and plain builds land under different
    cache keys, so toggling ``$REPRO_KERNELS_SANITIZE`` never reuses
    the wrong artifact.
    """
    compiler = compiler or find_compiler()
    if compiler is None:
        raise BuildError(
            "no C compiler found (set $CC or $REPRO_KERNELS_CC)"
        )
    if sanitize is _READ_ENV:
        sanitize = sanitize_mode()
    cflags = effective_cflags(sanitize)
    include, suffix = interpreter()
    target_dir = cache_dir()
    key = cache_key(compiler, sanitize)
    target = target_dir / f"repro_kernels_{key}{suffix}"
    if target.exists():
        return target
    if not (Path(include) / "Python.h").is_file():
        raise BuildError(
            f"Python.h not found in {include}: the kernels build as a "
            "CPython extension and need this interpreter's development "
            "headers"
        )
    target_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target_dir) as tmp:
        tmp_so = Path(tmp) / target.name
        cmd = [compiler, *cflags, f"-I{include}", str(SOURCE),
               "-o", str(tmp_so), *LDFLAGS]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildError(
                f"{' '.join(cmd)} failed "
                f"(exit {proc.returncode}): {proc.stderr.strip()}"
            )
        os.replace(tmp_so, target)
    return target
