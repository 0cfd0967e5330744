"""Loader for the compiled search iteration and random-toy fill in `_kernel.c`.

The library is built on first use, never at import, with the system C
compiler, and cached under this package's `__pycache__` in a file named by
a hash of the source, the flags and the platform. It is written under a
temporary name and moved into place with `os.replace`, so processes that
build it at the same moment (parallel `lsils batch` workers) each install
a complete file, and the libraries of other sources or flags found there
are removed. When that directory is not writable the library is built in a
private temporary directory, loaded, and the directory removed.

The flags name no CPU. On x86-64 with glibc the source builds
`lsils_iterate` once per x86-64 level (v4, v3, baseline) and the loader
picks the one the CPU runs, so a cached library is safe to share between
machines with different CPUs.

`library()` returns None when no compiler is found or the build fails;
`layout(caches)` returns None for a form the kernel does not know. Either
way the search runs its numpy perturbation and descent, and the random toy
its numpy fill, which give the same results.

ctypes, subprocess and hashlib are imported on first use, so that
`import lsils` costs no more than it did without the kernel.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

import numpy as np

from .qubo import UbqpInstance
from .smoothing import ToyKind, ToyMatrix

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc", "clang")
COMPILE_TIMEOUT_S = 120

# The form codes and the state vector layout of _kernel.c.
FORM_DENSE, FORM_PLUS_MINUS_ONE, FORM_PLUS_MINUS_I = 0, 1, 2
_TOY_FORMS = {ToyKind.PLUS_MINUS_ONE: FORM_PLUS_MINUS_ONE,
              ToyKind.PLUS_MINUS_I: FORM_PLUS_MINUS_I}
(ST_VALUE, ST_CONSUMED, ST_THRESHOLD, ST_TRACK, ST_BEST, ST_IMPROVED,
 ST_EVENTS, ST_EVENT0) = range(8)
ST_SIZE = ST_EVENT0 + 4
# One lsils_cache per row: the kind, then the addresses of q, anchor,
# gains, sigma and x. Eight-byte fields, so 64-bit platforms only.
CACHE_FIELDS = 6


def _compiler() -> str:
    import shutil
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    raise OSError("no C compiler found")


def _compile(compiler: str, target: Path) -> None:
    """Compile the source to `target`, through a temporary name in its directory."""
    import subprocess
    import tempfile
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=COMPILE_TIMEOUT_S)
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library_name() -> str:
    import hashlib
    import platform
    key = hashlib.sha256()
    key.update(SOURCE.read_bytes())
    key.update(" ".join(FLAGS).encode())
    key.update(f"{sys.platform} {platform.machine()}".encode())
    return f"_kernel-{key.hexdigest()[:16]}.so"


def _prune(keep: Path) -> None:
    """Remove the other cached libraries from `keep`'s directory, as far as allowed."""
    for stale in keep.parent.glob("_kernel-*.so"):
        if stale != keep:
            try:
                stale.unlink()
            except OSError:
                pass


def _build():
    """Load the cached library, compiling it first when it is missing."""
    import ctypes
    import tempfile
    name = _library_name()
    cached = CACHE_DIR / name
    try:
        if not cached.is_file():
            CACHE_DIR.mkdir(exist_ok=True)
            _compile(_compiler(), cached)
            _prune(cached)
        return ctypes.CDLL(str(cached))
    except OSError:
        pass  # no usable cache directory: build privately below
    with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as private:
        target = Path(private) / name
        _compile(_compiler(), target)
        return ctypes.CDLL(str(target))


@functools.cache
def library():
    """The loaded kernel, or None when it cannot be built; tried once per process.

    Its functions are `lsils_iterate` and `lsils_random_toy`, with their
    argument and result types declared.
    """
    import ctypes
    import subprocess
    if ctypes.sizeof(ctypes.c_void_p) != 8:
        return None
    try:
        lib = _build()
    except (OSError, subprocess.SubprocessError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.lsils_iterate.argtypes = [ptr, i64, i64, i64, i64, ctypes.c_double, ctypes.c_double,
                                  ptr, i64, ptr, ptr, ptr]
    lib.lsils_iterate.restype = i64
    lib.lsils_random_toy.argtypes = [ptr, ptr, i64, ptr]
    lib.lsils_random_toy.restype = i64
    return lib


def _fits(array: np.ndarray, dtype, shape) -> bool:
    return array.dtype == dtype and array.shape == shape and array.flags.c_contiguous


def layout(caches) -> np.ndarray | None:
    """The kernel's lsils_cache rows for `caches`, or None for an unknown form.

    The arrays stay owned by the caches; the caller keeps the caches alive
    while the kernel runs.
    """
    n = caches[0].solution.size
    rows = np.zeros((len(caches), CACHE_FIELDS), dtype=np.int64)
    for row, cache in zip(rows, caches):
        form = cache.form
        anchor = None
        if type(form) is UbqpInstance:
            kind, matrix = FORM_DENSE, form.q
        elif type(form) is ToyMatrix and form.kind in _TOY_FORMS:
            kind, matrix, anchor = _TOY_FORMS[form.kind], None, form.anchor
        elif type(form) is ToyMatrix:
            kind, matrix = FORM_DENSE, form._q
        else:
            return None
        arrays = ((matrix, np.int64, (n, n), False), (anchor, np.int8, (n,), False),
                  (cache.gains, np.int64, (n,), True), (cache.sigma, np.int64, (n,), True),
                  (cache.solution, np.int8, (n,), True))
        row[0] = kind
        for i, (array, dtype, shape, written) in enumerate(arrays, start=1):
            if array is None:
                continue
            if not _fits(array, dtype, shape) or (written and not array.flags.writeable):
                return None
            row[i] = array.ctypes.data
    return rows
