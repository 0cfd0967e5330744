"""Loader for the compiled search iterations, gain-cache builds and random-toy
magnitudes in `_kernel.c`.

The library is built on first use, never at import, with the system C
compiler, and cached under this package's `__pycache__` in a file named by
a hash of the source, the flags and the platform. It is written under a
temporary name and moved into place with `os.replace`, so processes that
build it at the same moment (parallel `lsils batch` workers) each install
a complete file, and the libraries of other sources or flags found there
are removed. When that directory is not writable the library is built in a
private temporary directory, loaded, and the directory removed.

The source builds its search body and its gain-cache build twice, one per
gain width: `lsils_iterate_i32` and `lsils_iterate_i64`, `lsils_build_i32`
and `lsils_build_i64` (`entry(name, dtype)` gives the one for a width). The
flags name no CPU. On x86-64 with glibc each `lsils_iterate_*` is built once
per x86-64 level (v4, v3, baseline) and the loader picks the one the CPU
runs, so a cached library is safe to share between machines with different
CPUs.

The kernel is the search's only path: `library()` raises OSError when no
compiler is found, the build fails or the platform is not 64-bit, and a
failed build is not retried in the same process. The kernel reads a gain
cache through one `lsils_cache` row, whose gains, sigma and x are arrays
the run allocates (`search._Run`), and whose form fields `bind(row, form,
n, dtype)` writes for toys and instances only, in the run's gain width,
int32 or int64: a toy by its anchor, with its weights in that width
(FORM_ANCHORED, +-1 and +-i) or its uint8 magnitudes (FORM_RANDOM), and an
instance as its dense matrix in that width (FORM_DENSE), `q` in place or
the int32 copy it makes once and keeps (`UbqpInstance.rows`). The kernel
draws the swap targets and the random toy's magnitudes itself, value for
value as numpy's `Generator.integers` does, from a generator's PCG64 state
passed as `stream(rng)` gives it. The numpy reference the kernel is tested
against lives in `tests/oracles.py`, and `GainCache.build` is the reference
for its cache builds.

ctypes, subprocess and hashlib are imported on first use, so that
`import lsils` costs no more than it did without the kernel.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
import numpy as np

from .qubo import UbqpInstance, in_width
from .smoothing import ToyKind, ToyMatrix

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
FLAGS = ("-O3", "-shared", "-fPIC")
COMPILERS = ("cc", "gcc", "clang")
COMPILE_TIMEOUT_S = 120

# The form codes, the words of a PCG64 stream and the state vector layout
# of _kernel.c.
FORM_DENSE, FORM_ANCHORED, FORM_RANDOM = 0, 1, 2
PCG_STATE_LO, PCG_STATE_HI, PCG_INC_LO, PCG_INC_HI, PCG_HAS_UINT32, PCG_UINTEGER, PCG_WORDS = (
    range(7))
(ST_VALUE, ST_CONSUMED, ST_STOP, ST_ROUNDS, ST_HALT, ST_BEST, ST_IMPROVED, ST_MARKS, ST_MARKED,
 ST_STREAM) = range(10)
ST_SIZE = ST_STREAM + PCG_WORDS
# The members of one lsils_cache row, in order: the form's kind, then the
# addresses of q, anchor, gains, sigma and x. Eight-byte fields, so 64-bit
# platforms only.
ROW_KIND, ROW_Q, ROW_ANCHOR, ROW_GAINS, ROW_SIGMA, ROW_X, CACHE_FIELDS = range(7)
# The gain widths the source builds its search body for.
GAIN_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def _compiler() -> str:
    import shutil
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    raise OSError(f"no C compiler found (tried {', '.join(COMPILERS)})")


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
def _load():
    """The loaded kernel, or the OSError that says why it could not be built."""
    import ctypes
    import subprocess
    if ctypes.sizeof(ctypes.c_void_p) != 8:
        return OSError("the lsils search kernel needs a 64-bit platform")
    try:
        lib = _build()
    except subprocess.CalledProcessError as exc:
        tail = (exc.stderr or b"").decode(errors="replace").strip()[-2000:]
        return OSError(f"the lsils search kernel failed to build:\n{tail}")
    except (OSError, subprocess.SubprocessError) as exc:
        return OSError(f"the lsils search kernel could not be built: {exc}")
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for dtype in GAIN_DTYPES:
        iterate = getattr(lib, entry_name("iterate", dtype))
        iterate.argtypes = [ptr, i64, i64, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr]
        iterate.restype = None
        build = getattr(lib, entry_name("build", dtype))
        build.argtypes = [ptr, i64, ptr, ptr]
        build.restype = i64
    lib.lsils_random_toy.argtypes = [ptr, i64, i64, i64, ptr]
    lib.lsils_random_toy.restype = i64
    return lib


def library():
    """The loaded kernel, built on the first call in a process.

    Its functions are `lsils_iterate_i32`, `lsils_iterate_i64`,
    `lsils_build_i32`, `lsils_build_i64` and `lsils_random_toy`, with their
    argument and result types declared. OSError when it cannot be built;
    later calls raise the same error without compiling again.
    """
    found = _load()
    if isinstance(found, OSError):
        raise found.with_traceback(None)
    return found


def entry_name(name: str, dtype) -> str:
    """The name of the kernel's entry point `name` (iterate, build) for gains of `dtype`."""
    return f"lsils_{name}_i{8 * np.dtype(dtype).itemsize}"


def entry(name: str, dtype):
    """The kernel's entry point `name` (iterate, build) for caches with gains of `dtype`."""
    return getattr(library(), entry_name(name, dtype))


def stream(rng: np.random.Generator) -> np.ndarray:
    """The PCG64 state of `rng` as the kernel's PCG_WORDS stream words, int64;
    the kernel draws on from there as `rng` would, and `rng` stays where it is."""
    state = rng.bit_generator.state
    pcg = state["state"]
    words = np.empty(PCG_WORDS, dtype=np.uint64)
    words[PCG_STATE_LO], words[PCG_STATE_HI] = pcg["state"] % 2**64, pcg["state"] >> 64
    words[PCG_INC_LO], words[PCG_INC_HI] = pcg["inc"] % 2**64, pcg["inc"] >> 64
    words[PCG_HAS_UINT32], words[PCG_UINTEGER] = state["has_uint32"], state["uinteger"]
    return words.view(np.int64)


def bind(row: np.ndarray, form, n: int, dtype) -> tuple:
    """Write the form fields of the lsils_cache `row` for `form` on n bits with
    gains of `dtype`, one of `GAIN_DTYPES`; returns the arrays the row now
    reads, which must outlive its reads.

    A toy enters by its anchor: the random toy with its uint8 magnitude
    matrix, the +-1 and +-i toys with their weights `_w` in that width (an
    O(n) copy for int32). An instance enters as its dense matrix in that
    width by `rows` (`q` itself for int64, the kept int32 copy for int32),
    with no anchor. TypeError for any other form; ValueError for a form on
    another n, or with an entry that does not fit the width.
    """
    if not isinstance(form, (UbqpInstance, ToyMatrix)):
        raise TypeError(f"the search kernel runs UbqpInstance and ToyMatrix forms, "
                        f"not {type(form).__name__}")
    if form.n != n:
        raise ValueError(f"a form on {form.n} bits in a cache of {n}")
    if isinstance(form, UbqpInstance):
        row[ROW_KIND], row[ROW_ANCHOR] = FORM_DENSE, 0
        read = (form.rows(dtype),)
    else:
        random = form.kind is ToyKind.RANDOM
        row[ROW_KIND] = FORM_RANDOM if random else FORM_ANCHORED
        # _m is C-ordered n x n uint8, as ToyMatrix checks
        read = (form._m if random else in_width(form._w, dtype),
                np.ascontiguousarray(form.anchor, dtype=np.int8))
        row[ROW_ANCHOR] = read[1].ctypes.data
    row[ROW_Q] = read[0].ctypes.data
    return read
