"""numpy's OpenBLAS through ctypes: one thread per run, and a dgeqrf off the GIL.

The package's least-squares fits fold 2 048-row blocks of at most a few
hundred columns through LAPACK ``dgeqrf``. At that width the panel's
level-2 calls are slower handed between two OpenBLAS threads than run on
one (on two cores the crossover lies near 700 columns), and a spinning
OpenBLAS worker takes a core from the label kernel's own threads. A
threaded BLAS also splits its sums by thread, so pinning the count makes
a run's rows independent of the core count and of
``OPENBLAS_NUM_THREADS``.

``single_blas_thread`` sets every mapped OpenBLAS to one thread on entry and
gives each library back its previous count on exit. The libraries are found
once, at the first entry, from ``/proc/self/maps``; with another BLAS (MKL,
Accelerate) or no ``/proc`` it does nothing.

``gil_free_dgeqrf`` returns the ``dgeqrf`` that numpy's own ``lapack_lite``
calls, bound through ctypes, which releases the GIL for the call:
``lapack_lite.dgeqrf`` holds it, so a rate curve's test labels could not
be drawn on a second thread while its train fold runs. It is looked up
once, at the first fold, and is None when numpy links no
``scipy_dgeqrf_64_`` (a numpy built against another LAPACK); the fold then
calls ``lapack_lite.dgeqrf`` and holds the GIL.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import cache

__all__ = ["single_blas_thread", "gil_free_dgeqrf"]

# (set, get) symbol pairs: numpy's wheel, scipy's wheel, a system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_MAPS = "/proc/self/maps"

# the 64-bit-integer dgeqrf numpy's wheel links lapack_lite against
_DGEQRF = "scipy_dgeqrf_64_"

_controls: list | None = None  # [(set, get), ...] of every mapped OpenBLAS, once looked up


def _mapped_openblas() -> list[str]:
    """Paths of the mapped files whose path names OpenBLAS, in map order."""

    try:
        with open(_MAPS) as f:
            lines = f.read().splitlines()
    except OSError:
        return []
    paths = {}
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in fields[5].lower():
            paths[fields[5]] = None
    return list(paths)


def _lookup() -> list:
    import ctypes  # at the first run, not at import

    controls = []
    for path in _mapped_openblas():
        try:  # RTLD_NOLOAD: only a library that is already loaded
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextmanager
def single_blas_thread():
    """Run the body on one OpenBLAS thread; restore each library's count after.

    Scopes nest: an inner one restores the outer one's count of 1. The
    count is process-wide, so scopes entered from two threads at once
    may restore each other's counts.
    """

    global _controls
    if _controls is None:
        _controls = _lookup()
    saved = [(setter, getter()) for setter, getter in _controls]
    for setter, _ in saved:
        setter(1)
    try:
        yield
    finally:
        for setter, count in saved:
            setter(count)


def _float64_buffer(name: str, a, size: int) -> None:
    if not (a.dtype == "float64" and a.flags.f_contiguous and a.flags.writeable and a.size >= size):
        raise ValueError(f"{name} must be a writeable column-major float64 array of at least {size} values")


@cache
def gil_free_dgeqrf():
    """``dgeqrf(a, tau, work, lwork) -> info`` off the GIL, or None without the symbol.

    Factors the column-major ``a`` (m x n, leading dimension m) in place,
    as ``lapack_lite.dgeqrf(m, n, a.T, m, tau, work, lwork, 0)`` does;
    ``lwork == -1`` asks for the workspace size in ``work[0]``. The
    buffers are checked before LAPACK sees their pointers.
    """

    import ctypes  # at the first fold, not at import

    from numpy.linalg import lapack_lite

    try:  # RTLD_NOLOAD: numpy's own extension, already loaded
        routine = getattr(ctypes.CDLL(lapack_lite.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY), _DGEQRF)
    except (OSError, AttributeError):
        return None
    i64 = ctypes.POINTER(ctypes.c_int64)
    routine.argtypes = [i64, i64, ctypes.c_void_p, i64, ctypes.c_void_p, ctypes.c_void_p, i64, i64]
    routine.restype = None

    def ref(value: int):
        return ctypes.byref(ctypes.c_int64(value))

    def dgeqrf(a, tau, work, lwork: int) -> int:
        m, n = a.shape
        _float64_buffer("a", a, 0)
        _float64_buffer("tau", tau, min(m, n))
        _float64_buffer("work", work, max(1, lwork))
        info = ctypes.c_int64()
        routine(
            ref(m), ref(n), a.ctypes.data, ref(m), tau.ctypes.data, work.ctypes.data,
            ref(lwork), ctypes.byref(info),
        )
        return info.value

    return dgeqrf
