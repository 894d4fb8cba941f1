"""numpy's OpenBLAS through ctypes: one thread per run, and a dtpqrt off the GIL.

The package's least-squares fits fold 2 048-row blocks of at most a few
hundred columns into R through LAPACK ``dtpqrt``. At that width the
panel's level-2 calls are slower handed between two OpenBLAS threads than
run on one, and a spinning OpenBLAS worker takes a core from the label
kernel's own threads. A threaded BLAS also splits its sums by thread, so
pinning the count makes a run's rows independent of the core count and of
``OPENBLAS_NUM_THREADS``.

Both go through one ctypes handle of numpy's own ``lapack_lite``, opened
at the first run or fold; its symbols resolve in the OpenBLAS numpy links,
whatever other OpenBLAS (scipy's) is loaded. ``single_blas_thread`` sets
that library to one thread and gives its count back on exit; with another
BLAS (MKL, Accelerate) it does nothing. ``gil_free_dtpqrt`` is its
``dtpqrt``, which releases the GIL, so a rate curve's test labels are
drawn on a second thread while its train fold runs; it is None where numpy
links no ``scipy_dtpqrt_64_``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import cache

__all__ = ["single_blas_thread", "gil_free_dtpqrt"]

# (set, get) symbol pairs: numpy's wheel, a system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# the 64-bit-integer dtpqrt of the OpenBLAS numpy's wheel links
_DTPQRT = "scipy_dtpqrt_64_"


@cache
def _lapack_lite():
    """ctypes handle of numpy's ``lapack_lite`` extension, or None."""

    import ctypes  # at the first run, not at import

    from numpy.linalg import lapack_lite

    try:  # RTLD_NOLOAD: numpy's own extension, already loaded
        return ctypes.CDLL(lapack_lite.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except OSError:
        return None


@cache
def _thread_count():
    """(set, get) of the thread count of numpy's OpenBLAS, or None."""

    import ctypes

    lib = _lapack_lite()
    for set_name, get_name in _SYMBOLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextmanager
def single_blas_thread():
    """Run the body on one OpenBLAS thread; restore the count after.

    Works as a ``with`` block and as a decorator. Scopes nest: an inner
    one restores the outer one's count of 1. The count is process-wide,
    so two unscoped library calls on two threads may restore each other's
    counts: the one that exits first gives back the caller's count while
    the other still runs.
    """

    control = _thread_count()
    if control is None:
        yield
        return
    setter, getter = control
    count = getter()
    setter(1)
    try:
        yield
    finally:
        setter(count)


def _float64_buffer(name: str, a, shape: tuple[int, int]) -> None:
    if not (a.dtype == "float64" and a.flags.f_contiguous and a.flags.writeable and a.shape == shape):
        raise ValueError(f"{name} must be a writeable column-major float64 array of shape {shape}")


@cache
def gil_free_dtpqrt():
    """``dtpqrt(a, b, nb) -> info`` off the GIL, or None without the symbol.

    Folds the column-major ``b`` (m x n) into the upper triangle of the
    column-major n x n ``a`` in place: on return that triangle is the R of
    ``a`` stacked on ``b``, ``a``'s strict lower triangle is untouched and
    ``b`` holds the Householder vectors. ``b`` is a full block (L = 0);
    ``nb`` is the panel width, 1 <= nb <= n. The buffers are checked
    before LAPACK sees their pointers.
    """

    import ctypes  # at the first fold, not at import

    import numpy as np

    routine = getattr(_lapack_lite(), _DTPQRT, None)
    if routine is None:
        return None
    i64 = ctypes.POINTER(ctypes.c_int64)
    routine.argtypes = [i64, i64, i64, i64, ctypes.c_void_p, i64, ctypes.c_void_p, i64,
                        ctypes.c_void_p, i64, ctypes.c_void_p, i64]
    routine.restype = None

    def ref(value: int):
        return ctypes.byref(ctypes.c_int64(value))

    def dtpqrt(a, b, nb: int) -> int:
        m, n = b.shape
        _float64_buffer("a", a, (n, n))
        _float64_buffer("b", b, (m, n))
        if not 1 <= nb <= n:
            raise ValueError(f"panel width {nb} is outside 1..{n}")
        t, work = np.empty((nb, n), order="F"), np.empty(nb * n)
        info = ctypes.c_int64()
        routine(
            ref(m), ref(n), ref(0), ref(nb), a.ctypes.data, ref(n), b.ctypes.data,
            ref(max(1, m)), t.ctypes.data, ref(nb), work.ctypes.data, ctypes.byref(info),
        )
        return info.value

    return dtpqrt
