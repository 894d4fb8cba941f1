"""One OpenBLAS thread for the length of a run.

The package's least-squares fits fold 4 096-row blocks of at most a few
hundred columns through LAPACK ``dgeqrf``. At that width the panel's
level-2 calls are slower handed between two OpenBLAS threads than run on
one (on two cores the crossover lies near 700 columns), and a spinning
OpenBLAS worker takes a core from the label kernel's own helper thread.
A threaded BLAS also splits its sums by thread, so pinning the count
makes a run's rows independent of the core count and of
``OPENBLAS_NUM_THREADS``.

``single_blas_thread`` sets every mapped OpenBLAS to one thread on entry and
gives each library back its previous count on exit. The libraries are found
once, at the first entry, from ``/proc/self/maps``; with another BLAS (MKL,
Accelerate) or no ``/proc`` it does nothing.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["single_blas_thread"]

# (set, get) symbol pairs: numpy's wheel, scipy's wheel, a system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_MAPS = "/proc/self/maps"

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
