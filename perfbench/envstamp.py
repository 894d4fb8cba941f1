"""The environment a result was measured in; results from different machines are not compared."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be read."""

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "KOLMO_RFN_THREADS": os.environ.get("KOLMO_RFN_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
