"""Locate the package source in this checkout and pin the BLAS thread count.

The benchmark imports ``krrsolve`` from ``src/`` next to this directory and
refuses any other copy, so it always measures the tree it was checked out
with.  BLAS threads are capped at the processors this process may run on,
and must be set before NumPy is first imported.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackage(Exception):
    pass


def pin_threads() -> None:
    limit = len(os.sched_getaffinity(0))
    for var in THREAD_VARIABLES:
        try:
            wanted = int(os.environ.get(var, limit))
        except ValueError:
            wanted = limit
        os.environ[var] = str(max(1, min(wanted, limit)))


def import_package():
    """Import ``krrsolve`` from this checkout's ``src/`` or raise."""
    pin_threads()
    init = SRC / "krrsolve" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import krrsolve

    if Path(krrsolve.__file__).resolve() != init.resolve():
        raise MissingPackage(f"imported {krrsolve.__file__}, expected {init}")
    return krrsolve


def blas_threads() -> int:
    """Threads OpenBLAS reports, or the pinned setting if it cannot be asked."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])
