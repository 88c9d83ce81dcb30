"""The BLAS thread count of the library's numerics.

A BLAS product may sum an entry in another order on another number of
threads: numpy's OpenBLAS gives other bits for the same 903 x 903 Gaussian
kernel at 1 and 2 threads.  So the library runs its fits, banks and
scoring at one BLAS thread (``one_thread``), restoring the caller's count
on return, and a worker process of ``harness``'s process map keeps one
thread for its life.  Its results are then the same bits whatever count
the caller set.  One thread also keeps the scoring threads and worker
processes, which already use every core, from oversubscribing them.

The count is read and set through the OpenBLAS bundled with numpy
(``numpy.libs/libscipy_openblas*.so``, or ``numpy/.dylibs``), loaded with
ctypes.  Where no such library or symbol is found (numpy built against
another BLAS), ``AVAILABLE`` is False, ``threads()`` reads None and
``one_thread`` leaves the count alone: results may then depend on the
BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

# (set, get) entry points: OpenBLAS as numpy's wheels build it (64-bit
# integers, symbol suffix 64_), then plain OpenBLAS builds
_SYMBOLS = [(f"{prefix}openblas_set_num_threads{suffix}",
             f"{prefix}openblas_get_num_threads{suffix}")
            for prefix in ("scipy_", "") for suffix in ("64_", "")]


def _find_controls():
    """The (set, get) functions of numpy's bundled OpenBLAS, or None."""
    here = os.path.dirname(np.__file__)
    paths = [*glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*")),
             *glob.glob(os.path.join(here, ".dylibs", "*openblas*"))]
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            try:
                set_, get = getattr(lib, set_name), getattr(lib, get_name)
            except AttributeError:
                continue
            set_.argtypes, set_.restype = [ctypes.c_int], None
            get.argtypes, get.restype = [], ctypes.c_int
            return set_, get
    return None


_CONTROLS = _find_controls()
AVAILABLE = _CONTROLS is not None


def threads() -> int | None:
    """The BLAS thread count, or None where it cannot be read."""
    return None if _CONTROLS is None else _CONTROLS[1]()


def set_threads(n: int) -> None:
    """Set the BLAS thread count to ``n`` (>= 1); no-op without the controls."""
    if n < 1:
        raise ValueError(f"BLAS thread count must be >= 1, got {n}")
    if _CONTROLS is not None:
        _CONTROLS[0](int(n))


def one_thread(fn):
    """``fn`` run at one BLAS thread, the caller's count restored on
    return or raise.  A call made at one thread, as every call nested in
    another pinned one, sets nothing."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        if _CONTROLS is None:
            return fn(*args, **kwargs)
        set_, get = _CONTROLS
        count = get()
        if count == 1:
            return fn(*args, **kwargs)
        set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_(count)

    return pinned
