"""Thread counts: the CPUs this process may use, and scoped control of the
thread count of the OpenBLAS that numpy loaded.

available_cpus counts the CPUs in the process's affinity mask, so a run
limited by `taskset` or a cpuset sizes its pools to what it may use;
`os.cpu_count()` counts the whole machine.

numpy's wheels bundle OpenBLAS, which by default runs one thread per core.
The Krylov solves hand it only level-1 work (dot products of N-vectors) and
2x2 blocks. For those a second thread saves no wall time, but once woken it
spins on a core that the sparse matvecs, which do not use BLAS, could use.
blas_threads pins the count for the length of a block.

The library is looked up once per process, among the shared objects that
numpy's wheels ship next to the package. When none exports the thread
control symbols of the scipy-openblas build that numpy >= 2.0 wheels
bundle (numpy built against MKL, Accelerate or a system BLAS), the
OpenBLAS helpers do nothing. The count is process-wide: blocks that overlap
in different threads can leave a count set that neither caller had.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

# The thread count's get and set symbols in the scipy-openblas build that
# numpy >= 2.0 wheels ship.
_GET, _SET = "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"


def available_cpus() -> int:
    """CPUs in this process's affinity mask; the machine's CPU count where
    the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _openblas():
    """(get, set) ctypes functions of numpy's OpenBLAS, or None."""
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get_fn, set_fn = getattr(lib, _GET, None), getattr(lib, _SET, None)
        if get_fn is not None and set_fn is not None:
            get_fn.restype, get_fn.argtypes = ctypes.c_int, []
            set_fn.restype, set_fn.argtypes = None, [ctypes.c_int]
            return get_fn, set_fn
    return None


def blas_thread_count() -> Optional[int]:
    """Current thread count of numpy's OpenBLAS; None when none was found."""
    lib = _openblas()
    return None if lib is None else int(lib[0]())


@contextmanager
def blas_threads(n: int) -> Iterator[None]:
    """Run the block with numpy's OpenBLAS at n threads, then restore the
    count the caller had, also when the block raises."""
    lib = _openblas()
    if lib is None:
        yield
        return
    get_fn, set_fn = lib
    before = get_fn()
    set_fn(n)
    try:
        yield
    finally:
        set_fn(before)
