"""How many CPUs this process may use, and how numpy's BLAS shares them.

``cpus()`` counts the CPUs ``read_table`` cuts a large CSV file across and
``predict_logits`` needs two of to split an inference block in halves.
``blas_threads`` lets several threads call numpy's OpenBLAS at once without
asking it for more threads than there are CPUs: each caller's share is its
thread count divided by the callers, and the count is put back afterwards.
OpenBLAS splits a matrix product's output among its threads, never a sum,
so the thread count changes no bit of a result.

Only the OpenBLAS that numpy's own PyPI wheels ship is driven, the build
this was measured on: the ILP64 ``libscipy_openblas64_`` library in the
``numpy.libs`` folder beside the ``numpy`` package, through its
``scipy_openblas_{set,get}_num_threads64_`` functions (``ctypes``). Another
OpenBLAS the process has loaded, such as SciPy's own, is never touched.
Where numpy's is not found (another BLAS or build of numpy), ``blas_threads``
sets nothing and says so, and its callers run on one thread.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator

import numpy as np

#: the folder beside the ``numpy`` package its PyPI wheels ship OpenBLAS in,
#: and the start of that library's file name, whose end is a build hash
_LIBS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
_LIBRARY = "libscipy_openblas64_"

#: its (set, get) thread-count functions
_SET, _GET = "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"

#: held while a caller has the thread count lowered, so that two callers never
#: save and restore it across each other
_pinned = threading.Lock()


def cpus() -> int:
    """The CPUs this process may run on where it can tell them, and fork
    (Linux); 1 elsewhere."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@cache
def _openblas() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """The (set, get) thread-count functions of numpy's OpenBLAS, or None.

    Looked up once per process; ``import numpy`` above has loaded the
    library, so ``RTLD_NOLOAD`` finds it without loading anything.
    """
    # listed, not globbed: importing ``glob`` here alone raised the infer
    # benchmark's peak RSS from 84.7 to 92.3 MB through glibc's heap layout
    try:
        names = os.listdir(_LIBS)
    except OSError:   # not a wheel build of numpy
        return None
    for name in names:
        if not name.startswith(_LIBRARY):
            continue
        try:
            lib = ctypes.CDLL(os.path.join(_LIBS, name), mode=os.RTLD_NOLOAD)
        except OSError:   # a library this numpy did not load
            continue
        if hasattr(lib, _SET) and hasattr(lib, _GET):
            set_fn, get_fn = getattr(lib, _SET), getattr(lib, _GET)
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            return set_fn, get_fn
    return None


@contextmanager
def blas_threads(parts: int) -> Iterator[bool]:
    """Share numpy's OpenBLAS among ``parts`` concurrent callers.

    The body runs with OpenBLAS at ``max(1, count // parts)`` threads, where
    ``count`` is its thread count on entry, which is restored on exit, also
    when the body raises. Yields True then; False, with nothing set, where
    the thread count cannot be set or while another caller holds it lowered.
    """
    blas = _openblas()
    if blas is None or not _pinned.acquire(blocking=False):
        yield False
        return
    set_threads, get_threads = blas
    try:
        count = get_threads()
        set_threads(max(1, count // parts))
        try:
            yield True
        finally:
            set_threads(count)
    finally:
        _pinned.release()
