"""How many CPUs this process may use, and how work is split across two.

``cpus()`` counts the CPUs ``read_table`` cuts a large CSV file across.
``blas_threads`` lets two threads call numpy's OpenBLAS at once without
asking it for more threads than there are CPUs: each caller's share is half
its thread count, and the count is put back afterwards.
OpenBLAS splits a matrix product's output among its threads, never a sum,
yet its thread count can change bits: a (K, 128)^T (K, 64) product gave
other bits at one thread than at two for K above 384 (float64) or 448
(float32) unless K mod 32 was 0 or 31. So ``train.train`` splits the steps
of full batches only, and runs a last, shorter one in one pass: a last
flagship batch of 112 rows has its BiGRU dU sum over 59 x 112 rows.

``two_cpus`` and ``halves`` are the one owner of the row split that
``predict_logits`` scores a block with and that the layers run their large
products, the BiGRU's loops and their row-wise passes with: inside
``two_cpus``, ``halves(fn, n)`` runs ``fn`` on the first half of ``n`` rows
on the caller's thread and on the second half on one pool thread, with
OpenBLAS at one thread per half (on two CPUs). A caller pins OpenBLAS once
around all of its work, such as an epoch's train steps, not around each
split: OpenBLAS's idle worker thread spins after every call that used it,
measured at 0.125 s of CPU over the 1 s sleep that followed one 2-thread
product (0.000 s with ``OPENBLAS_THREAD_TIMEOUT=4``), so two 1-thread
halves run right after a 2-thread product fight that spinner for the
second CPU: two concurrent 1-thread products took 11.3 ms then, and 6.4 ms
once the worker slept.

Only the OpenBLAS that numpy's own PyPI wheels ship is driven, the build
this was measured on: the ILP64 ``libscipy_openblas64_`` library in the
``numpy.libs`` folder beside the ``numpy`` package, through its
``scipy_openblas_{set,get}_num_threads64_`` functions (``ctypes``). Another
OpenBLAS the process has loaded, such as SciPy's own, is never touched.
Where numpy's is not found (another BLAS or build of numpy), ``blas_threads``
sets nothing and says so, and its callers run in one pass.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
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

#: ``pool``: the pool thread of the ``two_cpus`` this thread entered, None
#: outside one and while this thread runs a half
_local = threading.local()


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


def openblas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS, or None where it is not found."""
    blas = _openblas()
    return None if blas is None else blas[1]()


@contextmanager
def blas_threads() -> Iterator[bool]:
    """Share numpy's OpenBLAS between two concurrent callers.

    The body runs with OpenBLAS at ``max(1, count // 2)`` threads, where
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
        set_threads(max(1, count // 2))
        try:
            yield True
        finally:
            set_threads(count)
    finally:
        _pinned.release()


@contextmanager
def two_cpus() -> Iterator[None]:
    """Let ``halves`` calls on this thread split their rows across two CPUs.

    Enters ``blas_threads()`` and then one pool thread, which is joined
    before the thread count is restored, also when the body raises. Sets
    nothing, so ``halves`` runs whole, where there is one CPU or OpenBLAS
    cannot be pinned (another caller holds it, or it is not numpy's); a call
    nested in another sets nothing either, and its body shares the outer
    call's pool.
    """
    if getattr(_local, "pool", None) is not None or cpus() < 2:
        yield
        return
    # the pool is entered after the pinning, so its thread is joined before
    # the thread count is restored
    with blas_threads() as pinned, (ThreadPoolExecutor(1) if pinned else nullcontext()) as pool:
        _local.pool = pool
        try:
            yield
        finally:
            _local.pool = None


def halves(fn: Callable[[slice], object], n: int) -> list:
    """``[fn(slice(0, n // 2)), fn(slice(n // 2, n))]``, the first half run on
    the caller's thread and the second on ``two_cpus``' pool thread.

    Outside ``two_cpus``, inside a half (either thread) or for ``n < 2`` it
    is ``[fn(slice(0, n))]``. The pool's half is joined even when the
    caller's raises; where both raise, the caller's error is the one raised.
    """
    pool = getattr(_local, "pool", None)
    if pool is None or n < 2:
        return [fn(slice(0, n))]
    second = pool.submit(fn, slice(n // 2, n))
    _local.pool = None
    try:
        first = fn(slice(0, n // 2))
    finally:
        _local.pool = pool
        wait((second,))
    return [first, second.result()]
