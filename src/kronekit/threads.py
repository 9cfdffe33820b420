"""One OpenBLAS thread for the process, and work items shared among N threads.

Importing kronekit imports this module, which reads how many threads
numpy's OpenBLAS was given, N, and sets OpenBLAS to one thread for the rest
of the process. So every GEMM and SVD gives its one-thread bits, whatever
``OPENBLAS_NUM_THREADS`` says: some of them (a score product at a ragged
length, the NKP of the compressed weights) round otherwise on more threads.
N sizes the pool that :func:`run` shares a frozen forward's work items with:
the calling thread and N - 1 pool threads. Two one-thread GEMMs side by side
take as long as two N-thread GEMMs in turn, so the GEMMs lose little and the
elementwise work (GELU, softmax, LayerNorm) gains the other cores. A forward
that records a graph runs its GEMMs on the one thread and is not split.
``OPENBLAS_NUM_THREADS=1`` gives a serial pass.

OpenBLAS is found as the ``libscipy_openblas*`` that numpy ships in its
``numpy.libs`` folder. Its ``openblas_set_num_threads_local`` acts on the
whole process in that build, so the process-wide count is set. Where no such
library is found, N is 1 and every item runs in the caller, in order.
"""

from __future__ import annotations

import collections
import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def blas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the process-wide thread count of numpy's bundled
    OpenBLAS, or None where it cannot be controlled."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _blas_workers() -> int:
    """OpenBLAS's thread count, N, after setting it to one thread."""
    fns = blas()
    if fns is None:
        return 1
    get, set_ = fns
    workers = max(1, get())
    set_(1)
    return workers


_workers = _blas_workers()  # threads a run() shares its items among
# its threads start at the first submit, not here
_pool = ThreadPoolExecutor(_workers - 1, "kronekit") if _workers > 1 else None
_local = threading.local()  # .busy: this thread is taking a run()'s items


def run(fn: Callable[[T], object], items: Sequence[T]) -> None:
    """``fn(item)`` for every item, for its side effects.

    The calling thread and up to N - 1 pool threads take the items in turn.
    A call made from inside an item runs its items there, in order. An item
    that raises ends the run: once every thread has stopped, its exception
    is raised here.
    """
    n = min(len(items), _workers)
    if n <= 1 or getattr(_local, "busy", False):
        for item in items:
            fn(item)
        return
    todo = collections.deque(items)  # popleft is atomic

    def take() -> None:
        _local.busy = True
        try:
            while todo:
                try:
                    item = todo.popleft()
                except IndexError:
                    return
                fn(item)
        except BaseException:
            todo.clear()
            raise
        finally:
            _local.busy = False

    helpers = [_pool.submit(take) for _ in range(n - 1)]
    try:
        take()
    finally:
        # a helper not yet started, or never to start (in a child forked
        # after the pool began), has nothing left to take
        started = [helper for helper in helpers if not helper.cancel()]
        wait(started)
    for helper in started:
        helper.result()


def split(rows: int, most: int) -> list[slice]:
    """``rows`` rows as the fewest slices of at most ``most`` rows each, of
    lengths that differ by one at most, so no slice is a short remainder:
    numpy multiplies a single row by GEMV, which rounds otherwise than the
    GEMM of a larger block."""
    k = max(1, -(-rows // max(1, most)))
    return [slice(i * rows // k, (i + 1) * rows // k) for i in range(k)]
