"""A frozen forward's GEMMs on one OpenBLAS thread, its work items on N threads.

A frozen forward runs inside :func:`one_blas_thread`. On entry it reads how
many threads numpy's OpenBLAS was given, N, and holds OpenBLAS at one
thread until it exits. Meanwhile :func:`run` shares the forward's work
items between the calling thread and N - 1 pool threads. Two BLAS threads
under two Python threads would fight for the same cores, while two
one-thread GEMMs side by side take as long as two N-thread GEMMs in turn;
so the GEMMs lose nothing and the elementwise work (GELU, softmax,
LayerNorm) gains the other cores. ``OPENBLAS_NUM_THREADS=1`` thus gives a
serial pass.

For some shapes a GEMM's bits depend on OpenBLAS's thread count: on the
bundled build, a (s x 64) @ (64 x s) score product at most s past about
100 that are not a multiple of 8, and no linear map of the BERT-width plans
the tests run. So every score product runs inside :func:`one_blas_thread`,
also in a forward that records a graph and otherwise keeps OpenBLAS's
threads. (A GEMM's bits may also depend on its row count, which blocking
changes; see :mod:`kronekit.model`.)

OpenBLAS is found as the ``libscipy_openblas*`` that numpy ships in its
``numpy.libs`` folder. Its ``openblas_set_num_threads_local`` acts on the
whole process in that build, so the process-wide count is set and restored.
Where no such library is found, N is 1 and every item runs in the caller,
in order. The thread count and the pool belong to the process, so they are
module state, guarded by one lock.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_lock = threading.Lock()
_holds = 0         # one_blas_thread blocks in progress, in any thread
_entry = 1         # OpenBLAS's thread count when the first of them began
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_local = threading.local()  # .workers: threads a run() here may use


@functools.cache
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


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Within the block OpenBLAS runs on one thread, and :func:`run` in
    this thread shares its items among as many threads as OpenBLAS had.

    Blocks may overlap, in one thread or several: the first to enter reads
    the count and the last to leave restores it, also when the block
    raises. A block entered inside a work item stays serial.
    """
    global _holds, _entry
    fns = blas()
    if fns is None:
        yield
        return
    get, set_ = fns
    with _lock:
        if _holds == 0:
            _entry = max(1, get())
            set_(1)
        _holds += 1
        workers = _entry
    outer = getattr(_local, "workers", None)
    _local.workers = workers if outer is None else outer
    try:
        yield
    finally:
        _local.workers = outer
        with _lock:
            _holds -= 1
            if _holds == 0:
                set_(_entry)


def _serial() -> None:
    _local.workers = 1  # a split asked for inside an item runs in order


def run(fn: Callable[[T], object], items: Sequence[T]) -> None:
    """``fn(item)`` for every item, for its side effects.

    In a :func:`one_blas_thread` block the calling thread and up to N - 1 pool
    threads take the items in turn. Elsewhere, and for a call made from
    inside an item, the items run here in order. An item that raises ends
    the run: once every thread has stopped, its exception is raised here.
    """
    global _pool, _pool_size
    n = min(len(items), getattr(_local, "workers", None) or 1)
    if n <= 1:
        for item in items:
            fn(item)
        return
    todo = collections.deque(items)  # popleft is atomic

    def take() -> None:
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

    with _lock:  # a pool is replaced only here, so no item goes to a shut-down one
        if _pool_size < n - 1:
            if _pool is not None:
                _pool.shutdown(wait=False)  # its queued items still run
            _pool = ThreadPoolExecutor(n - 1, "kronekit", initializer=_serial)
            _pool_size = n - 1
        helpers = [_pool.submit(take) for _ in range(n - 1)]
    outer, _local.workers = _local.workers, 1
    try:
        take()
    finally:
        _local.workers = outer
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
