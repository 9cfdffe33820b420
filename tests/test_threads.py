import sys
import threading
import time
from concurrent.futures import Future

import pytest

from kronekit import threads


@pytest.fixture
def fake_blas(monkeypatch):
    """A stand-in for numpy's OpenBLAS that reports four threads and records
    each count set, so the pool runs more threads than this box has cores."""
    counts = []
    monkeypatch.setattr(threads, "blas", lambda: (lambda: 4, counts.append))
    return counts


def _within(seconds, body):
    """Run ``body`` in a thread and fail if it has not finished in time."""
    errors = []

    def target():
        try:
            body()
        except BaseException as exc:  # handed to the test thread below
            errors.append(exc)
    # a daemon, so that a body that hangs fails the test rather than blocking exit
    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive()
    if errors:
        raise errors[0]


def test_run_takes_every_item_once(fake_blas):
    done, idents = [], set()

    def item(i):
        idents.add(threading.get_ident())
        threads.run(lambda j: done.append((i, j)), range(3))  # nested: in order, here

    def body():
        with threads.one_blas_thread():
            threads.run(item, range(2000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _within(60, body)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == [(i, j) for i in range(2000) for j in range(3)]
    for i in range(2000):
        assert [j for k, j in done if k == i] == [0, 1, 2]
    assert len(idents) > 1
    assert fake_blas == [1, 4]


def test_an_item_that_raises_ends_the_run(fake_blas):
    ran = []

    def item(i):
        ran.append(i)
        if i == 5:
            raise ValueError("item 5")
        time.sleep(0.001)

    def body():
        with threads.one_blas_thread():
            threads.run(item, range(1000))
    with pytest.raises(ValueError, match="item 5"):
        _within(60, body)
    assert len(ran) < 100
    assert fake_blas == [1, 4]


def test_run_finishes_when_no_pool_thread_starts(fake_blas, monkeypatch):
    # as in a child forked after the pool began: the pool's threads are gone
    class Stalled:
        def submit(self, fn):
            return Future()
    monkeypatch.setattr(threads, "_pool", Stalled())
    monkeypatch.setattr(threads, "_pool_size", 3)
    done = []

    def body():
        with threads.one_blas_thread():
            threads.run(done.append, range(100))
    _within(10, body)
    assert done == list(range(100))


def test_run_outside_a_hold_is_serial():
    order = []
    threads.run(lambda i: order.append((i, threading.get_ident())), range(50))
    assert order == [(i, threading.get_ident()) for i in range(50)]


@pytest.mark.parametrize("rows, most", [(0, 5), (1, 1), (2, 1), (7, 7), (8, 7), (540, 85),
                                        (576, 85), (128, 85), (384, 42), (3, 0)])
def test_split_gives_the_fewest_even_slices(rows, most):
    slices = threads.split(rows, most)
    sizes = [s.stop - s.start for s in slices]
    assert slices[0].start == 0 and slices[-1].stop == rows
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= max(1, most)
    assert len(slices) == max(1, -(-rows // max(1, most)))
