import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from kronekit import threads

from conftest import config_path


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


def test_run_takes_every_item_once(four_workers):
    done, idents = [], set()

    def item(i):
        idents.add(threading.get_ident())
        threads.run(lambda j: done.append((i, j)), range(3))  # nested: in order, here

    def body():
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


def test_an_item_that_raises_ends_the_run(four_workers):
    ran = []

    def item(i):
        ran.append(i)
        if i == 5:
            raise ValueError("item 5")
        time.sleep(0.001)

    with pytest.raises(ValueError, match="item 5"):
        _within(60, lambda: threads.run(item, range(1000)))
    assert len(ran) < 100


def test_run_finishes_when_no_pool_thread_starts(four_workers, monkeypatch):
    # as in a child forked after the pool began: the pool's threads are gone
    class Stalled:
        def submit(self, fn):
            return Future()
    monkeypatch.setattr(threads, "_pool", Stalled())
    done = []
    _within(10, lambda: threads.run(done.append, range(100)))
    assert done == list(range(100))


def test_run_on_one_worker_is_serial(monkeypatch):
    monkeypatch.setattr(threads, "_workers", 1)
    order = []
    threads.run(lambda i: order.append((i, threading.get_ident())), range(50))
    assert order == [(i, threading.get_ident()) for i in range(50)]


# OpenBLAS's thread count and the worker count, after the import, after a
# forward whose 12 attention blocks go to the pool, and after a forward that
# raises
_POLICY = """
from dataclasses import replace
import numpy as np
from kronekit import threads
from kronekit.model import build_dense_model, forward
from kronekit.planner import ArchSpec
from kronekit.tensor import make_rng

get = threads.blas()[0]
print(get(), threads._workers)
arch = replace(ArchSpec.load({arch!r}), layers=1, vocab_size=512)
model = build_dense_model(arch, make_rng(0)).freeze()
forward(model, make_rng(1).integers(0, 512, size=(1, 384)))
print(get(), threads._workers)
try:
    forward(model, np.array([[3, 512]]))
except IndexError:
    print(get(), threads._workers)
"""


def test_import_sets_blas_to_one_thread_and_sizes_the_pool():
    if threads.blas() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be controlled here")
    script = _POLICY.format(arch=config_path("bert_base.json"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=os.environ | {"OPENBLAS_NUM_THREADS": "2"}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # OpenBLAS takes no more threads than the process may run on
    line = f"1 {min(2, len(os.sched_getaffinity(0)))}"
    assert proc.stdout.split("\n") == [line, line, line, ""]


# slices at four workers where that is not the fewest: a multiple of four,
# or fewer where four would leave a slice of one row
AT_FOUR = {(540, 85): 8, (576, 85): 8, (128, 85): 4, (384, 42): 12, (8, 7): 4, (9, 4): 4,
           (6, 4): 3}


@pytest.mark.parametrize("rows, most", [(0, 5), (1, 1), (2, 1), (7, 7), (8, 7), (540, 85),
                                        (576, 85), (128, 85), (384, 42), (3, 0), (9, 4),
                                        (6, 4)])
def test_split_gives_the_fewest_even_slices(rows, most, monkeypatch):
    fewest = max(1, -(-rows // max(1, most)))
    for workers, want in ((1, fewest), (4, AT_FOUR.get((rows, most), fewest))):
        monkeypatch.setattr(threads, "_workers", workers)
        slices = threads.split(rows, most)
        sizes = [s.stop - s.start for s in slices]
        assert slices[0].start == 0 and slices[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= max(1, most)
        assert len(slices) == want
