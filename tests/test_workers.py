import sys
import threading
import time
from collections import Counter

import pytest

from mimolab.workers import shared_map


def test_shared_map_without_helpers_runs_on_the_calling_thread():
    # the default thread count, one thread, or a single item: nothing is submitted
    caller = threading.get_ident()
    for items, threads in ((range(5), ()), (range(5), (1,)), ([7], (4,))):
        seen = shared_map(lambda x: (x, threading.get_ident()), items, *threads)
        assert seen == [(x, caller) for x in items]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_shared_map_keeps_item_order(count):
    assert shared_map(lambda x: x * x, range(20), count + 1) == [x * x for x in range(20)]


def test_shared_map_uses_at_most_count_helpers():
    # three threads: at most two pool tasks beside the calling thread
    # the calling thread holds item 0 until every other item is taken
    taken, lock = set(), threading.Lock()
    rest_taken = threading.Event()

    def work(x):
        with lock:
            taken.add(threading.get_ident())
            if x:
                rest_taken.set()
        if x == 0:
            rest_taken.wait(timeout=30)
        return x

    assert shared_map(work, range(6), 3) == list(range(6))
    assert threading.get_ident() in taken and 2 <= len(taken) <= 3


@pytest.mark.parametrize("on_caller", [True, False])
def test_shared_map_raises_and_takes_no_new_item(on_caller):
    # the calling thread holds item 0 until the pool task has taken an item;
    # then one side raises, and the pool task's sleeps let the other stop
    caller = threading.get_ident()
    started, finished, pool_took = [], [], threading.Event()

    def work(x):
        started.append(x)
        if threading.get_ident() == caller:
            pool_took.wait(timeout=30)
            if on_caller:
                raise ValueError("caller failed")
        else:
            pool_took.set()
            if not on_caller:
                raise ValueError("pool task failed")
            time.sleep(1e-3)
        finished.append(x)
        return x

    with pytest.raises(ValueError, match="caller failed" if on_caller else "pool task failed"):
        shared_map(work, range(1000), 2)
    assert 0 in started and len(started) < 50
    # every item taken has ended before the error propagates
    assert len(finished) == len(started) - 1


def test_shared_map_takes_every_item_once_under_contention():
    # more threads than cores and a short switch interval: a lost update of
    # the shared item iterator would run some item twice or not at all
    calls, lock = Counter(), threading.Lock()

    def work(x):
        with lock:
            calls[x] += 1
        return -x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            calls.clear()
            assert shared_map(work, range(2000), 6) == [-x for x in range(2000)]
            assert calls == Counter(range(2000))
    finally:
        sys.setswitchinterval(interval)
