import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from mimolab.workers import Helpers, shared_map


@pytest.fixture
def executor():
    with ThreadPoolExecutor(max_workers=3) as pool:
        yield pool


def test_shared_map_without_helpers_runs_on_the_calling_thread(executor):
    # no helpers, none allowed, or a single item: nothing is submitted
    caller = threading.get_ident()
    for items, helpers in ((range(5), None), (range(5), Helpers(executor, 0)),
                           ([7], Helpers(executor, 3))):
        seen = shared_map(lambda x: (x, threading.get_ident()), items, helpers)
        assert seen == [(x, caller) for x in items]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_shared_map_keeps_item_order(executor, count):
    assert shared_map(lambda x: x * x, range(20), Helpers(executor, count)) == [
        x * x for x in range(20)]


def test_shared_map_uses_at_most_count_helpers(executor):
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

    assert shared_map(work, range(6), Helpers(executor, 2)) == list(range(6))
    assert threading.get_ident() in taken and 2 <= len(taken) <= 3


@pytest.mark.parametrize("on_caller", [True, False])
def test_shared_map_raises_and_takes_no_new_item(executor, on_caller):
    # the calling thread holds item 0 until the helper has taken an item;
    # then one side raises, and the helper's sleeps let the other stop
    caller = threading.get_ident()
    started, finished, helper_took = [], [], threading.Event()

    def work(x):
        started.append(x)
        if threading.get_ident() == caller:
            helper_took.wait(timeout=30)
            if on_caller:
                raise ValueError("caller failed")
        else:
            helper_took.set()
            if not on_caller:
                raise ValueError("helper failed")
            time.sleep(1e-3)
        finished.append(x)
        return x

    with pytest.raises(ValueError, match="caller failed" if on_caller else "helper failed"):
        shared_map(work, range(1000), Helpers(executor, 1))
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
        with ThreadPoolExecutor(max_workers=5) as pool:
            for _ in range(5):
                calls.clear()
                assert shared_map(work, range(2000), Helpers(pool, 5)) == [
                    -x for x in range(2000)]
                assert calls == Counter(range(2000))
    finally:
        sys.setswitchinterval(interval)
