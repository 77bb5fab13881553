"""Map a function over items on the calling thread and a few pool threads.

`monte_carlo` runs trial seeds this way, and each seed runs its bound
(see fim.bound) this way: the calling thread always
takes part, so a call that asks for k threads of work starts k - 1
pool tasks, never k. The pool is one executor shared by both levels and
sized by their caller; `crb` gives the bound a one-thread executor of its
own.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, wait
from dataclasses import dataclass


@dataclass(frozen=True)
class Helpers:
    """Up to `count` tasks of `executor` that one call may run beside its own thread."""

    executor: Executor
    count: int


def shared_map(fn, items, helpers: Helpers | None = None) -> list:
    """[fn(x) for x in items], computed on the calling thread and helper tasks.

    At most min(helpers.count, len(items) - 1) tasks are submitted (none
    when helpers is None). The calling thread runs the first item; then
    every thread, the calling one alone if no task is submitted, takes the
    next item not yet taken until none is left, and the results come back
    in item order. Once a call raises, no thread takes a new item; the calling thread's error, else a helper's, propagates
    after every helper task has returned.
    """
    items = list(items)
    spare = min(helpers.count, len(items) - 1) if helpers is not None else 0
    results = [None] * len(items)
    lock = threading.Lock()
    pending = iter(range(len(items)))
    failed = False

    def take():
        with lock:
            return None if failed else next(pending, None)

    def run(i):
        nonlocal failed
        while i is not None:
            try:
                results[i] = fn(items[i])
            except BaseException:
                failed = True
                raise
            i = take()

    first = take()
    futures = [helpers.executor.submit(lambda: run(take())) for _ in range(spare)]
    try:
        run(first)
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return results
