"""Map a function over items on the calling thread and a few pool threads.

`monte_carlo` runs trial seeds this way: the calling thread always takes
part, so a call that asks for k threads of work starts k - 1 pool tasks,
never k.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor


def shared_map(fn, items, threads: int = 1) -> list:
    """[fn(x) for x in items], computed on the calling thread and pool threads.

    min(threads, len(items)) - 1 tasks are submitted to a pool that the call
    opens and closes (none when that is 0 or less, and then the pool starts
    no thread). The calling thread runs the first item; then every thread,
    the calling one alone if no task is submitted, takes the next item not
    yet taken until none is left, and the results come back in item order.
    Once a call raises, no thread takes a new item; the calling thread's
    error, else a pool task's, propagates after every pool task has
    returned.
    """
    items = list(items)
    spare = min(threads, len(items)) - 1
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
    with ThreadPoolExecutor(max_workers=max(spare, 1)) as pool:
        futures = [pool.submit(lambda: run(take())) for _ in range(spare)]
        run(first)
    for f in futures:
        f.result()
    return results
