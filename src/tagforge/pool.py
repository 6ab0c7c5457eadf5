"""run_tasks, the one place tagforge starts worker processes."""

from __future__ import annotations

import gc
from typing import Any, Callable, Iterator, Sequence

_JOB: tuple = ()  # (fn, shared, tasks, counter) of a helper process, set once by _init


def _init(fn: Callable, shared: Any, tasks: Sequence, counter) -> None:
    global _JOB
    _JOB = (fn, shared, tasks, counter)
    # a helper's objects live until it exits; the cyclic collector finds
    # next to nothing to free among them
    gc.disable()


def _take(fn: Callable, shared: Any, tasks: Sequence, counter) -> Iterator:
    """fn(shared, task) for the next task index on counter, until none is left."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(tasks):
            return
        yield fn(shared, tasks[i])


def _drain(_) -> list:
    return list(_take(*_JOB))


def _in_order(fn: Callable, tasks: Sequence, shared: Any) -> Iterator:
    for task in tasks:
        yield fn(shared, task)


def _shared_queue(fn: Callable, tasks: Sequence, shared: Any, helpers: int) -> Iterator:
    import multiprocessing  # here, so that one-process runs never load it

    counter = multiprocessing.Value("q", 0)
    initargs = (fn, shared, tasks, counter)
    with multiprocessing.Pool(helpers, initializer=_init, initargs=initargs) as pool:
        batches = pool.map_async(_drain, range(helpers), chunksize=1)
        yield  # the helpers are started; run_tasks primes the iterator up to here
        yield from _take(fn, shared, tasks, counter)
        for batch in batches.get():
            yield from batch


def run_tasks(fn: Callable, tasks: Sequence, shared: Any, workers: int) -> Iterator:
    """fn(shared, task) for each task, on n = min(workers, len(tasks))
    processes, this one included.

    When n <= 1 the iterator is lazy and runs the tasks in order, in this
    process, without importing multiprocessing. Else n - 1 helper processes
    start now, by multiprocessing's default method; fn (module-level),
    shared, the tasks and a shared task counter reach each helper once,
    through the pool initializer. Each helper takes the next task index until
    none is left and returns its results in one message. Iterating runs the
    tasks left in this process, from the same counter, then yields the
    helpers' results. Closing or dropping the iterator terminates the helpers.
    Callers must merge the results in a way that does not depend on their
    order."""
    n = min(workers, len(tasks))
    if n <= 1:
        return _in_order(fn, tasks, shared)
    results = _shared_queue(fn, tasks, shared, n - 1)
    next(results)
    return results
