"""run_tasks, the one place tagforge starts worker processes."""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

_JOB: tuple = ()  # (fn, shared) of a pool process, set once by _init


def _init(fn: Callable, shared: Any) -> None:
    global _JOB
    _JOB = (fn, shared)


def _call(task: Any) -> Any:
    fn, shared = _JOB
    return fn(shared, task)


def run_tasks(fn: Callable, tasks: Sequence, shared: Any, workers: int) -> Iterator:
    """fn(shared, task) for each task: in this process and in order when
    min(workers, len(tasks)) <= 1, without importing multiprocessing; else
    from a pool of that many processes, started by multiprocessing's default
    method, in the order they finish. fn (module-level) and shared reach each
    process once, through the pool initializer, never per task. Callers must
    merge the results in a way that does not depend on their order."""
    processes = min(workers, len(tasks))
    if processes <= 1:
        for task in tasks:
            yield fn(shared, task)
        return
    import multiprocessing  # here, so that one-process runs never load it

    with multiprocessing.Pool(processes, initializer=_init, initargs=(fn, shared)) as pool:
        yield from pool.imap_unordered(_call, tasks)
