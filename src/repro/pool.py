"""One process-wide worker pool: one thread per CPU, each pinned to it.

Every parallel phase of the library runs here — the router's row chunks
(:mod:`repro.sim.engine.batch`), the builder's frontier sweep and
cluster-tree pass, the compile pass (:mod:`repro.kernels`) and the scheme
container's data digest (:mod:`repro.store.format`).  Each caller cuts
its work into at most :func:`size` contiguous chunks that write disjoint
rows of shared outputs, so a result never depends on the chunking.  The
chunk functions spend their time in C (ctypes and ``hashlib`` release
the interpreter lock), which is what lets the threads overlap.

The pool has no setting.  It starts on first use with one worker per
CPU of the affinity mask of the thread that starts it (on Linux
``os.sched_getaffinity(0)`` is per thread; a pinned worker sees only
its own CPU, so ``taskset -c 0`` gives one worker), and pins each
worker to its CPU with ``os.sched_setaffinity``.  Pinning is what makes
short tasks parallel: a thread woken for a burst of a millisecond or
two otherwise tends to land on the CPU of the thread that woke it, and
two unpinned threads then finish no sooner than one.  Where the OS has
no affinity API the workers cover ``os.cpu_count()`` and stay unpinned.

Tasks run on the caller's thread instead — in order, with the same
results — when the pool has one worker (there is no second CPU to
gain), and when a worker of the pool submits them (it would otherwise
wait on the queue it is meant to drain).  A forked child starts a fresh
pool on first use: the parent's threads do not exist there.

A long task that other callers should not wait behind (the container
digest) is started as steps (:func:`start_steps`): after each step it
goes to the back of its worker's queue, so a route or build pass handed
to the pool meanwhile waits for one step, not for the whole task.
"""

from __future__ import annotations

import os
import threading
from queue import SimpleQueue
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Pending", "WorkerPool", "even_ranges", "run", "shared", "size", "start", "start_steps",
]


class _Task:
    """One call of a submitted function (or a run of steps), with its
    outcome.

    A finished task drops its function and arguments: a caller that
    keeps the :class:`Pending` (and whose function refers back to it)
    must not keep every array the call touched alive until the cyclic
    garbage collector runs.
    """

    __slots__ = ("fn", "args", "stepped", "done", "value", "error")

    def __init__(self, fn: Callable, args: Tuple, stepped: bool = False) -> None:
        self.fn: Optional[Callable] = fn
        self.args: Optional[Tuple] = args
        self.stepped = stepped
        self.done = threading.Event()
        self.value = None
        self.error: Optional[BaseException] = None

    def run(self) -> bool:
        """Call the function once; True when the task has finished (a
        stepped task has not while its step returns True)."""
        try:
            value = self.fn(*self.args)
            if self.stepped and value:
                return False
            self.value = value
        except BaseException as exc:  # noqa: BLE001 - handed to the caller
            self.error = exc
        self.fn = self.args = None
        self.done.set()
        return True


class Pending:
    """Tasks started on a pool; :meth:`wait` collects them."""

    def __init__(self, tasks: List[_Task]) -> None:
        self._tasks = tasks

    def wait(self) -> list:
        """Every task's result, in task order, once all have finished.

        The first failed task's exception (in task order) is raised
        instead, after the others have finished too, so no task is still
        writing into the caller's buffers when the error arrives.  An
        exception that interrupts the wait itself (``KeyboardInterrupt``
        from a signal) is raised the same way: once every task is done.
        """
        interrupted: Optional[BaseException] = None
        while True:
            try:
                for task in self._tasks:
                    task.done.wait()
                break
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                interrupted = interrupted or exc
        if interrupted is not None:
            raise interrupted
        for task in self._tasks:
            if task.error is not None:
                raise task.error
        return [task.value for task in self._tasks]


class WorkerPool:
    """One worker thread per CPU of the starting thread's affinity mask.

    Worker ``i`` owns its own queue and runs only on ``cpus[i]``; the
    ``j``-th task of a submission goes to worker ``j mod size``.
    """

    def __init__(self) -> None:
        try:
            cpus: Sequence[Optional[int]] = sorted(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - no affinity API (macOS)
            cpus = [None] * (os.cpu_count() or 1)
        #: The CPU each worker is pinned to (None: unpinned).
        self.cpus: Tuple[Optional[int], ...] = tuple(cpus)
        self._queues: List[SimpleQueue] = []
        threads = []
        if len(self.cpus) > 1:
            for cpu in self.cpus:
                queue: SimpleQueue = SimpleQueue()
                thread = threading.Thread(
                    target=self._work,
                    args=(queue, cpu),
                    name=f"repro-pool-{len(threads)}",
                    daemon=True,
                )
                self._queues.append(queue)
                threads.append(thread)
            for thread in threads:
                thread.start()
        self._workers = frozenset(thread.ident for thread in threads)

    @property
    def size(self) -> int:
        """Number of workers: the CPUs of the mask the pool started on."""
        return len(self.cpus)

    @staticmethod
    def _work(queue: SimpleQueue, cpu: Optional[int]) -> None:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # pragma: no cover - the CPU left the mask
                pass  # the worker still runs, unpinned
        while True:
            task = queue.get()
            if not task.run():
                queue.put(task)  # a stepped task: its next step waits its turn

    def start(self, fn: Callable, argsets: Iterable[Tuple]) -> Pending:
        """Start ``fn(*args)`` for each ``args``, one per worker in turn.

        Returns at once unless the tasks run on this thread (one worker,
        or a call from a worker of this pool), in which case they have
        finished by then.
        """
        return self._submit([_Task(fn, tuple(args)) for args in argsets])

    def start_steps(self, step: Callable[[], bool], count: int) -> Pending:
        """Start ``count`` tasks that each call ``step()`` until it
        returns False, going to the back of their worker's queue after
        every call that returns True; :meth:`Pending.wait` returns each
        task's last value, False.
        """
        return self._submit([_Task(step, (), stepped=True) for _ in range(count)])

    def _submit(self, tasks: List[_Task]) -> Pending:
        if not self._queues or threading.get_ident() in self._workers:
            for task in tasks:
                while not task.run():
                    pass
        else:
            for j, task in enumerate(tasks):
                self._queues[j % len(self._queues)].put(task)
        return Pending(tasks)

    def run(self, fn: Callable, argsets: Iterable[Tuple]) -> list:
        """``[fn(*args) for args in argsets]``, spread over the workers.

        A single task runs on the calling thread: handing it over would
        only add a wake-up.
        """
        argsets = [tuple(args) for args in argsets]
        if len(argsets) == 1:
            return [fn(*argsets[0])]
        return self.start(fn, argsets).wait()


_shared: Optional[WorkerPool] = None
_shared_lock = threading.Lock()


def shared() -> WorkerPool:
    """The process's pool, started on first use (and again after fork)."""
    global _shared
    pool = _shared
    if pool is None:
        with _shared_lock:
            if _shared is None:
                _shared = WorkerPool()
            pool = _shared
    return pool


def _forget_after_fork() -> None:
    """In a forked child: drop the parent's pool (its threads are gone)."""
    global _shared, _shared_lock
    _shared = None
    _shared_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)


def size() -> int:
    """Number of workers of the process's pool."""
    return shared().size


def even_ranges(count: int, parts: int) -> List[Tuple[int, int]]:
    """``parts`` contiguous ``[lo, hi)`` ranges of about equal length
    covering ``count`` rows, in order, empty ones included: how a caller
    cuts its rows into chunks for :func:`run` (the part count is the
    caller's own, :func:`size` or fewer)."""
    return [(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def run(fn: Callable, argsets: Iterable[Tuple]) -> list:
    """:meth:`WorkerPool.run` on the process's pool."""
    return shared().run(fn, argsets)


def start(fn: Callable, argsets: Iterable[Tuple]) -> Pending:
    """:meth:`WorkerPool.start` on the process's pool."""
    return shared().start(fn, argsets)


def start_steps(step: Callable[[], bool], count: int) -> Pending:
    """:meth:`WorkerPool.start_steps` on the process's pool."""
    return shared().start_steps(step, count)
