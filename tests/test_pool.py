"""The process-wide worker pool: pinning, inline runs, errors and fork.

Every parallel phase runs on :mod:`repro.pool`, so its contract is
checked here on its own: one worker per CPU of the starting thread's
affinity mask, each pinned to its CPU; tasks on the caller's thread when
there is one worker or when a worker submits them; results in task
order; a task's exception delivered to the caller without breaking the
pool; a wait that a signal interrupts returning only once every task
has finished; stepped tasks that let later work run between their
steps; and a forked child that starts a fresh pool and routes a batch
exactly as its parent does.  Run under ``taskset -c 0`` the same tests
cover the one-worker path (the two-worker cases build a pool of their
own).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
import warnings

import pytest

from repro import pool
from repro.analysis.experiments import reference_graph
from repro.core.build import build_arrays
from repro.graphs.ports import assign_ports
from repro.pool import WorkerPool
from repro.rng import make_rng, sample_pairs
from repro.sim.engine import batch
from repro.sim.engine.batch import BatchRouter
from repro.sim.engine.compile import compile_from_arrays

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="the OS has no CPU affinity API"
)


@pytest.fixture(scope="module")
def two_workers():
    """A pool of two workers, whatever this process's mask: a worker
    whose CPU is outside the mask cannot pin itself and runs unpinned."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the OS has no CPU affinity API")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = WorkerPool()
    assert two.size == 2
    return two


def run_in_thread(fn, timeout: float = 60.0):
    """``fn()`` on a fresh thread, joined with a timeout; its result."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the call did not finish (deadlock?)"
    if "error" in out:
        raise out["error"]
    return out["value"]


@needs_affinity
def test_workers_are_pinned_to_distinct_cpus_covering_the_mask():
    shared = pool.shared()
    assert shared.size == len(shared.cpus) >= 1
    assert list(shared.cpus) == sorted(os.sched_getaffinity(0))
    # Task j runs on worker j mod size: one task per worker.
    masks = shared.run(lambda: os.sched_getaffinity(0), [()] * shared.size)
    assert masks == [{cpu} for cpu in shared.cpus]


@needs_affinity
def test_one_cpu_mask_gives_one_worker_that_runs_tasks_inline():
    cpu = min(os.sched_getaffinity(0))

    def start_pinned():
        os.sched_setaffinity(0, {cpu})  # this thread only
        one = WorkerPool()
        return one.size, one.cpus, threading.get_ident(), one.run(
            threading.get_ident, [(), (), ()]
        )

    size, cpus, me, ran_on = run_in_thread(start_pinned)
    assert (size, cpus) == (1, (cpu,))
    assert ran_on == [me, me, me]


@needs_affinity
def test_stepped_tasks_on_one_worker_run_to_the_end_inline():
    cpu = min(os.sched_getaffinity(0))
    steps = []

    def step():
        steps.append(threading.get_ident())
        return len(steps) < 5

    def start_pinned():
        os.sched_setaffinity(0, {cpu})  # this thread only
        one = WorkerPool()
        pending = one.start_steps(step, 2)
        ran = list(steps)  # before the wait: the steps ran inside start_steps
        return threading.get_ident(), ran, pending.wait()

    me, ran, values = run_in_thread(start_pinned)
    assert ran == [me] * 6  # the first task's five steps, the second's one
    assert values == [False, False]


def test_results_come_back_in_task_order():
    assert pool.run(lambda i: i * i, [(i,) for i in range(9)]) == [i * i for i in range(9)]
    assert pool.run(lambda: 7, [()]) == [7]
    assert pool.run(lambda: 7, []) == []


def test_a_task_submitted_from_a_worker_runs_inline():
    shared = pool.shared()

    def outer():
        return threading.get_ident(), shared.run(threading.get_ident, [(), (), ()])

    results = run_in_thread(lambda: shared.run(outer, [()] * max(2, shared.size)))
    for me, inner in results:
        assert inner == [me, me, me]


def test_a_task_error_reaches_the_caller_and_the_pool_stays_usable():
    shared = pool.shared()

    def task(i):
        if i in (1, 2):
            raise ValueError(f"task {i} failed")
        return i

    with pytest.raises(ValueError, match="task 1 failed"):
        shared.run(task, [(i,) for i in range(max(4, shared.size))])
    with pytest.raises(ValueError, match="task 2 failed"):
        shared.start(task, [(2,)]).wait()
    assert shared.run(task, [(0,), (3,), (4,)]) == [0, 3, 4]


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no pthread_kill")
def test_an_interrupted_wait_raises_only_after_every_task_finished(two_workers):
    """Ctrl-C while the caller waits: the interrupt reaches it, but not
    before the tasks that may still write into its buffers are done."""
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("signals reach the main thread only")
    main = threading.get_ident()
    finished = []

    def caller_is_waiting() -> bool:
        frame = sys._current_frames().get(main)
        while frame is not None and frame.f_code is not pool.Pending.wait.__code__:
            frame = frame.f_back
        return frame is not None

    def task(i):
        if i == 1:
            while not caller_is_waiting():
                time.sleep(0.001)
            signal.pthread_kill(main, signal.SIGINT)
            time.sleep(0.3)  # still writing when the interrupt arrives
        finished.append(i)

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        pending = two_workers.start(task, [(0,), (1,)])
        with pytest.raises(KeyboardInterrupt):
            pending.wait()
        assert sorted(finished) == [0, 1]
    finally:
        signal.signal(signal.SIGINT, handler)
    assert two_workers.run(lambda i: i, [(0,), (1,)]) == [0, 1]


def test_work_submitted_beside_a_stepped_task_waits_for_one_step(two_workers):
    steps = []

    def step():
        time.sleep(0.005)
        steps.append(None)
        return len(steps) < 100  # about half a second of steps

    stepping = two_workers.start_steps(step, 1)  # on worker 0
    while not steps:
        time.sleep(0.001)
    # Task 0 goes to worker 0 too: it runs between two steps.
    assert two_workers.run(lambda i: i, [(0,), (1,)]) == [0, 1]
    assert len(steps) < 100
    assert stepping.wait() == [False]
    assert len(steps) == 100


def test_concurrent_callers_each_get_their_own_results():
    """More callers than CPUs, with a short switch interval: every
    caller's tasks come back to it, in order."""
    shared = pool.shared()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        wrong = []

        def caller(t):
            for r in range(40):
                want = [(t, r, i) for i in range(3)]
                got = shared.run(lambda i, t=t, r=r: (t, r, i), [(i,) for i in range(3)])
                if got != want:
                    wrong.append((want, got))

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
    finally:
        sys.setswitchinterval(interval)


def _result_digest(result) -> str:
    h = hashlib.sha256()
    for name in ("delivered", "weight", "hops", "tree", "max_header_bits", "failure_code"):
        h.update(getattr(result, name).tobytes())
    return h.hexdigest()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the OS has no fork")
def test_a_forked_child_gets_a_fresh_pool_and_routes_identically(monkeypatch):
    graph = reference_graph("gnp", 300, 1).largest_component()
    ported = assign_ports(graph, "random", rng=1)
    compiled = compile_from_arrays(build_arrays(graph, 3, ported=ported, rng=1), ported)
    router = BatchRouter.from_compiled(compiled)
    monkeypatch.setattr(batch, "ROUTE_CHUNK_FLOOR", 64)  # chunk on the pool
    pairs = sample_pairs(make_rng(3), graph.n, 5000)
    want = _result_digest(router.route_pairs(pairs))
    parent = pool.shared()

    read, write = os.pipe()
    with warnings.catch_warnings():  # forking a threaded process is the point
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            fresh = pool._shared is None
            got = _result_digest(router.route_pairs(pairs))
            child = pool.shared()
            report = {
                "fresh": fresh,
                "new": child is not parent,
                "cpus": list(child.cpus),
                "digest": got,
            }
            os.write(write, json.dumps(report).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        report = fh.read()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    report = json.loads(report)
    assert report == {
        "fresh": True,
        "new": True,
        "cpus": list(parent.cpus),
        "digest": want,
    }
