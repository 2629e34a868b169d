"""The worker pool: hang-proof process fan-out.

:func:`supervised_map` is the one process pool replication runs
through.  Every task runs in its own OS process which **heartbeats
over its result pipe** while computing; the parent multiplexes all
pipes with :func:`multiprocessing.connection.wait` and enforces two
watchdogs:

* **stall**: no heartbeat for ``stall_timeout_s`` -- the worker is
  wedged (or was SIGSTOPped, or the host faulted it);
* **deadline**: the attempt has run longer than ``deadline_s`` of wall
  clock, heartbeats or not.

A tripped watchdog SIGKILLs the worker and **requeues** the task with
exponential backoff; after ``requeues`` kills the task degrades to a
caller-supplied failure outcome instead of blocking the run -- the
escalation path ``run_replications`` routes into its existing
retry-then-quarantine machinery.  The watchdogs are optional: a
policy with infinite ``deadline_s`` and ``stall_timeout_s`` never
kills, yet a worker that dies without a result still takes the same
requeue-then-failure path.  Results come back **in input order**, so
every fan-out merges bit-identically to a serial one.

Host-fault *interventions* (hang/stall injections declared by a
:class:`~repro.faults.plan.FaultPlan`) are applied inside the worker
shim before the user function runs, which is what lets the test suite
prove the watchdogs work without ever wedging itself: the supervisor
is the only component that can cancel an injected hang.

When worker processes cannot be started at all (sandboxes without
``fork``), the pool degrades to a plain in-process loop: supervision
and interventions are skipped -- correctness never depends on the
pool, which is a wall-clock optimisation only.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

__all__ = ["HostIntervention", "SupervisionPolicy", "SupervisedKill",
           "supervised_map"]


@dataclass(frozen=True)
class HostIntervention:
    """One injected host fault applied inside the worker shim."""

    #: "hang" sleeps then exits without a result (the supervisor must
    #: kill it); "stall" sleeps then runs the task normally
    kind: str
    seconds: float

    def __post_init__(self) -> None:
        if self.kind not in ("hang", "stall"):
            raise ValueError(f"unknown intervention kind {self.kind!r}")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")


@dataclass(frozen=True)
class SupervisionPolicy:
    """Watchdog thresholds and retry discipline for one supervised run."""

    #: wall-clock budget per attempt; overruns are killed
    deadline_s: float = 300.0
    #: max silence between heartbeats before the stall watchdog kills
    stall_timeout_s: float = 60.0
    #: worker heartbeat cadence (must undercut the stall timeout)
    heartbeat_s: float = 1.0
    #: kill-and-requeue attempts per task before degrading to failure
    requeues: int = 1
    #: exponential backoff between requeues: base * 2^(kills-1), capped
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    #: grace given to ``join`` after a SIGKILL
    kill_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.deadline_s <= 0 or self.stall_timeout_s <= 0:
            raise ValueError("deadline_s and stall_timeout_s must be "
                             "positive")
        if not 0 < self.heartbeat_s <= self.stall_timeout_s / 2:
            raise ValueError(
                f"heartbeat_s ({self.heartbeat_s!r}) must be positive and "
                f"at most half the stall timeout "
                f"({self.stall_timeout_s!r}): a single delayed beat must "
                f"not read as a stall")
        if self.requeues < 0:
            raise ValueError("requeues must be >= 0")


@dataclass(frozen=True)
class SupervisedKill:
    """One watchdog kill, for reports and telemetry."""

    item: object
    kills: int
    reason: str
    requeued: bool


class _Task:
    """Mutable per-item supervision state (parent side only)."""

    __slots__ = ("index", "item", "kills", "ready_at")

    def __init__(self, index: int, item: object) -> None:
        self.index = index
        self.item = item
        self.kills = 0
        self.ready_at = 0.0


class _Running:
    """One live worker process and its pipe."""

    __slots__ = ("task", "process", "conn", "started", "last_beat",
                 "done", "result", "error")

    def __init__(self, task: _Task, process, conn, now: float) -> None:
        self.task = task
        self.process = process
        self.conn = conn
        self.started = now
        self.last_beat = now
        self.done = False
        self.result = None
        self.error: Optional[str] = None


def _heartbeat_loop(conn, stop, interval_s: float) -> None:
    """Worker-side beat thread: ping the result pipe until stopped."""
    while not stop.wait(interval_s):
        try:
            conn.send(("hb",))
        except (OSError, ValueError):  # parent gone or pipe torn down
            return


def _worker_main(conn, fn, item, intervention: Optional[HostIntervention],
                 heartbeat_s: float) -> None:
    """Run one task in a child process, heartbeating over ``conn``.

    The beat thread is joined before the result is sent: two threads
    must never interleave writes on one pipe.  An injected hang sleeps
    without ever beating and exits resultless -- from the parent's
    viewpoint indistinguishable from a genuinely wedged worker, which
    is the point.
    """
    import threading
    if intervention is not None:
        time.sleep(intervention.seconds)
        if intervention.kind == "hang":
            return  # no result, no heartbeat: the watchdogs' problem
    stop = threading.Event()
    beater = threading.Thread(target=_heartbeat_loop,
                              args=(conn, stop, heartbeat_s), daemon=True)
    beater.start()
    try:
        result = fn(item)
    except BaseException:
        stop.set()
        beater.join()
        _send_quiet(conn, ("err", traceback.format_exc()))
        return
    stop.set()
    beater.join()
    _send_quiet(conn, ("done", result))


def _send_quiet(conn, message) -> None:
    try:
        conn.send(message)
    except (OSError, ValueError):  # parent died first; nothing to tell
        pass


def supervised_map(fn: Callable, items: Sequence,
                   workers: int = 1,
                   policy: Optional[SupervisionPolicy] = None,
                   intervention: Optional[Callable] = None,
                   failure: Optional[Callable] = None,
                   on_result: Optional[Callable] = None,
                   on_kill: Optional[Callable] = None,
                   ) -> List:
    """Map ``fn`` over ``items`` under watchdog supervision.

    ``fn`` and items must be picklable (workers are real processes).
    ``intervention(item)`` may return a :class:`HostIntervention` to
    apply inside the worker (fault injection).  ``failure(item,
    reason)`` builds the degraded result for a task whose every
    attempt was killed; without it the pool raises instead.
    ``on_result(item, result)`` fires as results land (completion
    order -- consumers that need determinism must key on the item, as
    the checkpoint journal does).  ``on_kill(kill)`` observes every
    :class:`SupervisedKill`.  Returns results in input order.

    Worker exceptions propagate as ``RuntimeError`` carrying the child
    traceback, after every other worker is killed (fail-fast).
    """
    policy = policy or SupervisionPolicy()
    items = list(items)
    if not items:
        return []
    try:
        import multiprocessing
        import multiprocessing.connection
        ctx = multiprocessing.get_context()
    except (ImportError, NotImplementedError, OSError):
        return _serial(fn, items, on_result)

    unset = object()
    results: List[object] = [unset] * len(items)
    pending: List[_Task] = [_Task(i, item) for i, item in enumerate(items)]
    running: dict = {}

    def finalize(run: _Running) -> None:
        run.conn.close()
        run.process.join(policy.kill_grace_s)

    def kill(run: _Running, reason: str) -> None:
        task = run.task
        task.kills += 1
        try:
            run.process.kill()
        except (OSError, AttributeError):
            pass
        finalize(run)
        del running[task.index]
        requeued = task.kills <= policy.requeues
        if on_kill is not None:
            on_kill(SupervisedKill(item=task.item, kills=task.kills,
                                   reason=reason, requeued=requeued))
        if requeued:
            backoff = min(policy.backoff_cap_s,
                          policy.backoff_base_s * (2 ** (task.kills - 1)))
            task.ready_at = time.monotonic() + backoff
            pending.append(task)
        else:
            if failure is None:
                _abort(running, finalize)
                raise RuntimeError(
                    f"supervised worker for {task.item!r} was killed "
                    f"{task.kills} time(s) ({reason}) with no failure "
                    f"handler installed")
            result = failure(task.item, reason)
            results[task.index] = result
            if on_result is not None:
                on_result(task.item, result)

    try:
        while pending or running:
            now = time.monotonic()
            # launch ready tasks into free slots (input order)
            launchable = [task for task in pending if task.ready_at <= now]
            while launchable and len(running) < max(1, workers):
                task = launchable.pop(0)
                pending.remove(task)
                act = intervention(task.item) if intervention else None
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, fn, task.item, act,
                          policy.heartbeat_s),
                    daemon=True)
                try:
                    process.start()
                except (OSError, ValueError, RuntimeError):
                    # host cannot fork: degrade to unsupervised inline
                    # execution for this task (hangs cannot be injected
                    # or caught down here)
                    parent_conn.close()
                    child_conn.close()
                    result = fn(task.item)
                    results[task.index] = result
                    if on_result is not None:
                        on_result(task.item, result)
                    continue
                child_conn.close()
                running[task.index] = _Running(task, process, parent_conn,
                                               time.monotonic())

            if not running:
                # everything pending is backing off; sleep to the
                # earliest ready time
                if pending:
                    wake = min(task.ready_at for task in pending)
                    time.sleep(max(0.0, min(wake - time.monotonic(),
                                            policy.backoff_cap_s)))
                continue

            # multiplex every live result pipe
            tick = max(0.01, policy.heartbeat_s / 2.0)
            ready = multiprocessing.connection.wait(
                [run.conn for run in running.values()], timeout=tick)
            by_conn = {run.conn: run for run in running.values()}
            for conn in ready:
                run = by_conn.get(conn)
                if run is None:
                    continue
                _drain_messages(run)

            now = time.monotonic()
            for index in list(running):
                run = running[index]
                if (not run.done and run.error is None
                        and run.process.exitcode is not None):
                    # a worker that sent its result and exited after
                    # the wait above returned is finished, not dead
                    _drain_messages(run)
                if run.done:
                    results[run.task.index] = run.result
                    if on_result is not None:
                        on_result(run.task.item, run.result)
                    finalize(run)
                    del running[index]
                elif run.error is not None:
                    _abort({i: r for i, r in running.items() if i != index},
                           finalize)
                    finalize(run)
                    raise RuntimeError(
                        f"supervised worker for {run.task.item!r} "
                        f"raised:\n{run.error}")
                elif run.process.exitcode is not None:
                    kill(run, f"worker died "
                              f"(exitcode {run.process.exitcode})")
                elif now - run.last_beat > policy.stall_timeout_s:
                    kill(run, f"no heartbeat for "
                              f"{policy.stall_timeout_s:g}s (stall)")
                elif now - run.started > policy.deadline_s:
                    kill(run, f"deadline {policy.deadline_s:g}s exceeded")
    except BaseException:
        _abort(running, finalize)
        raise

    assert all(result is not unset for result in results)
    return results


def _drain_messages(run: _Running) -> None:
    """Consume every queued message on one worker's pipe."""
    while True:
        try:
            if not run.conn.poll():
                return
            message = run.conn.recv()
        except (EOFError, OSError):
            return  # pipe closed; the exitcode check picks it up
        run.last_beat = time.monotonic()
        if message[0] == "done":
            run.done = True
            run.result = message[1]
            return
        if message[0] == "err":
            run.error = message[1]
            return
        # "hb": the beat itself already refreshed last_beat


def _abort(running: dict, finalize) -> None:
    """Kill every remaining worker (fail-fast cleanup path)."""
    for run in list(running.values()):
        try:
            run.process.kill()
        except (OSError, AttributeError):
            pass
        finalize(run)
    running.clear()


def _serial(fn, items, on_result) -> List:
    results = []
    for item in items:
        result = fn(item)
        if on_result is not None:
            on_result(item, result)
        results.append(result)
    return results
