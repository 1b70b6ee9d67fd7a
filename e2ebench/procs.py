"""Make sure the benchmark leaves no process behind when it exits.

A ``ShardedEngine`` starts its workers with the ``spawn`` method, which
also starts ``multiprocessing``'s resource tracker.  ``close()`` joins the
workers, but the tracker exits only once the process that started it has
exited, so it outlives that process briefly, as an orphan.  The set-up
probes' trackers do the same.

So ``run.py`` does its work in a child process and only supervises it:
``adopt_orphans()`` makes the supervisor the Linux "child subreaper" of
everything below it, so an orphaned descendant becomes its child rather
than ``init``'s, and ``stop_children()`` waits for every such child once
the work is done, terminating one that has not ended after a grace
period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

#: ``prctl`` option from ``<linux/prctl.h>``.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants, where Linux allows it.

    Elsewhere orphans go to ``init`` as before; ``stop_children`` still
    waits for this process's own children.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as stat:
                # The command name may hold spaces and parentheses; the
                # fields after its closing ")" are state, then ppid.
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap(pid: int) -> bool:
    """Collect ``pid`` if it has ended; True once it is gone."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True  # already collected
    return done == pid


def stop_children(grace_seconds: float = 10.0) -> None:
    """Wait for every child to end; none is left when this returns.

    A child still running after ``grace_seconds`` is sent SIGTERM, and
    then SIGKILL every two seconds until it has ended.
    """
    deadline = time.monotonic() + grace_seconds
    sig = signal.SIGTERM
    while True:
        pending = [pid for pid in child_pids() if not _reap(pid)]
        if not pending:
            return
        if time.monotonic() >= deadline:
            for pid in pending:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            sig = signal.SIGKILL
            deadline = time.monotonic() + 2.0
        time.sleep(0.01)
