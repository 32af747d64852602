"""Forked worker processes: the one fork site of the package.

The trace writer (`circuit.write_sim_trace_csv`) formats chunk ranges in
forked processes, and `fit.fit` replays gradient probes in them.  A
forked child shares the parent's memory without copying or pickling it
and starts at once; a spawned one would first import numpy, which takes
about as long as the work it is handed.

`usable_cpus` says how many processes are worth running, and `Workers`
forks them: each runs one callable and leaves through `os._exit`, and
each is reaped before the `with` block that forked it ends.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable

__all__ = ["usable_cpus", "Workers"]


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Workers:
    """Processes forked from this one, each running one callable.

    A worker never returns into the caller's code: it leaves through
    `os._exit`, which skips the parent's buffers and exit handlers, with
    status 0 once its callable has returned and 1 on any error, which it
    reports on stderr as `<what> process: <error>`.  `join` reaps one
    worker and raises `OSError` unless it exited with status 0.  Leaving
    the `with` block reaps every worker not yet joined, so none outlives
    it; a caller whose workers wait on a pipe closes it first.
    """

    def __init__(self, what: str) -> None:
        self.what = what
        self.pids: list[int] = []  # forked and not yet reaped, in fork order

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self.pids:  # not joined: left by a failure, or leaving on their own
            os.waitpid(self.pids.pop(0), 0)

    def fork(self, target: Callable[[], object]) -> int:
        """Fork a worker that runs `target`; its pid, in the parent."""
        # Python 3.12+ warns that forking a process with several threads
        # may deadlock the child.  Importing numpy starts an OpenBLAS worker
        # thread, so the warning would fire on every fork.  The workers run
        # only Python code, file writes and numpy calls without BLAS, and
        # the package starts no thread of its own, so a worker needs no
        # lock another thread could hold.  That one warning is ignored
        # here, and nothing else.
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of "
                r"fork\(\) may lead to deadlocks", DeprecationWarning)
            pid = os.fork()
        if pid:
            self.pids.append(pid)
            return pid
        status = 1
        try:
            target()
            status = 0
        except BaseException as exc:  # reported here, re-raised as the exit status
            os.write(2, f"{self.what} process: {exc!r}\n".encode())
        finally:
            os._exit(status)

    def join(self, pid: int) -> None:
        """Wait for the worker `pid`; `OSError` unless it exited with 0."""
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.pids.remove(pid)
        if code != 0:
            raise OSError(f"{self.what} process exited with status {code}")
