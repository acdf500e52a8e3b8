"""The one way a command uses more than one CPU: split_map, a map over strided
chunks of a list in forked processes, each pinned to its own CPU. ``ce-fit``
fits its degrees, and ``similarity`` reads and bins its spectra, with it.
Standard library only; the commands import it when they run, so
``import matscale.cli`` loads no more than before.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
from typing import Callable, Optional, Sequence

from . import BLAS_THREAD_ENV


def process_workers(n_items: int, min_per_process: int) -> int:
    """The processes that n_items may be split over: 1, unless the BLAS runs on
    one thread (at least one of BLAS_THREAD_ENV is set and every one set is
    "1"), so that processes do not contend with BLAS threads, os.fork and
    os.sched_getaffinity exist, and no other Python thread is running (a forked
    child holds only the thread that forked, so a lock another thread held
    would never be released in it). Then n_items // min_per_process, up to the
    CPUs in the affinity mask, and at least 1."""
    if ({os.environ[name] for name in BLAS_THREAD_ENV if name in os.environ} != {"1"}
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(n_items // min_per_process, len(os.sched_getaffinity(0))))


def split_map(func: Callable[[list], list], items: list, min_per_process: int = 1) -> list:
    """func(items), for a func that maps a list to one result per item.

    With n = process_workers(len(items), min_per_process) > 1, fork_map runs
    func on the chunks items[k::n], and their results go back in item order.
    When n is 1, any chunk fails or a chunk returns the wrong number of
    results, func(items) runs in this process, which raises its error.
    """
    n = process_workers(len(items), min_per_process)
    if n > 1:
        chunks = [items[k::n] for k in range(n)]
        results = fork_map(func, chunks)
        if results is not None and list(map(len, results)) == list(map(len, chunks)):
            merged = [None] * len(items)
            for k, result in enumerate(results):
                merged[k::n] = result
            return merged
    return func(items)


def fork_map(func: Callable, chunks: Sequence) -> Optional[list]:
    """[func(chunk) for chunk in chunks], or None when any call fails.

    The first chunk runs in this process. Each other chunk runs in a child
    forked for it, which pickles its result into a pipe and ends with
    os._exit. Each process is pinned to its own CPU of the affinity mask,
    and this one gets its mask back at the end: on a 2-vCPU KVM guest the
    scheduler left a forked child on its parent's CPU for a whole pass in 2
    of 6 trials, so that the pass took twice as long as one process.

    The result is None when func raises here or in a child, when a child
    dies, or when a result arrives short; the caller then does the work in
    one process, where any error is raised as that process raises it, so no
    exception crosses a pipe. Every child is reaped before this returns or
    raises.
    """
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    pending = {}  # pid -> the read end of its pipe, for each child not yet reaped
    try:
        os.sched_setaffinity(0, cpus[:1])
        for k, chunk in enumerate(chunks[1:], 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                return None
            if pid == 0:
                _run_child(func, chunk, write_fd, cpus[k % len(cpus)])  # never returns
            os.close(write_fd)
            pending[pid] = read_fd
        results = [func(chunks[0])]
        for pid, read_fd in list(pending.items()):
            # drained before the wait: a child blocks on a full pipe until it is read
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            os.close(read_fd)
            del pending[pid]
            if os.waitpid(pid, 0)[1] != 0:
                return None
            results.append(pickle.loads(data))
        return results
    except Exception:  # the caller redoes the work in one process and raises there
        return None
    finally:
        for pid, read_fd in pending.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.sched_setaffinity(0, mask)


def _run_child(func: Callable, chunk, write_fd: int, cpu: int) -> None:
    """On CPU cpu, write the pickle of func(chunk) to write_fd and exit: status
    0 when it was all written, else 1. It never returns, so the child never
    runs the parent's cleanup: no atexit handler, no flush of buffered output."""
    code = 1
    try:
        # the collector could run finalizers of the parent's garbage here
        gc.disable()
        os.sched_setaffinity(0, (cpu,))
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(func(chunk), pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)
