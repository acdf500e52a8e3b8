"""The one way a command uses more than one CPU: split_map, a map over strided
chunks of a list in forked processes, each pinned to its own CPU. ``ce-fit``
fits its degrees, ``similarity`` reads and bins its spectra, and ``curate``
curates its two datasets with it; the function that split_map runs may swap
values between the processes once, by gather. Standard library only; the
commands import it when they run, so ``import matscale.cli`` loads no more
than before.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
from typing import Callable, Optional, Sequence

from . import BLAS_THREAD_ENV

# gather's round in this process while a forked map runs, else None. Only a
# process with one thread forks (process_workers), so no other thread sees it.
_round: Optional[Callable[[list], list]] = None


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


def gather(values: list) -> list:
    """Every item's value, in item order, for the func that split_map runs: it
    may call gather once, with one value per item of its chunk. In one
    process that is values itself; in a forked map the values cross between
    the processes in one round (fork_map)."""
    return values if _round is None else _round(values)


def split_map(func: Callable[[list], list], items: list, min_per_process: int = 1) -> list:
    """func(items), for a func that maps a list to one result per item.

    With n = process_workers(len(items), min_per_process) > 1, fork_map runs
    func on the chunks items[k::n], and their results, and the values of a
    gather, go back in item order. When n is 1, any chunk fails, or a chunk
    gives the wrong number of results or gather values, func(items) runs in
    this process, which raises its error.
    """
    n = process_workers(len(items), min_per_process)
    if n > 1:
        chunks = [items[k::n] for k in range(n)]

        def in_item_order(per_chunk: list) -> list:
            merged = [None] * len(items)
            for k, values in enumerate(per_chunk):
                merged[k::n] = values  # a ValueError unless len(values) == len(chunks[k])
            return merged

        results = fork_map(func, chunks, in_item_order)
        if results is not None:
            try:
                return in_item_order(results)
            except ValueError:
                pass
    return func(items)


def fork_map(func: Callable, chunks: Sequence, merge: Callable[[list], list] = list
             ) -> Optional[list]:
    """[func(chunk) for chunk in chunks], or None when any call fails.

    The first chunk runs in this process. Each other chunk runs in a child
    forked for it, which sends its result up a pipe and ends with os._exit.
    Each process is pinned to its own CPU of the affinity mask, and this one
    gets its mask back at the end: on a 2-vCPU KVM guest the scheduler left a
    forked child on its parent's CPU for a whole pass in 2 of 6 trials, so
    that the pass took twice as long as one process.

    Each call may run one gather round. A child sends its values up its pipe
    and waits on a second pipe; this process collects every chunk's values,
    in chunk order, and answers each child with merge of them, which is also
    what gather returns here. Every message is tagged as a gather or a result.

    The result is None when func raises here or in a child, when a child
    dies, or when a message arrives short or with the wrong tag; the caller
    then does the work in one process, where any error is raised as that
    process raises it, so no exception crosses a pipe. Every child is reaped,
    never killed, before this returns or raises, so no process writes files
    after it.
    """
    global _round
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    # pid -> (the read end of its pipe, the write end of its reply pipe), for
    # each child not yet reaped
    pending = {}

    def gather_here(values):
        per_chunk = [values] + [_receive(up, "gather") for up, _ in pending.values()]
        merged = merge(per_chunk)
        reply = _message("gather", merged)
        for _, down in pending.values():
            _write(down, reply)
        return merged

    try:
        os.sched_setaffinity(0, cpus[:1])
        for k, chunk in enumerate(chunks[1:], 1):
            fds = []  # up read, up write, down read, down write
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                return None
            if pid == 0:  # never returns
                _run_child(func, chunk, fds[1], fds[2], cpus[k % len(cpus)],
                           [fds[0], fds[3], *(fd for pair in pending.values() for fd in pair)])
            os.close(fds[1])
            os.close(fds[2])
            pending[pid] = (fds[0], fds[3])
        _round = gather_here
        results = [func(chunks[0])]
        for pid, (up, down) in list(pending.items()):
            # read before the wait: a child blocks on a full pipe until it is read
            result = _receive(up, "result")
            os.close(up)
            os.close(down)
            del pending[pid]
            if os.waitpid(pid, 0)[1] != 0:
                return None
            results.append(result)
        return results
    except Exception:  # the caller redoes the work in one process and raises there
        return None
    finally:
        _round = None
        # children left by a failure: with this process's ends of their pipes
        # closed, a child's next read of a gather answer meets EOF and its next
        # write EPIPE, so each ends with status 1, and is reaped here
        for fds in pending.values():
            for fd in fds:
                os.close(fd)
        for pid in pending:
            os.waitpid(pid, 0)
        os.sched_setaffinity(0, mask)


def _run_child(func: Callable, chunk, up: int, down: int, cpu: int, inherited: list) -> None:
    """On CPU cpu, send func(chunk) up the pipe up and exit: status 0 when it
    was all written, else 1. A gather sends its values up and reads the
    answer from down. The parent's ends of every pipe, inherited, are closed
    first, so each pipe has one reader and one writer. It never returns, so
    the child never runs the parent's cleanup: no atexit handler, no flush of
    buffered output."""
    global _round
    code = 1
    try:
        # the collector could run finalizers of the parent's garbage here
        gc.disable()
        for fd in inherited:
            os.close(fd)
        os.sched_setaffinity(0, (cpu,))

        def gather_in_child(values):
            _write(up, _message("gather", values))
            return _receive(down, "gather")

        _round = gather_in_child
        _write(up, _message("result", func(chunk)))
        code = 0
    finally:
        os._exit(code)


def _message(tag: str, value) -> bytes:
    """A message: the 8-byte length of the pickle of (tag, value), then the pickle."""
    data = pickle.dumps((tag, value), pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(8, "little") + data


def _write(fd: int, data: bytes) -> None:
    with open(fd, "wb", closefd=False) as pipe:
        pipe.write(data)


def _receive(fd: int, tag: str):
    """The value of the next message on fd; an error unless it is whole and tagged tag."""
    got, value = pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))
    if got != tag:
        raise ValueError(f"expected a {tag} message, got {got!r}")
    return value


def _read(fd: int, size: int) -> bytes:
    data = bytearray()
    while len(data) < size:
        block = os.read(fd, min(size - len(data), 1 << 20))
        if not block:
            raise EOFError(f"a pipe closed {size - len(data)} bytes short")
        data += block
    return bytes(data)
