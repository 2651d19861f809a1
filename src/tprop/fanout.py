"""Fan independent jobs out over forked processes (POSIX ``os.fork``).

``fork_map(fn, items, jobs)`` returns ``[fn(x) for x in items]``. This
process computes ``items[0::jobs]`` itself and ``jobs - 1`` forked workers
compute ``items[w::jobs]``, each sending its results, or the exception it
raised, back pickled through a pipe. Nothing from ``multiprocessing`` or
``concurrent.futures`` is loaded, so a fan-out leaves no executor thread,
queue or module behind in the calling process.

This is a module of its own, not part of ``trainer``, for memory: where no
bytecode cache is written, every import compiles ``trainer.py``, and past
4096 tokens the parser doubles its token array, which raised the resident
memory the process keeps by 0.1-0.2 MB (CPython 3.11).
"""

from __future__ import annotations

import os
import pickle


def fork_map(fn, items: list, jobs: int) -> list:
    """``[fn(x) for x in items]`` in that order, computed by ``jobs``
    processes, this one included, at most one per item. A worker's
    exception is re-raised here with its own type; a worker that exits
    non-zero or sends nothing raises RuntimeError. Every worker is reaped
    and every pipe closed before this returns or raises."""
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(x) for x in items]
    workers, shares = [], [None]  # (pid, read end of its pipe); each process's results
    try:
        for w in range(1, jobs):
            workers.append(_fork(fn, items[w::jobs]))
        shares[0] = [fn(x) for x in items[::jobs]]
    finally:  # reap every worker, also when this process's share raised
        shares += [_reap(pid, rfd) for pid, rfd in workers]
    for share in shares:
        if isinstance(share, Exception):
            raise share
    return [shares[i % jobs][i // jobs] for i in range(len(items))]


def _fork(fn, items: list) -> tuple[int, int]:
    """Fork a worker that computes ``fn`` over ``items`` and pickles the
    results, or the exception it raised, into a pipe; returns its pid and
    the pipe's read end. The worker leaves through ``os._exit``."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        status = 1
        try:
            try:
                out = [fn(x) for x in items]
            except Exception as e:
                out = e
            with open(wfd, "wb") as pipe:
                pickle.dump(out, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, rfd


def _reap(pid: int, rfd: int):
    """Read a worker's pipe to its end, then wait for the worker. Returns
    what it sent, or a RuntimeError when it exited non-zero or sent
    nothing."""
    with open(rfd, "rb") as pipe:
        data = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:
        return RuntimeError(f"a worker exited with status {status} and sent {len(data)} bytes")
    return pickle.loads(data)
