"""Independent work units mapped over at most two processes, the results in
unit order and the same at any worker count. A forked child runs the odd
units and ends in ``os._exit``, so it never unwinds into its caller's frames
(an output lock, a staging directory); a failed or killed child's units run
again here, so an error is the serial path's own.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from contextlib import contextmanager
from typing import Callable, Sequence


def _openblas() -> list | None:
    """The (get, set) thread-count functions of each OpenBLAS this process
    has loaded; None if one has neither."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    # numpy's and scipy's wheels rename OpenBLAS's symbols; a system one keeps them
    prefixes = ("scipy_openblas", "openblas")
    found = []
    for lib in libs:
        names = (f"{p}_{{}}_num_threads{s}" for s in ("64_", "") for p in prefixes)
        name = next((n for n in names if hasattr(lib, n.format("set"))), None)
        if name is None:
            return None
        get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return found


def workers() -> int:
    """Two where this process may run on two CPUs, can fork and can set the
    threads of every OpenBLAS it has loaded; otherwise one."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and _openblas()):
        return 1
    return min(2, len(os.sched_getaffinity(0)))


@contextmanager
def _one_thread_one_cpu():
    """Every OpenBLAS at one thread, and this process on the lowest CPU it may
    use; yields the highest, for the child. A 2-vCPU Linux guest was seen to
    keep a forked child on its parent's CPU for the child's whole life."""
    blas, allowed = _openblas() or [], os.sched_getaffinity(0)
    saved = [get() for get, _ in blas]
    try:
        for _, set_ in blas:
            set_(1)
        os.sched_setaffinity(0, {min(allowed)})
        yield max(allowed)
    finally:
        os.sched_setaffinity(0, allowed)
        for (_, set_), threads in zip(blas, saved):
            set_(threads)


def map_units(fn: Callable, units: Sequence) -> list:
    """``[fn(u) for u in units]``, at two workers with the odd units run in a
    forked child. ``fn``'s results must pickle."""
    if workers() < 2 or len(units) < 2:
        return [fn(u) for u in units]
    with _one_thread_one_cpu() as child_cpu:
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read)
                os.sched_setaffinity(0, {child_cpu})
                with os.fdopen(write, "wb") as pipe:
                    pickle.dump([fn(u) for u in units[1::2]], pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            try:
                ours = [fn(u) for u in units[::2]]
                sent = pipe.read()
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                _, status = os.waitpid(pid, 0)
    theirs = pickle.loads(sent) if status == 0 else [fn(u) for u in units[1::2]]
    results = [None] * len(units)
    results[::2], results[1::2] = ours, theirs
    return results
