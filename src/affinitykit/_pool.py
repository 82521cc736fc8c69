"""Two threads for the independent units of one call, with OpenBLAS held at one thread.

``run(fn, items)`` returns ``[fn(item) for item in items]``, computed on two
worker threads: numpy releases the GIL in its loops and gemms, so the row
blocks of an attention hop, its heads, or the row strips of the Gaussian
run on both cores. Each task runs under the caller's numpy error state,
which does not reach another thread by itself. A task that calls ``run``
again runs its items inline, so nested units cannot wait on each other.
The pool is on only where it was measured: exactly two usable cores and
numpy's bundled OpenBLAS with a thread-count setter. Elsewhere (one core,
more than two, MKL, Accelerate, an older wheel) the width is 1 and every
call runs inline, with OpenBLAS untouched.

``held`` holds that OpenBLAS at one thread while a call runs with the pool
on, process-wide and re-entrant: a gemm left at two threads would contend
with the other worker, and its threads spin-wait after each call on the
core the pool needs. It also ignores overflow and invalid results, which
the attention family's scans find: ``single_hop_aggregate``'s scan of each
hop's product, and an entry point's scan of an array it forms after the
hop. Nothing loads before the first call.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

# Two workers on exactly two usable cores, the one machine shape measured;
# two 1 MB attention blocks in flight keep attention at 2048 x 64 under 8 MB
# of scratch.
_CORES = 2
_WIDTH = None  # worker threads per call, probed on first use
_BLAS = None  # (get, set) of numpy's OpenBLAS thread count, or () without one
_executor = None
_lock = threading.Lock()
_depth = 0  # holds in flight, over all threads
_saved = None  # (set, count) to restore when the last hold exits, or None
_local = threading.local()  # this thread's holds, and whether it is a worker


def _blas():
    """The getter and setter of numpy's bundled OpenBLAS thread count, or ()."""
    global _BLAS
    if _BLAS is None:
        import ctypes
        import glob

        found = ()  # published only when the probe is over
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        for path in glob.glob(os.path.join(libs, "*scipy_openblas*")):
            try:
                lib = ctypes.CDLL(path)
                get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
            found = get, set_
            break
        _BLAS = found
    return _BLAS


def width() -> int:
    """Threads per call: ``_CORES`` on exactly that many usable cores with the setter, else 1."""
    global _WIDTH
    if _WIDTH is None:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        _WIDTH = _CORES if cores == _CORES and _blas() else 1
    return _WIDTH


def run(fn, items) -> list:
    """[fn(item) for item in items], on up to ``width()`` threads; every item is done on return."""
    global _executor
    items = list(items)
    if width() == 1 or len(items) < 2 or getattr(_local, "worker", False):
        return [fn(item) for item in items]
    with _lock:
        if _executor is None:
            from concurrent.futures import ThreadPoolExecutor

            _executor = ThreadPoolExecutor(_CORES, thread_name_prefix="affinitykit")
    state = np.geterr()

    def task(item):
        _local.worker = True
        with np.errstate(**state):  # the caller's state, which a thread does not inherit
            return fn(item)

    futures = [_executor.submit(task, item) for item in items]
    for future in futures:  # wait for all before one raises, so none outlives the call
        future.exception()
    return [future.result() for future in futures]


def _restore():
    """Give OpenBLAS back the count the first hold saved, if it saved one."""
    global _saved
    if _saved is not None:
        _saved[0](_saved[1])
        _saved = None


@contextlib.contextmanager
def held():
    """OpenBLAS at one thread with the pool on, and over/invalid ignored, until the last hold exits."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            blas = _blas() if width() > 1 else ()
            if blas:
                _saved = blas[1], blas[0]()
                blas[1](1)
        _depth += 1
    _local.depth = getattr(_local, "depth", 0) + 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # each hop and entry point scans what it forms
            yield
    finally:
        _local.depth -= 1
        with _lock:
            _depth -= 1
            if _depth == 0:
                _restore()


def _after_fork():
    """A forked child has only the forking thread: build the executor anew, and
    count only that thread's holds, giving OpenBLAS back its count if none is left."""
    global _executor, _lock, _depth
    _executor, _lock = None, threading.Lock()
    _depth = getattr(_local, "depth", 0)
    if _depth == 0:
        _restore()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)
