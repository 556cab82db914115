"""Two fixed row halves of one computation, the first on a worker thread.

`split(fn, n, width, mid)` returns `[fn(0, mid), fn(mid, n)]` for the cut row
`mid`, by default `n // 2`, when each half gives every numpy call at least
`_MIN_HALF` elements (`width` per row), and `[fn(0, n)]`, one piece,
otherwise: on smaller arrays the two threads' hand-offs of the interpreter
lock and the second set of numpy calls cost more than a second core gains.
The first half runs on one lazily made worker thread and the second on the
caller, while OpenBLAS is held at one thread. The cut depends on the sizes
alone, so the bits of a result depend neither on the core count nor on the
timing of the threads. Where no OpenBLAS thread control is found the halves
run one after the other on the caller, which gives the same bits.

OpenBLAS's idle workers busy-wait on their cores between calls, so a numpy
loop on the worker thread would share its core with a spinning BLAS thread.
`blas_hold()` keeps the count at one for as long as it is held and restores
the old count when the outermost hold ends. `train` holds it over its whole
stage loop: pinning and restoring around each call lets the restored workers
spin again between calls.

The worker runs with the caller's numpy error state. `fn` must not call
names that a profiler may patch, since only the caller's thread is traced.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# elements a half must give each numpy call for the rows to be cut in two:
# with every 64-wide net at batch 128 cut, a step took about twice as long
_MIN_HALF = 1 << 16

_lock = threading.Lock()
_control = None  # (get, set) of the loaded OpenBLAS, False if there is none
_depth = 0  # holds open
_saved = 0  # thread count before the outermost hold
_pool = None


def _after_fork_in_child() -> None:
    # a forked child has only the forking thread, so the worker and any lock
    # it held are gone; a new worker is made on the next split
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _find_control():
    """(get, set) thread-count functions of the OpenBLAS in this process, or False."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return False
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return False


def _blas_control():
    global _control
    with _lock:
        if _control is None:
            _control = _find_control()
    return _control


@contextlib.contextmanager
def blas_hold():
    """Hold OpenBLAS at one thread; re-entrant, a no-op without OpenBLAS."""
    global _depth, _saved
    control = _blas_control()
    if not control:
        yield
        return
    get, set_ = control
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)


def _worker():
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(1, thread_name_prefix="pcparam-half")
    return _pool


def _with_errstate(err: dict, fn, lo: int, hi: int):
    with np.errstate(**err):
        return fn(lo, hi)


def split(fn, n: int, width: int, mid: int | None = None) -> list:
    """[fn(0, mid), fn(mid, n)], the first half on the worker thread, when
    each half gives every numpy call at least `_MIN_HALF` elements, `width` a
    row; else [fn(0, n)]. The cut row `mid` is n // 2 unless the caller,
    whose rows differ in work, gives its own.

    Both halves have finished when this returns or raises. An error of the
    first half is raised before one of the second, as the sequential order
    would raise them. If the worker has not started the first half by the
    time the caller is done with the second, as when its core is taken
    away, the caller runs it too.
    """
    if mid is None:
        mid = n // 2
    with blas_hold():
        if not 0 < mid < n or min(mid, n - mid) * width < _MIN_HALF:
            return [fn(0, n)]
        if not _blas_control():
            return [fn(0, mid), fn(mid, n)]
        first = _worker().submit(_with_errstate, np.geterr(), fn, 0, mid)
        try:
            second = fn(mid, n)
        finally:
            head = fn(0, mid) if first.cancel() else first.result()
    return [head, second]
