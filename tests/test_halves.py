"""The two fixed row halves: order, errors, error state and the BLAS hold."""

import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from pcparam import _halves
from pcparam.losses import _SIGMA_FLOOR, leg_with_grad

needs_control = pytest.mark.skipif(
    not _halves._blas_control(), reason="no OpenBLAS thread control in this process"
)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 1000])
def test_split_cuts_in_two_only_halves_of_enough_elements(n):
    big = _halves._MIN_HALF
    whole, halves = [(0, n)], [(0, n // 2), (n // 2, n)]
    ranges = lambda lo, hi: (lo, hi)  # noqa: E731
    assert _halves.split(ranges, n, big) == (halves if n >= 2 else whole)
    assert _halves.split(ranges, n, 1) == (halves if n // 2 >= big else whole)
    # a half of n // 2 rows of -(-big // (n // 2)) elements just reaches it
    if n >= 2:
        assert _halves.split(ranges, n, -(-big // (n // 2))) == halves
        assert _halves.split(ranges, n, (big - 1) // (n // 2)) == whole


@needs_control
def test_split_runs_only_a_large_first_half_on_the_worker_thread():
    here = threading.current_thread().name

    def name(lo, hi):
        if lo:  # the caller's half waits, so the worker surely starts the first
            time.sleep(0.05)
        return threading.current_thread().name

    names = _halves.split(name, 4, _halves._MIN_HALF)
    assert names[0].startswith("pcparam-half")
    assert names[1] == here
    small = _halves._MIN_HALF // 2 - 1
    assert _halves.split(lambda lo, hi: threading.current_thread().name, 4, small) == [here]


@needs_control
def test_the_caller_runs_a_first_half_the_worker_has_not_started(monkeypatch):
    import concurrent.futures as cf

    class Stalled:  # a worker whose thread never gets a core
        def submit(self, fn, *args):
            return cf.Future()

    monkeypatch.setattr(_halves, "_worker", Stalled)
    here = threading.current_thread().name
    got = _halves.split(lambda lo, hi: (lo, hi, threading.current_thread().name), 4,
                        _halves._MIN_HALF)
    assert got == [(0, 2, here), (2, 4, here)]


def test_split_raises_the_first_halfs_error_first():
    def fail(lo, hi):
        raise ValueError(f"half {lo}")

    with pytest.raises(ValueError, match="half 0"):
        _halves.split(fail, 4, _halves._MIN_HALF)

    def second_fails(lo, hi):
        if lo:
            raise KeyError("second")
        return lo

    with pytest.raises(KeyError, match="second"):
        _halves.split(second_fails, 4, _halves._MIN_HALF)


def test_split_gives_both_halves_the_callers_error_state():
    def overflow(lo, hi):
        if lo:  # the caller's half waits, so the worker runs the first
            time.sleep(0.05)
        return np.exp(np.full(hi - lo, 1000.0))

    wide = _halves._MIN_HALF
    with np.errstate(over="ignore"):
        first, second = _halves.split(overflow, 4, wide)
    assert len(first) == len(second) == 2
    assert np.isinf(first).all() and np.isinf(second).all()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _halves.split(lambda lo, hi: overflow(lo, hi) if lo == 0 else time.sleep(0.05), 4, wide)


@needs_control
def test_blas_hold_is_reentrant_and_restores_the_count():
    get, set_ = _halves._blas_control()
    before = get()
    set_(2)
    try:
        with _halves.blas_hold():
            assert get() == 1
            with _halves.blas_hold():
                assert get() == 1
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)


def test_concurrent_callers_share_the_worker_and_the_hold(monkeypatch):
    # four caller threads on two cores, each splitting with the interpreter
    # switching threads often: every result is right, and the last hold to
    # end restores the BLAS thread count
    from pcparam.neural import NetworkSpec, forward, init_params

    monkeypatch.setattr(_halves, "_MIN_HALF", 0)  # every split on the worker

    spec = NetworkSpec(3, (32, 32), 2)
    params = init_params(spec, 1)
    x = np.random.default_rng(2).normal(size=(65, 3))
    want = forward(spec, params, x)
    control = _halves._blas_control()
    before = control[0]() if control else None
    bad = []

    def caller():
        for _ in range(20):
            if not np.array_equal(forward(spec, params, x), want):
                bad.append(threading.current_thread().name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    assert _halves._depth == 0
    if control:
        assert control[0]() == before


def test_leg_just_above_the_floor_warns_on_neither_thread(monkeypatch):
    # every image pair overflows its scaled distance to -inf, in both halves;
    # each half sets its own error state, whatever the caller's is
    monkeypatch.setattr(_halves, "_MIN_HALF", 0)  # the first half on the worker
    rng = np.random.default_rng(23)
    x = rng.normal(size=(41, 3))
    y = rng.normal(size=(41, 2))
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="raise"):
        warnings.simplefilter("always")
        value, g_mapped, g_inv = leg_with_grad(
            x, y, rng.uniform(0.3, 1.2, 41), 1.05 * _SIGMA_FLOOR
        )
    assert not caught
    assert np.isfinite(value) and np.isfinite(g_mapped).all() and np.isfinite(g_inv).all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_worker():
    # the child inherits the parent's executor but not its thread; without
    # a fresh worker its first split would wait forever
    code = """if True:
        import os, signal, numpy as np
        from pcparam import neural
        spec = neural.NetworkSpec(2, (8,), 2)
        params, x = neural.init_params(spec, 0), np.ones((4, 2))
        want = neural.forward(spec, params, x)
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)
            ok = np.array_equal(neural.forward(spec, params, x), want)
            os._exit(0 if ok else 1)
        print(os.waitpid(pid, 0)[1])
    """
    src = str(Path(_halves.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "0"
