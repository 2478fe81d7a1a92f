import os
import time

import numpy as np  # noqa: F401  (loads numpy's OpenBLAS)
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

from conftest import assert_no_child_left
from varieties import workmap


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(workmap, "workers", lambda: 2)


def blas_threads() -> list[int]:
    return [get() for get, _ in workmap._openblas()]


@pytest.mark.parametrize("workers", [1, 2])
def test_results_in_unit_order(monkeypatch, workers):
    monkeypatch.setattr(workmap, "workers", lambda: workers)
    parent, cpus = os.getpid(), os.sched_getaffinity(0)
    results = workmap.map_units(lambda u: (u * u, os.getpid() == parent), range(7))
    assert os.sched_getaffinity(0) == cpus
    assert [r for r, _ in results] == [u * u for u in range(7)]
    # at two workers the odd units ran in another process
    assert [here for _, here in results] == [workers == 1 or u % 2 == 0 for u in range(7)]
    assert_no_child_left()


def test_failed_child_has_its_share_run_here(two_workers):
    parent = os.getpid()

    def square(u):
        if os.getpid() != parent:
            raise RuntimeError("child only")
        return u * u

    assert workmap.map_units(square, range(5)) == [0, 1, 4, 9, 16]
    assert_no_child_left()


def test_raising_here_kills_the_child(two_workers):
    def unit(u):
        if u == 0:
            raise KeyError("unit 0")
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(KeyError, match="unit 0"):
        workmap.map_units(unit, range(2))
    assert time.monotonic() - started < 30
    assert_no_child_left()


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at two threads, so a restored count differs from the
    map's one; the counts as found are restored afterwards."""
    blas = workmap._openblas()
    if not blas:
        pytest.skip("no OpenBLAS with a settable thread count is loaded")
    saved = blas_threads()
    for _, set_ in blas:
        set_(2)
    yield
    for (_, set_), threads in zip(blas, saved):
        set_(threads)


def test_each_process_runs_one_blas_thread(two_workers, two_blas_threads):
    loaded = len(blas_threads())
    assert workmap.map_units(lambda u: blas_threads(), range(4)) == [[1] * loaded] * 4
    assert blas_threads() == [2] * loaded


def test_blas_threads_and_cpus_restored_when_a_unit_raises(two_workers, two_blas_threads):
    cpus = os.sched_getaffinity(0)

    def unit(u):
        raise ValueError(f"unit {u}")

    with pytest.raises(ValueError, match="unit 0"):
        workmap.map_units(unit, range(3))
    assert blas_threads() == [2] * len(blas_threads())
    assert os.sched_getaffinity(0) == cpus
    assert_no_child_left()
