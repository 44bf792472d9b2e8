"""One-BLAS-thread scope tests.

Oracle: the live thread count of each bundled OpenBLAS, read through the
same library handles the scope sets.
"""

import multiprocessing
import os

import pytest

from stablekern import _blas, estimator
from stablekern.simulation import ExperimentConfig, run_monte_carlo

pytestmark = pytest.mark.skipif(not _blas._LIBS, reason="no bundled OpenBLAS found")


def counts(libs=None):
    return [get() for get, _ in (_blas._LIBS if libs is None else libs)]


@pytest.fixture
def outside():
    """Give the libraries 2 and 3 threads for the test, then put the
    previous counts back; returns the counts set."""
    before = counts()
    want = [2 + i for i in range(len(_blas._LIBS))]
    for (_, put), n in zip(_blas._LIBS, want):
        put(n)
    assert counts() == want
    yield want
    for (_, put), n in zip(_blas._LIBS, before):
        put(n)


def test_every_bundled_library_is_found():
    assert len(_blas._LIBS) == 2  # numpy's and scipy's


def test_scope_runs_at_one_thread(outside):
    assert _blas.single_threaded(counts)() == [1] * len(outside)
    assert counts() == outside


def test_scope_restores_on_exception(outside):
    seen = []

    @_blas.single_threaded
    def fails():
        seen.append(counts())
        raise RuntimeError("inside")

    with pytest.raises(RuntimeError, match="inside"):
        fails()
    assert seen == [[1] * len(outside)]
    assert counts() == outside


def test_only_the_outermost_scope_restores(outside):
    inner = _blas.single_threaded(counts)

    @_blas.single_threaded
    def outer():
        return inner(), counts()

    ones = [1] * len(outside)
    assert outer() == (ones, ones)
    assert counts() == outside


def test_scope_does_nothing_without_a_library(outside, monkeypatch):
    libs = _blas._LIBS
    monkeypatch.setattr(_blas, "_LIBS", ())
    assert _blas.single_threaded(lambda: counts(libs))() == outside
    assert counts(libs) == outside


def test_pool_worker_fits_at_one_thread(outside, monkeypatch, tmp_path):
    # the worker inherits the patched module by fork; each BFGS run appends
    # its process id and the thread counts it sees to a file of its own
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("patched modules reach pool workers only through fork")
    original = estimator.minimize

    def recording(*args, **kwargs):
        with open(tmp_path / f"{os.getpid()}.txt", "a") as fh:
            fh.write(" ".join(map(str, counts())) + "\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(estimator, "minimize", recording)
    cfg = ExperimentConfig(study=1, runs=2, N=120, T=10, seed=3, estimators=("TC",))
    result = run_monte_carlo(cfg, workers=2)
    assert all(row.error is None for row in result.rows)
    logs = {p.stem: p.read_text().split() for p in tmp_path.glob("*.txt")}
    assert logs and str(os.getpid()) not in logs
    assert all(seen and set(seen) == {"1"} for seen in logs.values())
    assert counts() == outside
