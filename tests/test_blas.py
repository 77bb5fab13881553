"""monte_carlo and crb_report run on one OpenBLAS thread and restore the counts."""

import sys
import threading

import numpy as np
import pytest

from mimolab import bench, blas, fim
from mimolab.channel import PathSet
from mimolab.fim import crb_report
from mimolab.geometry import upa
from mimolab.observation import identity_setup

from conftest import random_path

LIBRARIES = blas._openblas_libraries()
pytestmark = pytest.mark.skipif(not LIBRARIES, reason="no OpenBLAS loaded to cap")


def counts():
    return [get() for get, _ in LIBRARIES]


@pytest.fixture
def two_threads():
    """Start every OpenBLAS at 2 threads, so restoring differs from capping."""
    before = counts()
    for _, set_ in LIBRARIES:
        set_(2)
    yield [2] * len(LIBRARIES)
    for (_, set_), count in zip(LIBRARIES, before):
        set_(count)


def small_crb_inputs(sigma2=0.5):
    rng = np.random.default_rng(4)
    return (PathSet([random_path(rng) for _ in range(3)]), upa(2, 4), upa(4, 4),
            identity_setup(16, 8, sigma2))


def test_monte_carlo_caps_and_restores(two_threads, monkeypatch):
    seen = []
    run_trial = bench.run_trial

    def recording(*args, **kwargs):
        seen.append(counts())
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(bench, "run_trial", recording)
    cfg = bench.ScenarioConfig(n_t=16, n_r=4, m=49, n=49, n_clusters=2, paths_per_cluster=2,
                               P_budgets=(1,), trials=2)
    bench.monte_carlo(cfg, threads=2)
    assert len(seen) == 4 and all(c == [1] * len(LIBRARIES) for c in seen)
    assert counts() == two_threads
    assert blas.blas_threads() == 1


def test_monte_carlo_restores_when_a_trial_raises(two_threads, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("trial failed")

    threads_before = threading.active_count()
    monkeypatch.setattr(bench, "run_trial", failing)
    # two trials on one or two threads; one trial on two, raising on the
    # calling thread, which runs the only seed
    for trials, threads in ((2, 1), (2, 2), (1, 2)):
        cfg = bench.ScenarioConfig(n_t=16, n_r=4, m=16, n=16, trials=trials)
        with pytest.raises(RuntimeError, match="trial failed"):
            bench.monte_carlo(cfg, threads=threads)
        assert counts() == two_threads
        assert threading.active_count() == threads_before


def test_monte_carlo_restores_when_a_bound_helper_raises(two_threads, monkeypatch):
    # One trial on two threads: the calling thread runs the seed and the
    # bound's Fisher factor, and waits until the helper has taken the dense
    # Jacobian and raised.
    caller = threading.get_ident()
    helper_ran = threading.Event()
    fisher_factor = fim.fisher_factor

    def failing_in_helper(J, out=None):
        assert threading.get_ident() != caller
        helper_ran.set()
        raise RuntimeError("bound failed")

    def waiting_for_the_helper(J, s):
        helper_ran.wait(timeout=30)
        return fisher_factor(J, s)

    threads_before = threading.active_count()
    monkeypatch.setattr(fim, "fisher_factor", waiting_for_the_helper)
    monkeypatch.setattr(fim.Jacobian, "dense", failing_in_helper)
    cfg = bench.ScenarioConfig(n_t=16, n_r=4, m=144, n=16, n_clusters=2, paths_per_cluster=2,
                               P_budgets=(1,), strategies=("joint",), trials=1)
    with pytest.raises(RuntimeError, match="bound failed"):
        bench.monte_carlo(cfg, threads=2)
    assert helper_ran.is_set()
    assert counts() == two_threads
    assert threading.active_count() == threads_before


def test_crb_report_caps_and_restores(two_threads, monkeypatch):
    seen = []
    crb_trace = fim.crb_trace

    def recording(*args, **kwargs):
        seen.append(counts())
        return crb_trace(*args, **kwargs)

    monkeypatch.setattr(fim, "crb_trace", recording)
    report = crb_report(*small_crb_inputs())
    assert report["n_p"] == 18
    assert seen == [[1] * len(LIBRARIES)]
    assert counts() == two_threads


def test_crb_report_restores_when_it_raises(two_threads):
    with pytest.raises(ValueError, match="noiseless"):
        crb_report(*small_crb_inputs(sigma2=0.0))
    assert counts() == two_threads


def test_overlapping_calls_share_one_cap(two_threads):
    # More callers than cores, switching often: the counts must be 1 inside
    # every call and the saved ones after the last call, whatever the overlap.
    inputs = small_crb_inputs()
    inside, errors = [], []

    def caller():
        try:
            for _ in range(5):
                with blas.one_blas_thread:
                    inside.append(counts())
                    crb_report(*inputs)
                    inside.append(counts())
        except Exception as e:  # read back below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=caller) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert len(inside) == 60 and all(c == [1] * len(LIBRARIES) for c in inside)
    assert counts() == two_threads
