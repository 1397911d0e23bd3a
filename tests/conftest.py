import os

import pytest

from stochmann import montecarlo


@pytest.fixture
def cores(monkeypatch):
    """cores(k) makes replica_errors see k available cores and split from
    one replica-step per process on, so k = 1 forces the serial pass and
    k >= 2 the split into min(k, replicas) processes.  Returns the list of
    the sizes of the pools that replica_errors made since the last call."""
    real = os.sched_getaffinity(0)
    pools = []
    make_pool = montecarlo._pool

    def counting_pool(processes):
        pool = make_pool(processes)
        if pool is not None:
            pools.append(processes)
        return pool

    def force(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(montecarlo, "SPLIT_ELEMENTS", 1)
        monkeypatch.setattr(montecarlo, "_pool", counting_pool)
        pools.clear()
        return pools

    yield force
    # replica_errors restores the affinity it read, which here was patched
    os.sched_setaffinity(0, real)
