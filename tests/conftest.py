import os
import shutil
import threading
import types

import pytest

from stochmann import schemes


@pytest.fixture
def cores(monkeypatch):
    """cores(k) makes schemes.rows_at see k available cores and split from
    one replica-step per thread on, so k = 1 forces the serial walk and
    k >= 2 the split over min(k, replicas) threads wherever the tile kernel
    steps.  Returns the list of the numbers of worker threads that each
    split of rows_at started since the last call."""
    pools = []
    last = [None]  # the last worker's function: one per split

    def counting_thread(target, args):
        if args[0] is not last[0]:
            last[0] = args[0]
            pools.append(0)
        pools[-1] += 1
        return threading.Thread(target=target, args=args)

    def force(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(schemes, "SPLIT_ELEMENTS", 1)
        monkeypatch.setattr(schemes, "threading",
                            types.SimpleNamespace(Thread=counting_thread))
        pools.clear()
        return pools

    return force


@pytest.fixture
def numpy_streams(monkeypatch):
    """Step every noise tile through advance's numpy body rather than the
    compiled mann_tile, as on a machine where the library cannot be built.
    The uniforms of substream_uniforms go through philox2x64 with or
    without it."""
    monkeypatch.setattr(schemes, "tile_library", lambda: None)


@pytest.fixture(scope="module")
def kernel():
    """The compiled library, which must build wherever the compiler exists."""
    if shutil.which(schemes._CC) is None:
        pytest.skip(f"no C compiler {schemes._CC!r}")
    assert schemes.tile_library() is not None
    return schemes.tile_library()
