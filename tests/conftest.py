import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mkge


@pytest.fixture(scope="session")
def thread_pools():
    """Pools of 1, 2 and 8 workers to stand in for the process's pool."""
    pools = {n: ThreadPoolExecutor(n) for n in (1, 2, 8)}
    yield pools
    for pool in pools.values():
        pool.shutdown()


@pytest.fixture
def pool_runs(monkeypatch, thread_pools):
    """runs(run) calls run() with the process's pool set to 1, 2 and 8
    workers in turn and returns the byte strings of its arrays. The 8-worker
    call runs under a 1 us switch interval, so that threads interleave at a
    fine grain; a lost or misplaced write would change the bytes."""

    def runs(run):
        results = []
        for n in (1, 2, 8):
            monkeypatch.setattr(mkge, "_pool", thread_pools[n])
            interval = sys.getswitchinterval()
            try:
                sys.setswitchinterval(1e-6 if n == 8 else interval)
                results.append(b"".join(np.ascontiguousarray(a).tobytes() for a in run()))
            finally:
                sys.setswitchinterval(interval)
        return results

    return runs
