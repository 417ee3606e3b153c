"""Rotation-based knowledge graph embeddings over complex and quaternion
modules, with a 1-vs-all training objective and filtered ranking evaluation.

Importing the package loads no submodule, and so not numpy, and caps the BLAS
threads at MKGE_THREADS, which holds if numpy loads later, as in the command.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__version__ = "0.1.0"

_pool = None
_pool_lock = threading.Lock()


def thread_cap():
    """The thread cap in the MKGE_THREADS environment variable, or None when
    it is unset or empty. It caps both the BLAS threads (set at `import mkge`)
    and the process's thread pool. A value that is not a positive integer
    raises ValueError."""
    value = os.environ.get("MKGE_THREADS", "")
    if not value:
        return None
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MKGE_THREADS must be a positive integer, got {value!r}")
    return cap


def _cap_blas_threads():
    try:
        cap = thread_cap()
    except ValueError:  # `import mkge` raises nothing; `thread_pool` and the command report it
        return
    if cap is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(cap))


_cap_blas_threads()


def thread_pool():
    """The process's one thread pool, started on first use: one worker per
    usable core, at most MKGE_THREADS. `map_blocks` is its one use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                cores = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(min(cores, thread_cap() or cores),
                                       thread_name_prefix="mkge")
        return _pool


def map_blocks(fn, n, step):
    """Start fn(slice) on the thread pool for the consecutive slices of
    [0, n), each `step` long but the last, and return an iterator over their
    results in block order. Reading a result waits for its block and
    re-raises its exception, so a caller reads every result before it uses
    what the blocks wrote. A task on the pool must not call this: with every
    worker waiting, nothing would run the blocks."""
    blocks = [slice(lo, min(n, lo + step)) for lo in range(0, n, step)]
    return thread_pool().map(fn, blocks)
