"""Rotation-based knowledge graph embeddings over complex and quaternion
modules, with a 1-vs-all training objective and filtered ranking evaluation.

Importing the package loads no submodule, and so not numpy: the `mkge`
command applies its thread cap before numpy starts its BLAS threads.
"""

import os
import threading

__version__ = "0.1.0"

_pool = None
_pool_lock = threading.Lock()


def thread_cap():
    """The thread cap in the MKGE_THREADS environment variable, or None when
    it is unset or empty. It caps both the BLAS threads (set by the `mkge`
    command) and the process's thread pool. A value that is not a positive
    integer raises ValueError."""
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


def thread_pool():
    """The process's one thread pool, started on first use: one worker per
    usable core, at most MKGE_THREADS. `map_blocks` is its one use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # kept out of `import mkge`

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
