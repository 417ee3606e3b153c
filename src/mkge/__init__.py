"""Rotation-based knowledge graph embeddings over complex and quaternion
modules, with a 1-vs-all training objective and filtered ranking evaluation.

Importing the package loads no submodule, and so not numpy: the `mkge`
command applies its thread cap before numpy starts its BLAS threads.
"""

import os

__version__ = "0.1.0"


def thread_cap():
    """The thread cap in the MKGE_THREADS environment variable, or None when
    it is unset or empty. It caps both the BLAS threads (set by the `mkge`
    command) and the training row-block pool. A value that is not a positive
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
