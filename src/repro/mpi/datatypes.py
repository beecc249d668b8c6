"""Message sizes (they drive the communication cost model)."""

from __future__ import annotations

import numpy as np


def sizeof(obj) -> int:
    """Approximate wire size in bytes of a message payload.

    O(1) for the payload shapes the runtime sends — numpy arrays
    (``.nbytes``) and shallow tuples of arrays; the element-wise
    recursion over deep lists/dicts is the legacy fallback only.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (float, int)):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, np.generic):
        return obj.itemsize  # numpy scalar (np.int64, np.complex128, ...)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return sum(sizeof(x) for x in obj) + 8
    if isinstance(obj, dict):
        return sum(sizeof(k) + sizeof(v) for k, v in obj.items()) + 8
    return 64  # opaque object: header-sized guess
