"""Per-rank local-memory tracking.

The paper's closing argument (Section 7): "Translating MATLAB scripts
into parallel code has an additional, very important advantage: larger
problems can be solved.  It is infeasible for the MATLAB interpreter to
solve problems where the aggregate amount of data being manipulated
exceeds the primary memory capacity of a workstation.  In contrast, a
parallel computer may have far more primary memory."

To reproduce that claim quantitatively, every :class:`DMatrix` charges
its local block's bytes to the *current thread's* tracker (each
simulated rank is a thread) in its constructor and credits the same
tracker back in ``__del__`` — from fields stored on the descriptor, so
a matrix freed on another thread still credits the rank that created
it.  ``peak_local_bytes`` is then exactly the high-water mark of one
rank's share of distributed data — the quantity that must fit in one
node's memory.  (The deterministic full-array generation trick in
``RuntimeContext._create`` means real Python RSS does *not* reflect the
distribution; the tracker measures what a real per-node implementation
would hold.)
"""

from __future__ import annotations

import threading


class MemoryTracker:
    """Current/peak local bytes for one rank."""

    __slots__ = ("current", "peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def allocate(self, nbytes: int) -> None:
        self.current += nbytes
        if self.current > self.peak:
            self.peak = self.current

    def release(self, nbytes: int) -> None:
        self.current -= nbytes

    def reset(self) -> None:
        self.current = 0
        self.peak = 0


class _ThreadLocalTrackers(threading.local):
    def __init__(self) -> None:
        self.tracker: MemoryTracker | None = None


#: the calling thread's tracker is ``ACTIVE.tracker``; the matrix
#: constructors read it directly (the allocation path is the hottest
#: one in the runtime)
ACTIVE = _ThreadLocalTrackers()


def current_tracker() -> MemoryTracker | None:
    """The tracker installed for the calling rank's thread, if any."""
    return ACTIVE.tracker


def install_tracker(tracker: MemoryTracker | None) -> None:
    ACTIVE.tracker = tracker
