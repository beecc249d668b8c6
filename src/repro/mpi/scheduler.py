"""Cooperative lockstep scheduler for simulated SPMD ranks.

Letting every rank's carrier thread run whenever the OS pleases and
rendezvous on one condition variable would be correct, but each
collective becomes a double-barrier broadcast across GIL-contended
threads, aborts are only noticed by timeout polling, and a deadlock is
indistinguishable from a slow run (measured at twice this scheduler's
cost per collective at P=16; docs/PERFORMANCE_MODEL.md §8).

This module implements the discrete-event alternative: **exactly one
rank runs at a time**.  Each rank still owns a carrier thread (rank
programs are plain Python functions that block mid-stack), but execution
is gated by a per-rank *baton*.  A rank runs until it *blocks* — a
``recv`` with no matching message, or a collective that peers have not
reached — then parks itself and hands the baton to the next runnable
rank.  The peer that satisfies the wait (the matching ``send``, or the
last rank to arrive at the collective) marks the parked rank runnable
again.  Consequences:

* no lock stampedes and no spurious wakeups — every futex wake
  transfers control to exactly the thread that will run next;
* no timeout polling — a blocked rank sleeps until it is handed the
  baton (aborts release every baton);
* runs are **bit-deterministic**: the interleaving is a pure function
  of the program, so virtual clocks, message counts, and mailbox
  ordering cannot vary run to run;
* a cycle of blocked ranks is *detected*, not hung: when a rank parks
  and no rank is runnable, the scheduler reports the full wait graph
  as a :class:`DeadlockError` instead of waiting forever.

The baton is a raw ``_thread``-level lock used as a binary semaphore
(park = ``acquire``, handoff = ``release``): unlike ``threading.Event``
it needs no wrapping condition variable and no ``clear()`` round-trip —
``acquire`` leaves the lock held again — which keeps a handoff down to
one futex operation.  Handoff cost is the scheduler's figure of merit:
every blocking MPI operation of every rank pays it once.

The scheduler knows nothing about MPI semantics: the comm layer decides
*when* to block and *whom* to unblock; this module only moves the baton
and keeps the run queue.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

from ..errors import MpiError

#: wait-graph reports list every rank up to this world size; larger
#: worlds get the truncated cycle + census rendering (small-P reports —
#: everything the existing tests pin — are unchanged)
_WAIT_GRAPH_FULL_LIMIT = 32

#: truncated reports list at most this many blocked ranks beyond any
#: detected cycle (a P=1024 report must stay readable and O(1)-ish to
#: format)
WAIT_REPORT_LIMIT = 16

_DEADLOCK_HEADER = "deadlock: no simulated rank can make progress"

#: rank lifecycle states
READY = "ready"        # in the run queue, waiting for the baton
RUNNING = "running"    # holds the baton (at most one rank)
BLOCKED = "blocked"    # parked on a recv/collective until a peer acts
DONE = "done"          # program returned (or raised)


class DeadlockError(MpiError):
    """Every live rank is blocked on a peer: the run cannot progress."""


def find_wait_cycle(edges: dict) -> list:
    """Ranks on the first cycle of a wait graph (``waiter -> waited-on``
    single-successor edges: a parked recv names its one source).  Empty
    list when every chain dead-ends.  Deterministic: chains are chased
    from the lowest-numbered waiter up."""
    visited: set = set()
    for start in sorted(edges):
        if start in visited:
            continue
        index: dict = {}
        path: list = []
        node = start
        while node in edges and node not in index and node not in visited:
            index[node] = len(path)
            path.append(node)
            node = edges[node]
        visited.update(path)
        if node in index:
            return path[index[node]:]
    return []


class LockstepScheduler:
    """Run queue + baton handoff for one SPMD world.

    Thread-safety: the lockstep invariant means at most one carrier
    thread mutates scheduler state at a time, but handoff windows
    briefly overlap (the parking thread releases the next baton before
    it sleeps), so all state transitions take ``_lock``.  The lock is
    never held while sleeping.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self._lock = threading.Lock()
        # batons start held; a dispatch releases exactly one, and the
        # woken rank's acquire leaves it held again (self-resetting)
        self._batons = [threading.Lock() for _ in range(nprocs)]
        for baton in self._batons:
            baton.acquire()
        self._state = [READY] * nprocs
        #: why each rank is blocked (None when it is not): any object;
        #: str()-ed lazily, only when a deadlock report is built.  A
        #: send reads its receiver's entry to unpark an exact match.
        self.reason: list[Any] = [None] * nprocs
        self._run_queue: deque[int] = deque(range(nprocs))
        self._current: Optional[int] = None
        self._aborted = False
        #: called with a DeadlockError when the run queue empties while
        #: ranks are still blocked (wired to ``World.abort``)
        self.on_deadlock: Optional[Callable[[BaseException], None]] = None
        #: builds the no-progress exception from the wait-graph report;
        #: the executor swaps in MpiTimeoutError when a fault plan
        #: configures a virtual-clock timeout (a run that cannot
        #: progress has, a fortiori, exceeded any finite patience)
        self.deadlock_factory: Callable[[str], BaseException] = DeadlockError
        #: observability: number of baton handoffs performed
        self.handoffs = 0
        #: optional :class:`~repro.trace.WorldTrace` receiving advisory
        #: park notes (host time only; never canonical trace content)
        self.trace: Optional[Any] = None
        #: held until every rank is done or the world aborts
        self.finished = threading.Lock()
        self.finished.acquire()

    # -- lifecycle ------------------------------------------------------ #

    def kickoff(self) -> None:
        """Hand the baton to the first ready rank (call once, before the
        carrier threads run their programs)."""
        with self._lock:
            self._dispatch_locked()

    def start_rank(self, rank: int) -> None:
        """Park the carrier thread until this rank first gets the baton
        (or the world aborts — the caller re-checks abort state)."""
        self._wait_for_baton(rank)

    def finish_rank(self, rank: int) -> None:
        """The rank's program returned or raised: retire it and pass the
        baton on."""
        with self._lock:
            self._state[rank] = DONE
            self.reason[rank] = None
            if self._current == rank:
                self._current = None
            self._dispatch_locked()

    def abort(self) -> None:
        """Wake every parked rank so it can observe the world's abort."""
        with self._lock:
            self._abort_locked()

    def wait_graph(self, header: str) -> str:
        """Who is running and who is parked on what, right now — the
        watchdog's post-mortem (a deadlock report is the same rendering
        taken at the instant the run queue emptied)."""
        with self._lock:
            return self._wait_graph_locked(header)

    # -- blocking and handoff ------------------------------------------- #

    def block(self, rank: int, reason: Any) -> None:
        """Park the calling rank until a peer calls :meth:`unblock`.

        ``reason`` describes the wait; it is stringified only if a
        deadlock report needs it.
        """
        with self._lock:
            if self._aborted:
                return
            self._state[rank] = BLOCKED
            self.reason[rank] = reason
            if self.trace is not None:
                self.trace.sched_note(
                    rank, reason[0] if isinstance(reason, tuple)
                    else str(reason))
            if self._current == rank:
                self._current = None
            self._dispatch_locked()
        self._wait_for_baton(rank)

    def unblock(self, rank: int) -> None:
        """Mark a parked rank runnable (it runs when it gets the baton)."""
        with self._lock:
            if self._state[rank] == BLOCKED:
                self._state[rank] = READY
                self.reason[rank] = None
                self._run_queue.append(rank)

    def unblock_all(self, rank: int) -> None:
        """Mark every parked rank but ``rank`` runnable, in rank order."""
        with self._lock:
            for peer in range(self.nprocs):
                if peer != rank and self._state[peer] == BLOCKED:
                    self._state[peer] = READY
                    self.reason[peer] = None
                    self._run_queue.append(peer)

    # -- internals ------------------------------------------------------ #

    def _wait_for_baton(self, rank: int) -> None:
        baton = self._batons[rank]
        while True:
            baton.acquire()
            if self._aborted or self._current == rank:
                return
            # stale wake (abort raced a normal handoff): wait again

    def _dispatch_locked(self) -> None:
        """Hand the baton to the next ready rank; detect deadlock if the
        queue is empty while ranks are still blocked."""
        if self._aborted:
            return
        while self._run_queue:
            nxt = self._run_queue.popleft()
            if self._state[nxt] != READY:
                continue  # retired while queued
            self._state[nxt] = RUNNING
            self._current = nxt
            self.handoffs += 1
            self._batons[nxt].release()
            return
        blocked = [r for r in range(self.nprocs)
                   if self._state[r] == BLOCKED]
        if blocked:
            error = self.deadlock_factory(self._wait_graph_locked())
            self._abort_locked()
            if self.on_deadlock is not None:
                self.on_deadlock(error)
        else:
            self.finished.release()     # every rank is done

    def _abort_locked(self) -> None:
        if self._aborted:
            return
        self._aborted = True
        for baton in (*self._batons, self.finished):
            # wake parked ranks and the executor (a running rank, or a
            # finished run, makes this a double release)
            try:
                baton.release()
            except RuntimeError:
                pass

    def _wait_graph_locked(self, header: str = _DEADLOCK_HEADER) -> str:
        header += "\n  "
        if self.nprocs <= _WAIT_GRAPH_FULL_LIMIT:
            lines = []
            for rank in range(self.nprocs):
                state = self._state[rank]
                if state == BLOCKED:
                    lines.append(f"rank {rank}: blocked in "
                                 f"{_format_reason(self.reason[rank])}")
                else:
                    lines.append(f"rank {rank}: {state}")
            return header + "\n  ".join(lines)
        # large worlds: a P=1024 report listing every rank would be
        # unreadable (and O(P) strings to build) — show any recv wait
        # cycle, the first WAIT_REPORT_LIMIT blocked ranks, and a
        # per-state census for the rest
        edges = {}
        blocked = []
        census: dict[str, int] = {}
        for rank in range(self.nprocs):
            state = self._state[rank]
            census[state] = census.get(state, 0) + 1
            if state != BLOCKED:
                continue
            blocked.append(rank)
            reason = self.reason[rank]
            if isinstance(reason, tuple) and reason[0] == "recv":
                edges[rank] = reason[1]
        lines = []
        cycle = find_wait_cycle(edges)
        if cycle:
            lines.append("recv cycle: "
                         + " -> ".join(str(r) for r in cycle + [cycle[0]]))
        on_cycle = set(cycle)
        rest = [r for r in blocked if r not in on_cycle]
        shown = rest[:WAIT_REPORT_LIMIT]
        for rank in cycle + shown:
            lines.append(f"rank {rank}: blocked in "
                         f"{_format_reason(self.reason[rank])}")
        if len(rest) > len(shown):
            lines.append(f"... and {len(rest) - len(shown)} more "
                         f"blocked ranks")
        lines.append("states: " + ", ".join(
            f"{state}={census[state]}" for state in sorted(census)))
        return header + "\n  ".join(lines)


def _format_reason(reason: Any) -> str:
    """Render a park reason record (built lazily: the park hot path
    stores a tuple; formatting happens only in a deadlock report)."""
    if isinstance(reason, tuple):
        what = reason[0]
        if what == "recv":
            _, source, tag = reason
            return f"recv(source={source}, tag={tag})"
        if what == "collective":
            _, op, arrived, total = reason
            return f"{op or 'collective'} ({arrived}/{total} arrived)"
        head, *detail = reason
        return f"{head}({', '.join(str(d) for d in detail)})"
    return str(reason)
