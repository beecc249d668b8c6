"""Simulated MPI: communicator, point-to-point, and collectives.

Each SPMD rank runs on its own carrier thread (see
:mod:`repro.mpi.executor`).  Data moves through in-process mailboxes and
rendezvous slots — real values, really exchanged, so compiled programs
compute real answers.  *Time*, however, is virtual: every rank owns a
clock, computation charges it through the machine's
:class:`~repro.mpi.machine.MachineModel`, and every communication
operation advances/synchronizes clocks according to the model's
latency/bandwidth/topology.  Reported speedups are ratios of virtual
times, which is what lets a laptop reproduce the shape of the paper's
Meiko CS-2 / SMP / Ethernet-cluster results.

A cooperative scheduler (:mod:`repro.mpi.scheduler`) gates the carrier
threads so exactly one rank runs at a time; blocking operations park
the rank and hand off, so there are no locks on the hot path, no
condvar broadcasts, no timeout polling, and runs are bit-deterministic.
(The ``fused`` backend, :mod:`repro.mpi.fused`, reuses :class:`World`
as its clock/statistics container and runs no carrier threads at all.)

The surface is what the generated code and the run-time library speak:
blocking ``send``/``recv`` matched exactly on ``(source, tag)``,
``sendrecv`` for neighbour shifts, and the collectives ``barrier``,
``bcast``, ``allreduce``, ``allgather``, ``alltoall`` and ``exscan``.
An op body written once for both backends calls each collective
through a form that takes one entry per rank it holds (``fold``,
``combine``, ``collect``, ``exchange``, ``route``, ``prefixes``; here
one rank's, under :class:`~repro.mpi.fused.FusedComm` all P).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

import numpy as np

from ..errors import MpiCorruptionError, MpiError, MpiRetryExhaustedError, \
    MpiTimeoutError
from .datatypes import sizeof
from .faults import FaultState, payload_checksum
from .machine import MachineModel
from .recovery import MAX_RETRIES, RTO_FACTOR, retry_backoff


# -- reduction operators ---------------------------------------------------


def _op_sum(a, b):
    return a + b


def _op_prod(a, b):
    return a * b


# MAX/MIN are ``np.maximum``/``np.minimum`` for Python numbers too: a NaN
# on either side is the result (builtin ``max`` keeps a NaN only in
# first position, so the answer would depend on which rank holds it),
# and which zero wins a ``0.0``/``-0.0`` tie is numpy's choice here as
# in the array arm and in the fused backend's ``accumulate`` fold.


def _op_max(a, b):
    both = np.maximum(a, b)
    return both if isinstance(both, np.ndarray) else both.item()


def _op_min(a, b):
    both = np.minimum(a, b)
    return both if isinstance(both, np.ndarray) else both.item()


def _op_land(a, b):
    return np.logical_and(a, b).astype(float) if isinstance(a, np.ndarray) \
        else float(bool(a) and bool(b))


def _op_lor(a, b):
    return np.logical_or(a, b).astype(float) if isinstance(a, np.ndarray) \
        else float(bool(a) or bool(b))


SUM: Callable = _op_sum
PROD: Callable = _op_prod
MAX: Callable = _op_max
MIN: Callable = _op_min
LAND: Callable = _op_land
LOR: Callable = _op_lor


#: payload classes whose wire size the class alone decides
_FIXED_SIZE = (float, int, complex, type(None))


def _largest(slots: list) -> int:
    """``max(sizeof(s) for s in slots)`` — what a collective's price
    reads off the ranks' contributions — with one size computation when
    every slot has the first one's class (and, for arrays, its shape
    and dtype), as the contributions of one collective usually do; the
    general fold otherwise."""
    first = slots[0]
    kind = first.__class__
    if kind is np.ndarray:
        shape, dtype = first.shape, first.dtype
        for slot in slots:
            if slot.__class__ is not np.ndarray or slot.shape != shape \
                    or slot.dtype != dtype:
                break
        else:
            return first.nbytes
    elif kind in _FIXED_SIZE:
        for slot in slots:
            if slot.__class__ is not kind:
                break
        else:
            return sizeof(first)
    return max(sizeof(s) for s in slots)


class _Abort(MpiError):
    """Raised inside blocked ranks when another rank fails."""


class World:
    """Shared state of one SPMD execution.

    ``scheduler`` is the :class:`~repro.mpi.scheduler.LockstepScheduler`
    gating the rank threads (``None`` only for the fused backend's
    container world, which never blocks).  Exactly one rank runs at a
    time, so shared state is mutated without a lock; only the set-once
    ``aborted`` flag, which the watchdog thread may also write, has one.
    """

    def __init__(self, nprocs: int, machine: MachineModel, scheduler=None,
                 fault_plan=None, trace=None, fault_state=None,
                 recovery=None, start_time: float = 0.0):
        if nprocs < 1:
            raise MpiError("need at least one process")
        if nprocs > machine.max_cpus:
            raise MpiError(
                f"{machine.name} has only {machine.max_cpus} CPUs "
                f"(asked for {nprocs})")
        self.nprocs = nprocs
        self.machine = machine
        self.scheduler = scheduler
        #: optional :class:`~repro.trace.recorder.WorldTrace`; when set,
        #: each rank's Comm caches its own recorder and the substrate
        #: records events (None: every trace hook is one dead branch)
        self.trace = trace
        #: cross-attempt recovery state
        #: (:class:`~repro.mpi.recovery.ActiveRecovery`) when a
        #: non-abort ``on_fault`` policy is active, else ``None`` —
        #: the retry loop and checkpoint hook both key off this
        self.recovery = recovery
        # chaos: a seeded FaultPlan makes every send/recv/sync consult
        # FaultState; a plan with no injectable rules costs nothing.
        # A restart attempt passes the *carried* fault_state so fired
        # one-shot rules stay consumed across the replay.
        self.faults: Optional[FaultState] = None
        self.virtual_timeout: Optional[float] = None
        if fault_plan is not None:
            self.virtual_timeout = fault_plan.virtual_timeout
            if fault_state is not None:
                self.faults = fault_state
            elif fault_plan.has_faults:
                self.faults = FaultState(fault_plan, nprocs)
        if self.faults is not None:
            if trace is not None:
                # injected-fault events join the trace stream (the
                # CLI echoes to stderr only when no recorder exists)
                recorders = trace.recorders
                self.faults.sink = (
                    lambda rank, text, now:
                    recorders[rank].fault(text, now))
            else:
                # a carried fault_state may still point at a discarded
                # attempt's recorders
                self.faults.sink = None
        #: uniform clock base of this execution attempt (0.0 except on
        #: recovery restarts, where it encodes the failed prefix +
        #: restart overhead - checkpoint credit)
        self.start_time = float(start_time)
        #: per-rank virtual clocks.  A rank-indexed float64 array so the
        #: fused backend can charge all P ranks with one vector
        #: expression; scalar indexing (``clocks[r] += dt``) keeps the
        #: lockstep per-rank view and is bit-identical to the old
        #: Python-list arithmetic (IEEE float64 either way).
        self.clocks = np.full(nprocs, self.start_time, dtype=np.float64)
        self._abort_lock = threading.Lock()
        # (src, dst, tag) -> deque of (payload, arrival_time, nbytes,
        # checksum); the wire size is computed once at send time and
        # carried with the message so receive-side accounting never
        # re-walks payloads; checksum is None unless faults are active
        self.mailboxes: dict[tuple[int, int, int], deque] = {}
        self.aborted: Optional[BaseException] = None
        # collective rendezvous state
        self._slots: list[Any] = [None] * nprocs
        self._coll_result: Any = None
        self._coll_time: float = 0.0
        self._coll_tmax: float = 0.0  # rendezvous instant, pre-cost
        #: payload size of the current collective, published by each
        #: combine closure for the trace layer (exactly the value fed to
        #: ``collective_time``, so every backend reports the same bytes)
        self._coll_nbytes: int = 0
        self._arrived = 0
        # message statistics (observability / tests): rank-indexed
        # primaries so the fused backend can bump all P ranks at once;
        # the scalar totals everyone reads are properties over these.
        self.rank_messages = np.zeros(nprocs, dtype=np.int64)
        self.rank_bytes = np.zeros(nprocs, dtype=np.int64)
        self.rank_collectives = np.zeros(nprocs, dtype=np.int64)
        #: message re-sends by the recovery layer (zero unless a
        #: non-abort on_fault policy healed a drop/corrupt fault)
        self.rank_retries = np.zeros(nprocs, dtype=np.int64)
        self.collectives = 0
        self.collective_counts: dict[str, int] = {}

    @property
    def messages_sent(self) -> int:
        """Total messages across ranks (sum of ``rank_messages``)."""
        return int(self.rank_messages.sum())

    @property
    def bytes_sent(self) -> int:
        """Total payload bytes across ranks (sum of ``rank_bytes``)."""
        return int(self.rank_bytes.sum())

    # ------------------------------------------------------------------ #

    def abort(self, exc: BaseException) -> None:
        with self._abort_lock:
            if self.aborted is None:
                self.aborted = exc

    def _check_abort(self) -> None:
        if self.aborted is not None:
            raise _Abort(f"peer rank failed: {self.aborted!r}")

    def _count(self, op: str) -> None:
        """Tally one collective by name.  Callers run under the
        lockstep baton or are the only rank — so a plain increment is
        race-free everywhere it is used."""
        self.collective_counts[op] = self.collective_counts.get(op, 0) + 1

    def _check_virtual_timeout(self, rank: int, waited: float,
                               what: str) -> None:
        """Raise if a rank's simulated wait exceeded the plan's timeout."""
        if waited > self.virtual_timeout:
            raise MpiTimeoutError(
                f"rank {rank} timed out in {what}: waited {waited:.9g}s "
                f"virtual (timeout {self.virtual_timeout:.9g}s)")

    # ------------------------------------------------------------------ #
    # rendezvous: every rank calls sync(contribute, combine);
    # `combine(slots, tmax)` runs on exactly one rank (the last to
    # arrive) and returns the (shared result, new common clock).
    # Collective accounting is folded into the rendezvous itself: the
    # combining rank tallies `op`, so no caller takes a separate lock
    # round-trip just to bump a counter.
    # ------------------------------------------------------------------ #

    def _run_combine(self, combine: Callable, op: Optional[str]) -> None:
        """All contributions are in: run ``combine`` exactly once and
        publish the result."""
        self._coll_nbytes = 0  # combines that price bytes re-publish
        tmax = float(self.clocks.max())
        result, tnew = combine(list(self._slots), tmax)
        self._coll_result = result
        self._coll_time = tnew
        self._coll_tmax = tmax
        self._arrived = 0
        self.collectives += 1
        self.rank_collectives += 1
        if op is not None:
            self._count(op)
        if self.recovery is not None:
            self.recovery.at_collective(self, tnew)

    def sync(self, rank: int, contribution: Any,
             combine: Callable[[list, float], tuple[Any, float]],
             op: Optional[str] = None, rec=None, line: int = 0):
        """Single-runner rendezvous: no locks, no broadcast, no polling.

        Early ranks park; the last rank to arrive runs ``combine`` once
        and unparks everyone.  A parked rank reads the published result
        as its first action on resume, which happens-before any rank
        can complete the *next* collective (that would require this rank
        to have arrived there first), so one result slot suffices and no
        departure barrier is needed.

        ``rec``/``line`` are the calling rank's trace recorder and
        current source line (``None``/0 when tracing is off or
        suspended) — passed by value so a suspended recorder really
        records nothing.
        """
        if self.faults is not None:
            self.faults.check_crash(rank, op or "collective",
                                    self.clocks[rank])
        if self.aborted is not None:
            self._check_abort()
        self._slots[rank] = contribution
        self._arrived += 1
        if self._arrived < self.nprocs:
            # reason is a lazy record; only a deadlock report formats it
            self.scheduler.block(
                rank, ("collective", op, self._arrived, self.nprocs))
            if self.aborted is not None:
                self._check_abort()
        else:
            self._run_combine(combine, op)
            self._slots = [None] * self.nprocs
            self.scheduler.unblock_all(rank)
        if self.virtual_timeout is not None:
            self._check_virtual_timeout(
                rank, self._coll_tmax - self.clocks[rank], op or "collective")
        t0 = self.clocks[rank]
        self.clocks[rank] = max(t0, self._coll_time)
        if rec is not None:
            rec.collective(op or "collective", line, t0,
                           self.clocks[rank] - t0, self._coll_nbytes)
        return self._coll_result


class Comm:
    """One rank's view of the communicator."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.nprocs
        self.machine = world.machine
        #: the bus slowdown of memory-bound work at this run's ``size``
        #: (:meth:`MachineModel.memory_scale`, fixed for the run)
        self._scale = world.machine.memory_scale(world.nprocs)
        #: current MATLAB source line (generated code stores line markers
        #: here; plain attribute, so the disabled-tracing cost is one
        #: store per marked statement)
        self.line = 0
        #: this rank's trace recorder, or None (tracing off/suspended);
        #: every hook below guards on this single cached reference
        self._rec = None if world.trace is None \
            else world.trace.recorders[rank]
        #: (next rank, previous rank) around the ring: :meth:`ring_step`
        self._ring = ((rank + 1) % self.size, (rank - 1) % self.size)

    # -- virtual time --------------------------------------------------- #

    @property
    def time(self) -> float:
        return self.world.clocks[self.rank]

    def clock_snapshot(self) -> float:
        """What ``tic``/``toc`` read: this rank's clock (a
        :class:`~repro.mpi.fused.FusedComm`'s is every rank's, a
        list)."""
        return self.world.clocks[self.rank]

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise MpiError("cannot advance the clock backwards")
        self.world.clocks[self.rank] += dt
        if self._rec is not None:
            self._rec.charge(self.line, dt)

    def compute(self, flops: int = 0, elems: int = 0, mem: int = 0) -> None:
        """Charge local computation to this rank's clock."""
        cpu = self.machine.cpu
        scale = self._scale
        # MachineModel.compute_time's terms, in its order
        dt = (flops * cpu.flop_time + elems * cpu.elem_time * scale
              + mem * cpu.mem_time * scale)
        if self._rec is not None and dt > 0.0:
            self._rec.compute(self.line, self.world.clocks[self.rank], dt)
        self.advance(dt)

    #: "charge each rank its own load" — what an op body written once
    #: for both descriptors calls with ``mat.load``: this rank's ``int``
    #: here, every rank's under :class:`~repro.mpi.fused.FusedComm`
    compute_own = compute

    def own(self, loads: list) -> int:
        """The load ``compute_own``/``charge`` bill, out of a list with
        one entry per rank an op body holds — here one, this rank's
        (the data-dependent loads a ``mat.load`` cannot name)."""
        return loads[0]

    def overhead(self, calls: int = 1) -> None:
        """Charge run-time-library call overhead."""
        if self._rec is not None:
            self._rec.calls(self.line, calls)
        self.advance(calls * self.machine.cpu.call_overhead)

    def user_call(self) -> None:
        """Tally a call of a user (M-file) function on the calling line:
        one call in the trace's line profile and nothing on the clock
        (the callee's statements charge their own work)."""
        if self._rec is not None:
            self._rec.calls(self.line, 1)

    def charge(self, flops: int = 0, elems: int = 0, mem: int = 0) -> None:
        """One run-time-library call and its local work: exactly
        ``overhead()`` then ``compute_own(flops, elems, mem)`` — the
        same two clock additions and trace hooks, in the same order —
        in one frame."""
        clocks = self.world.clocks
        rank = self.rank
        rec = self._rec
        line = self.line
        cpu = self.machine.cpu
        dt = cpu.call_overhead
        if rec is not None:
            rec.calls(line, 1)
        if dt < 0:
            raise MpiError("cannot advance the clock backwards")
        clocks[rank] += dt
        if rec is not None:
            rec.charge(line, dt)
        scale = self._scale
        dt = (flops * cpu.flop_time + elems * cpu.elem_time * scale
              + mem * cpu.mem_time * scale)
        if dt < 0:
            raise MpiError("cannot advance the clock backwards")
        if rec is not None and dt > 0.0:
            rec.compute(line, clocks[rank], dt)
        clocks[rank] += dt
        if rec is not None:
            rec.charge(line, dt)

    # -- tracing -------------------------------------------------------- #

    def trace_io(self, nbytes: int) -> None:
        """Record a program-output event (rank 0 writes on every backend)."""
        if self._rec is not None:
            self._rec.io(self.line, self.world.clocks[self.rank], nbytes)

    # -- point-to-point -------------------------------------------------- #

    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise MpiError(f"invalid {what} rank {rank}")

    def _check_tag(self, tag: int) -> None:
        """Tags are nonnegative integers, as in MPI."""
        if not isinstance(tag, (int, np.integer)) or isinstance(tag, bool) \
                or tag < 0:
            raise MpiError(
                f"invalid tag {tag!r}: tags must be nonnegative integers")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest, "destination")
        self._check_tag(tag)
        self._send(obj, dest, tag)

    def _send(self, obj: Any, dest: int, tag: int) -> None:
        """:meth:`send` past its argument checks."""
        nbytes = sizeof(obj)
        world = self.world
        if world.aborted is not None:
            world._check_abort()
        # unpark the receiver iff it is parked on exactly this message
        # (a send to self never finds the sender parked)
        if self._post_message(obj, dest, tag, nbytes) and \
                world.scheduler.reason[dest] == ("recv", self.rank, tag):
            world.scheduler.unblock(dest)

    def _post_message(self, obj: Any, dest: int, tag: int,
                      nbytes: int) -> bool:
        """Charge the sender, enqueue the message, update statistics.

        Returns False when a fault rule dropped the message (the sender
        is charged either way — it cannot tell the wire lost it)."""
        world = self.world
        faults = world.faults
        rec = self._rec
        checksum = None
        copies = 1
        extra_delay = 0.0
        delivered = True
        if faults is not None:
            faults.check_crash(self.rank, "send", world.clocks[self.rank])
            recovery = world.recovery
            retrying = recovery is not None
            attempt = 0
            penalty = 0.0
            while True:
                fate = faults.on_message(
                    self.rank, dest, tag, nbytes,
                    world.clocks[self.rank] + penalty, obj)
                if not retrying or (fate.deliver and not fate.corrupted):
                    break
                if attempt >= MAX_RETRIES:
                    raise MpiRetryExhaustedError(
                        f"rank {self.rank} -> rank {dest} (tag {tag}, "
                        f"{nbytes} B): retry budget exhausted after "
                        f"{MAX_RETRIES} re-sends — "
                        f"every attempt was "
                        f"{'corrupted' if fate.deliver else 'dropped'}")
                # the simulated transport notices the failure — ack
                # timeout for a drop, checksum NACK for corruption —
                # and re-sends with seeded exponential backoff.  The
                # lost attempt is charged honestly: its bytes crossed
                # (or tried to cross) the wire, and the detection +
                # backoff latency delays the eventual delivery.
                penalty += self._retry_cost(dest, nbytes, fate,
                                            attempt, recovery, faults)
                attempt += 1
            obj = fate.payload
            checksum = fate.checksum
            copies = fate.copies
            extra_delay = fate.extra_delay + penalty
            delivered = fate.deliver
        t_send = world.clocks[self.rank]
        # the link's p2p_time (its shared-medium division needs
        # concurrent transfers; one message has none)
        link = self.machine.link_between(self.rank, dest)
        arrival = t_send + (link.latency + nbytes / link.bandwidth) \
            + extra_delay
        # buffered send: sender is occupied for the injection overhead
        world.clocks[self.rank] = t_send + link.latency * 0.5
        world.rank_messages[self.rank] += 1
        world.rank_bytes[self.rank] += nbytes
        if rec is not None:
            rec.send(self.line, t_send, world.clocks[self.rank] - t_send,
                     dest, tag, nbytes)
        if not delivered:
            return False
        key = (self.rank, dest, tag)
        queue = world.mailboxes.setdefault(key, deque())
        for _ in range(copies):
            queue.append((obj, arrival, nbytes, checksum))
        if copies > 1:
            # the duplicate crossed the wire too: accounted explicitly,
            # never silently
            world.rank_messages[self.rank] += copies - 1
            world.rank_bytes[self.rank] += nbytes * (copies - 1)
            if rec is not None:
                rec.extra_copies(self.line, copies - 1,
                                 nbytes * (copies - 1))
        return True

    def _retry_cost(self, dest: int, nbytes: int, fate, attempt: int,
                    recovery, faults: FaultState) -> float:
        """Account one failed send attempt and price its recovery.

        Returns the virtual seconds between the failed attempt and the
        re-send: the transport's detection latency (an ack timeout of
        ``RTO_FACTOR`` link latencies for a drop; a full payload
        crossing plus a NACK hop for corruption — the mangled bytes
        *did* travel) plus seeded exponential backoff.  The failed
        attempt's wire traffic is charged to the per-rank accounting
        arrays, and the retry is logged to the fault event stream and
        the trace."""
        world = self.world
        rank = self.rank
        link = self.machine.link_between(rank, dest)
        if fate.deliver:    # corrupted: payload crossed, NACK came back
            detect = self.machine.p2p_time(rank, dest, nbytes) \
                + link.latency
            why = "corrupt"
        else:               # dropped: the sender's ack timer fired
            detect = RTO_FACTOR * link.latency
            why = "drop"
        backoff = retry_backoff(faults.plan.seed, rank,
                                recovery.next_retry_seq(rank), attempt,
                                link.latency)
        cost = detect + backoff
        world.rank_messages[rank] += 1
        world.rank_bytes[rank] += nbytes
        world.rank_retries[rank] += 1
        now = world.clocks[rank]
        faults._log(rank, f"retry {why} rank {rank}->rank {dest} "
                          f"attempt={attempt + 1} cost={cost:.9g}", now)
        recovery.note(f"retry {why} rank {rank}->rank {dest} "
                      f"attempt={attempt + 1} cost={cost:.9g}")
        rec = self._rec
        if rec is not None:
            rec.recovery("retry", now, dest=dest, cause=why,
                         attempt=attempt + 1, cost=cost, bytes=nbytes)
        return cost

    def recv(self, source: int, tag: int = 0) -> Any:
        """Take the oldest message from ``source`` with ``tag``, parking
        until one is posted; verify its integrity and charge the receive
        clock (raising if the virtual wait exceeded the plan's timeout —
        the rank would have given up before the data came)."""
        self._check_rank(source, "source")
        self._check_tag(tag)
        return self._recv(source, tag)

    def _recv(self, source: int, tag: int) -> Any:
        """:meth:`recv` past its argument checks."""
        world = self.world
        if world.faults is not None:
            world.faults.check_crash(self.rank, "recv",
                                     world.clocks[self.rank])
        key = (source, self.rank, tag)
        while True:
            if world.aborted is not None:
                world._check_abort()
            queue = world.mailboxes.get(key)
            if queue:
                break
            world.scheduler.block(self.rank, ("recv", source, tag))
        obj, arrival, nbytes, checksum = queue.popleft()
        if not queue:
            del world.mailboxes[key]
        me = world.clocks[self.rank]
        if world.virtual_timeout is not None:
            world._check_virtual_timeout(
                self.rank, arrival - me, f"recv(source={source}, tag={tag})")
        if checksum is not None and payload_checksum(obj) != checksum:
            raise MpiCorruptionError(
                f"message from rank {source} to rank {self.rank} "
                f"(tag {tag}, {nbytes} B) failed its integrity check: "
                f"payload corrupted in transit")
        world.clocks[self.rank] = max(me, arrival)
        if self._rec is not None:
            self._rec.recv(self.line, me, max(0.0, arrival - me),
                           source, tag, nbytes)
        return obj

    def sendrecv(self, obj: Any, dest: int, *, source: int,
                 sendtag: int = 0, recvtag: int = 0) -> Any:
        # validate both halves, the receive half first, before the
        # send half posts
        self._check_rank(source, "source")
        self._check_tag(recvtag)
        self._check_rank(dest, "destination")
        self._check_tag(sendtag)
        if dest == self.rank == source:
            return obj  # self-exchange: no wire traffic
        self._send(obj, dest, sendtag)
        return self._recv(source, recvtag)

    def ring_step(self, obj: Any, forward: bool) -> Any:
        """The run time's ring shift (``P > 1``): :meth:`sendrecv` of
        ``obj`` on tag 0 to the next rank (``forward``) or the previous
        one, past the argument checks — its neighbours are valid by
        construction.  Faults, retries, checksums, crash checks, the
        virtual timeout and the trace hooks apply as to any message."""
        dest, source = self._ring if forward else self._ring[::-1]
        self._send(obj, dest, 0)
        return self._recv(source, 0)

    # -- collectives ------------------------------------------------------ #

    def barrier(self) -> None:
        cost = self.machine.collective_time("barrier", 0, self.size)

        def combine(slots, tmax):
            return None, tmax + cost

        self.world.sync(self.rank, None, combine, op="barrier",
                        rec=self._rec, line=self.line)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if not (0 <= root < self.size):
            raise MpiError(f"invalid root {root}")
        if self.size == 1:
            self.world._count("bcast")
            if self._rec is not None:
                self._rec.collective("bcast", self.line,
                                     self.world.clocks[self.rank], 0.0,
                                     sizeof(obj))
            return obj
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            payload = slots[root]
            nbytes = sizeof(payload)
            world._coll_nbytes = nbytes
            cost = machine.collective_time("bcast", nbytes, size)
            return payload, tmax + cost

        return self.world.sync(self.rank, obj if self.rank == root else None,
                               combine, op="bcast",
                               rec=self._rec, line=self.line)

    def allreduce(self, obj: Any, op: Callable = SUM) -> Any:
        if self.size == 1:
            self.world._count("allreduce")
            if self._rec is not None:
                self._rec.collective("allreduce", self.line,
                                     self.world.clocks[self.rank], 0.0,
                                     sizeof(obj))
            return obj
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            acc = slots[0]
            for item in slots[1:]:
                acc = op(acc, item)
            nbytes = _largest(slots)
            world._coll_nbytes = nbytes
            cost = machine.collective_time("allreduce", nbytes, size)
            # reduction arithmetic itself: log2(P) combining steps
            elems = nbytes / 8.0
            cost += int(np.ceil(np.log2(size))) * elems * machine.cpu.elem_time
            return acc, tmax + cost

        return self.world.sync(self.rank, obj, combine, op="allreduce",
                               rec=self._rec, line=self.line)

    def fold(self, parts: np.ndarray, op: Callable = SUM) -> Any:
        """The total of every rank's partial, combined in rank order —
        ``parts`` has the rank axis first, here one row, this rank's:
        its allreduce (a Python number for a scalar partial).  What an
        op body written once for both communicators calls
        (:meth:`FusedComm.fold <repro.mpi.fused.FusedComm.fold>` folds
        all P rows)."""
        return self.allreduce(parts[0] if parts.ndim > 1 else parts.item(),
                              op)

    def combine(self, items: list, op: Callable) -> Any:
        """``op`` — any two-argument Python function — folded over every
        rank's item in rank order, from one item per rank held (here
        this rank's): its allreduce.  What ``fold`` is for a partial no
        array carries (:meth:`FusedComm.combine
        <repro.mpi.fused.FusedComm.combine>` folds all P items)."""
        return self.allreduce(items[0], op)

    def allgather(self, obj: Any) -> list:
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            nbytes = _largest(slots)
            world._coll_nbytes = nbytes
            cost = machine.collective_time("allgather", nbytes, size)
            return list(slots), tmax + cost

        return self.world.sync(self.rank, obj, combine, op="allgather",
                               rec=self._rec, line=self.line)

    def collect(self, pieces: list) -> list:
        """Every rank's piece, in rank order, from one piece per rank
        held (here this rank's): its allgather (:meth:`FusedComm.collect
        <repro.mpi.fused.FusedComm.collect>` holds all P)."""
        return self.allgather(pieces[0])

    def alltoall(self, objs: list) -> list:
        if len(objs) != self.size:
            raise MpiError("alltoall: need one item per rank")
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            per = max((sizeof(row[0]) if row else 0) for row in slots)
            world._coll_nbytes = per
            cost = machine.collective_time("alltoall", per, size)
            transposed = [[slots[src][dst] for src in range(size)]
                          for dst in range(size)]
            return transposed, tmax + cost

        result = self.world.sync(self.rank, objs, combine, op="alltoall",
                                 rec=self._rec, line=self.line)
        return result[self.rank]

    def exchange(self, values: np.ndarray, dests: np.ndarray,
                 largest: int) -> np.ndarray:
        """The all-to-all of a remap: ``values`` are this rank's
        outgoing values in position order, ``dests`` their destination
        ranks (never this one: what stays is not sent); the result is
        its incoming values, ordered by source, then position.  One
        :meth:`alltoall` of the pieces, values only — each receiver
        knows from the maps where its pieces go.  ``largest``, the most
        values any rank sends to rank 0, is what the alltoall's price
        reads off the pieces; :meth:`FusedComm.exchange
        <repro.mpi.fused.FusedComm.exchange>` charges it in closed
        form."""
        ordered = values[np.argsort(dests, kind="stable")]
        ends = np.cumsum(np.bincount(dests, minlength=self.size)).tolist()
        return np.concatenate(self.alltoall(
            [ordered[start:end] for start, end in zip([0] + ends, ends)]))

    def route(self, rows: list) -> list:
        """Each held rank's incoming pieces, by source, from each held
        rank's row of P outgoing pieces (here this rank's one row): its
        alltoall (:meth:`FusedComm.route
        <repro.mpi.fused.FusedComm.route>` transposes all P rows)."""
        return [self.alltoall(rows[0])]

    def exscan(self, obj: Any, op: Callable = SUM) -> Any:
        """Exclusive prefix reduction: the fold of the lower ranks'
        contributions (``None`` on rank 0).  Tallied as ``scan``, priced
        as an allreduce of the largest contribution."""
        machine = self.machine
        size = self.size
        world = self.world

        def combine(slots, tmax):
            prefixes = []
            acc = None
            for item in slots:
                acc = item if acc is None else op(acc, item)
                prefixes.append(acc)
            nbytes = _largest(slots)
            world._coll_nbytes = nbytes
            cost = machine.collective_time("allreduce", nbytes, size)
            return prefixes, tmax + cost

        prefixes = self.world.sync(self.rank, obj, combine, op="scan",
                                   rec=self._rec, line=self.line)
        return prefixes[self.rank - 1] if self.rank else None

    def prefixes(self, items: list, op: Callable = SUM) -> list:
        """Each held rank's exclusive prefix (``None`` on rank 0) from
        one item per rank held (here this rank's): its exscan
        (:meth:`FusedComm.prefixes
        <repro.mpi.fused.FusedComm.prefixes>` folds all P items)."""
        return [self.exscan(items[0], op)]
