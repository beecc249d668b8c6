"""The rank-fused SPMD backend's communicator facade.

``backend="fused"`` executes a generated program **once** instead of P
times: the program's control flow is identical on every rank (loosely
synchronous SPMD — pass 5 guards all rank-dependent stores), so one pass
can carry all ranks' state simultaneously.  Distributed values become
:class:`~repro.runtime.matrix.FusedDMatrix` (the full array plus the
distribution geometry); replicated scalars stay single Python numbers.

:class:`FusedComm` is the communication/accounting half of that design.
Communication ops never move data here — the fused runtime paths already
computed every rank's result as an in-process permutation or reduction —
but each op charges **exactly** what the lockstep backend would charge:

* per-rank virtual clocks (``compute_ranks`` groups ranks by identical
  work, so a P-rank charge costs O(distinct counts) model evaluations);
* ``messages_sent`` / ``bytes_sent`` for point-to-point patterns
  (``ring_exchange`` mirrors P simultaneous ``sendrecv`` calls);
* ``collectives`` / ``collective_counts`` via the ``charge_*`` helpers,
  which replicate the lockstep cost formulas byte for byte — including
  the ``size == 1`` shortcut of bcast/allreduce that tallies the op
  without a rendezvous.

The collective cost formulas in :mod:`repro.mpi.comm` are symmetric
functions of the per-rank contributions (max of ``sizeof``), so the
fused charges are *bit-identical* to lockstep without simulating the
scheduler's arrival order.

Divergence: anything that would make the single pass rank-dependent —
reading ``comm.rank``, point-to-point with data, rank-dependent truth
values — raises :class:`~repro.errors.FusionDivergence`; ``run_spmd``
catches it and re-runs the program under ``lockstep``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..errors import FusionDivergence
from . import datatypes
from .comm import MAX, MIN, PROD, SUM, World
from .machine import MachineModel

#: reduction ops whose rank-order fold over *identical* float64
#: contributions can run as a ``ufunc.accumulate`` — numpy's accumulate
#: is a strict sequential left fold in C, so the result is bit-identical
#: to the Python loop ``acc = op(acc, obj)`` repeated P-1 times
_FOLD_UFUNCS = {SUM: np.add, PROD: np.multiply,
                MAX: np.maximum, MIN: np.minimum}

#: the same fold over Python scalars: SUM and PROD stay Python
#: arithmetic, which saturates silently where numpy would warn
_FOLD_SCALARS = {SUM: operator.add, PROD: operator.mul}

_MISSING = object()

#: entries a charge memo may hold before it is dropped and refilled (a
#: program that keeps growing an array meets a new geometry every step)
_CHARGE_MEMO_MAX = 4096


def _remember(memo: dict, key, value):
    if len(memo) >= _CHARGE_MEMO_MAX:
        memo.clear()
    memo[key] = value
    return value


def _bits_equal(a: Any, b: Any) -> bool:
    """Exact (bit-level for floats: ``repr`` separates ``0.0``/``-0.0``)
    equality — the fixed-point test of :meth:`FusedComm._fold_value`."""
    return type(a) is type(b) and a == b and repr(a) == repr(b)


def fold_ranks(op: Callable, parts: np.ndarray):
    """Fold every rank's partial (``parts``: rank axis first) in rank
    order, at C speed: bit-identical to the ``acc = op(acc, item)`` loop
    ``Comm``'s reduction runs over the same contributions — Python
    scalars for a 1-D ``parts``, arrays otherwise.  ``op`` is one of
    SUM, PROD, MAX, MIN."""
    if parts.ndim == 1 and op in _FOLD_SCALARS:
        return functools.reduce(_FOLD_SCALARS[op], parts.tolist())
    if op is PROD and parts.dtype.kind == "c":
        # numpy's complex multiply rounds differently inside accumulate
        # (fused multiply-add) than in ``acc * item``
        return functools.reduce(operator.mul, list(parts))
    acc = _FOLD_UFUNCS[op].accumulate(parts, axis=0)[-1]
    # (a copy, so the result does not keep all P prefixes alive)
    return acc.item() if parts.ndim == 1 else acc.copy()


class PerRankScalar:
    """A scalar whose value differs across the fused ranks (``toc`` is
    the canonical producer: clocks advance per rank).  Collapses back to
    a plain float wherever the values agree; using a disagreeing one for
    control flow or as a replicated scalar raises FusionDivergence."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence):
        self.values = tuple(
            complex(v) if isinstance(v, (complex, np.complexfloating))
            else float(v) for v in values)

    def collapse(self):
        """A plain scalar when all ranks agree, else self."""
        if len(set(self.values)) == 1:
            return self.values[0]
        return self

    def __repr__(self) -> str:
        return f"PerRankScalar({list(self.values)})"

    # Any implicit coercion means a code path without explicit per-rank
    # handling is about to treat this as a replicated value — abort
    # fusion rather than silently computing one rank's answer.

    def _diverge(self):
        raise FusionDivergence(
            "rank-varying scalar used as a replicated value")

    def __array__(self, dtype=None, copy=None):
        self._diverge()

    def __float__(self):
        self._diverge()

    def __int__(self):
        self._diverge()

    def __index__(self):
        self._diverge()

    def __complex__(self):
        self._diverge()

    def __bool__(self):
        self._diverge()


class FusedComm:
    """All P ranks' communicator, driven by one pass of the program.

    Exposes the subset of the :class:`~repro.mpi.comm.Comm` surface that
    rank-agnostic runtime code needs (``size``, ``machine``, replicated
    ``compute``/``overhead``/``advance``, ``charge``/``compute_own`` of
    per-rank loads, and the replicated collectives
    ``barrier``/``bcast``/``allreduce``/``allgather``), plus the fused
    accounting helpers.  Everything rank-dependent raises
    :class:`FusionDivergence`.
    """

    is_fused = True

    def __init__(self, nprocs: int, machine: MachineModel,
                 fault_plan=None, trace=None, recovery=None):
        if fault_plan is not None and fault_plan.has_faults:
            # fault schedules are per-rank by construction; a single
            # fused pass cannot honor them — fall back to lockstep,
            # which heals under the same recovery policy
            raise FusionDivergence(
                "fault injection is rank-dependent; chaos runs fall "
                "back to lockstep")
        # World doubles as the stats/clocks container so SpmdResult and
        # compiler instrumentation read the same fields on every backend
        self.world = World(nprocs, machine, fault_plan=fault_plan,
                           trace=trace, recovery=recovery)
        self.size = nprocs
        self.machine = machine
        self.line = 0
        # the WorldTrace itself (not the recorder list): fused charge
        # paths feed whole per-rank columns to its batch_* hooks
        self._trace = trace
        # (op, size, type, value) -> fold result; replicated reductions
        # recur with identical inputs, so each distinct fold runs once
        self._fold_memo: dict = {}
        # the charge memos.  Costs are pure functions of their operands
        # and (machine, size), both fixed for this run:
        # (flops, elems, mem) -> compute_time_vec(...),
        # (nbytes, forward) -> ring_exchange's four per-rank columns, and
        # (op, nbytes) -> a collective's price (:meth:`_price`).  Keys
        # are the operand tuples themselves (the geometry tables),
        # values are read-only and bit-equal to an uncached evaluation.
        self._compute_memo: dict = {}
        self._ring_memo: dict = {}
        self._collective_memo: dict = {}

    # -- identity --------------------------------------------------------- #

    @property
    def rank(self) -> int:
        raise FusionDivergence("program reads the MPI rank")

    @property
    def clocks(self) -> np.ndarray:
        return self.world.clocks

    @property
    def time(self) -> float:
        raise FusionDivergence("per-rank clock read outside tic/toc")

    def clock_snapshot(self) -> list:
        """Every rank's clock, for ``tic``/``toc``."""
        return self.world.clocks.tolist()

    # -- replicated virtual time ------------------------------------------ #

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise FusionDivergence("cannot advance the clock backwards")
        self.world.clocks += dt
        if self._trace is not None:
            self._trace.batch_charge(self.line, dt)

    def compute(self, flops: int = 0, elems: int = 0, mem: int = 0) -> None:
        """Identical local computation on every rank."""
        dt = self.machine.compute_time(
            flops=flops, elems=elems, mem=mem, active_cpus=self.size)
        if self._trace is not None and dt > 0.0:
            self._trace.batch_compute(self.line, self.world.clocks, dt)
        self.advance(dt)

    def overhead(self, calls: int = 1) -> None:
        # :meth:`advance` by ``calls`` call overheads, inline: every op
        # charges one, so the frame it would cost is measurable
        dt = calls * self.machine.cpu.call_overhead
        if dt < 0:
            raise FusionDivergence("cannot advance the clock backwards")
        trace = self._trace
        if trace is None:
            self.world.clocks += dt
            return
        trace.batch_calls(self.line, calls)
        self.world.clocks += dt
        trace.batch_charge(self.line, dt)

    def user_call(self) -> None:
        """:meth:`Comm.user_call <repro.mpi.comm.Comm.user_call>` on
        every rank."""
        if self._trace is not None:
            self._trace.batch_calls(self.line, 1)

    @property
    def tracing(self) -> bool:
        """Is a trace recording what this communicator charges?"""
        return self._trace is not None

    def trace_io(self, nbytes: int) -> None:
        if self._trace is not None:
            # output happens on rank 0 on every backend
            self._trace.recorders[0].io(self.line, self.world.clocks[0],
                                        nbytes)

    def compute_ranks(self, flops: Optional[Sequence[int]] = None,
                      elems: Optional[Sequence[int]] = None,
                      mem: Optional[Sequence[int]] = None) -> None:
        """Per-rank local computation (one sequence entry per rank).

        One vectorized model evaluation charges all P clocks; each
        element of :meth:`MachineModel.compute_time_vec` is bit-identical
        to the scalar ``compute_time`` call the lockstep backend makes.
        Hashable operands (the shared geometry tuples) evaluate the
        model once per run; lists are data-dependent and never cached.
        """
        clocks = self.world.clocks
        key = (flops, elems, mem)
        try:
            dts = self._compute_memo[key]
        except KeyError:
            dts = _remember(self._compute_memo, key,
                            self._rank_costs(flops, elems, mem))
        except TypeError:
            dts = self._rank_costs(flops, elems, mem)
        if self._trace is not None:
            self._trace.batch_rank_compute(self.line, clocks, dts)
        clocks += dts

    #: :attr:`Comm.compute_own`'s counterpart: a fused ``mat.load`` is
    #: the per-rank sequence
    compute_own = compute_ranks

    def own(self, loads: list) -> list:
        """:meth:`Comm.own <repro.mpi.comm.Comm.own>`: every rank's
        load is the list itself."""
        return loads

    def charge(self, flops: Optional[Sequence[int]] = None,
               elems: Optional[Sequence[int]] = None,
               mem: Optional[Sequence[int]] = None) -> None:
        """:meth:`Comm.charge`: exactly ``overhead()`` then
        ``compute_ranks(flops, elems, mem)`` — the same clock additions
        and trace hooks, in the same order — in one frame."""
        clocks = self.world.clocks
        trace = self._trace
        line = self.line
        dt = self.machine.cpu.call_overhead
        if dt < 0:
            raise FusionDivergence("cannot advance the clock backwards")
        if trace is not None:
            trace.batch_calls(line, 1)
        clocks += dt
        if trace is not None:
            trace.batch_charge(line, dt)
        key = (flops, elems, mem)
        try:
            dts = self._compute_memo[key]
        except KeyError:
            dts = _remember(self._compute_memo, key,
                            self._rank_costs(flops, elems, mem))
        except TypeError:
            dts = self._rank_costs(flops, elems, mem)
        if trace is not None:
            trace.batch_rank_compute(line, clocks, dts)
        clocks += dts

    def _rank_costs(self, flops, elems, mem) -> np.ndarray:
        dts = np.asarray(self.machine.compute_time_vec(
            flops=flops, elems=elems, mem=mem, active_cpus=self.size))
        dts.setflags(write=False)
        return dts

    # -- collective accounting -------------------------------------------- #

    def _sync_cost(self, op: str, nbytes: int = 0) -> None:
        """One rendezvous: all clocks meet at max + the price of ``op``
        moving ``nbytes`` (exactly what ``World._run_combine`` + the
        per-rank ``max`` does), and the collective tallies advance."""
        w = self.world
        if w.aborted is not None:
            # the single fused pass has no blocked ranks to unwind, so
            # the watchdog's abort is observed here, at the next
            # collective boundary
            raise w.aborted
        key = (op, nbytes)
        try:
            cost = self._collective_memo[key]
        except KeyError:
            cost = _remember(self._collective_memo, key,
                             self._price(op, nbytes))
        pre = w.clocks.copy()
        # the ufunc's reduce, not ndarray.max: that is two frames more
        tnew = float(np.maximum.reduce(pre)) + cost
        w.clocks[:] = tnew
        w.collectives += 1
        w.rank_collectives += 1
        w._count(op)
        if w.recovery is not None:
            w.recovery.at_collective(w, tnew)
        if self._trace is not None:
            self._trace.batch_collective(op, self.line, pre, tnew, nbytes)

    def _price(self, op: str, nbytes: int) -> float:
        """What the lockstep collective tallied as ``op`` costs: its
        ``collective_time``, and for ``allreduce`` also the log2(P)
        combining steps' arithmetic (``scan`` is priced as an allreduce
        without them, as ``Comm.exscan`` is)."""
        machine = self.machine
        if op == "scan":
            return machine.collective_time("allreduce", nbytes, self.size)
        cost = machine.collective_time(op, nbytes, self.size)
        if op == "allreduce":
            cost += int(np.ceil(np.log2(self.size))) * (nbytes / 8.0) \
                * machine.cpu.elem_time
        return cost

    def charge_barrier(self) -> None:
        self._sync_cost("barrier")

    def charge_bcast(self, nbytes: int) -> None:
        if self.size == 1:
            self.world._count("bcast")
            if self._trace is not None:
                self._trace.recorders[0].collective(
                    "bcast", self.line, self.world.clocks[0], 0.0, nbytes)
            return
        self._sync_cost("bcast", nbytes)

    def charge_reduce(self, nbytes: int) -> None:
        if self.size == 1:
            self.world._count("allreduce")
            if self._trace is not None:
                self._trace.recorders[0].collective(
                    "allreduce", self.line, self.world.clocks[0], 0.0,
                    nbytes)
            return
        self._sync_cost("allreduce", nbytes)

    def charge_allgather(self, nbytes: int) -> None:
        self._sync_cost("allgather", nbytes)

    def charge_alltoall(self, per_nbytes: int) -> None:
        self._sync_cost("alltoall", per_nbytes)

    def exchange(self, values: np.ndarray, dests: np.ndarray,
                 largest: int) -> np.ndarray:
        """:meth:`Comm.exchange <repro.mpi.comm.Comm.exchange>` of every
        rank's pieces.  A fused pass holds every element already, so
        nothing is sent and nothing arrives.  Priced as the lockstep
        alltoall of the same pieces: ``largest`` values (the most any
        rank sends to rank 0) of ``values``' type."""
        self.charge_alltoall(largest * values.itemsize)
        return values[:0]

    def route(self, rows: list) -> list:
        """:meth:`Comm.route <repro.mpi.comm.Comm.route>` of every
        rank's row of P pieces: the rows transposed, priced as the
        lockstep alltoall of them (its largest piece to rank 0)."""
        self.charge_alltoall(max(datatypes.sizeof(row[0]) for row in rows))
        return [list(incoming) for incoming in zip(*rows)]

    def charge_scan(self, nbytes: int) -> None:
        # comm.exscan tallies as "scan" but costs like an allreduce
        self._sync_cost("scan", nbytes)

    def prefixes(self, items: list, op: Callable = SUM) -> list:
        """:meth:`Comm.prefixes <repro.mpi.comm.Comm.prefixes>` of every
        rank's item: the exscan's rank-order fold of the items below
        each rank (``op`` on the items themselves, as the lockstep
        combine runs it), priced as it is, by the largest item."""
        self.charge_scan(max(map(datatypes.sizeof, items)))
        return [None, *itertools.accumulate(items[:-1], op)]

    def ring_exchange(self, nbytes: int, forward: bool) -> None:
        """Accounting for P simultaneous ``sendrecv`` calls with the ring
        neighbour (circshift's boundary exchange): each rank charges the
        buffered-send injection at its pre-op clock, posts the arrival,
        then waits for its own incoming boundary."""
        w = self.world
        if w.aborted is not None:
            raise w.aborted
        p = self.size
        if p == 1:
            return  # self-exchange: no wire traffic
        pre = w.clocks.copy()
        key = (nbytes, forward)
        try:
            dests, sources, inject, ptime = self._ring_memo[key]
        except KeyError:
            ranks = np.arange(p)
            step = 1 if forward else -1
            dests = (ranks + step) % p
            sources = (ranks - step) % p
            lat, ptime = self.machine.p2p_time_vec(ranks, dests, nbytes)
            inject = lat * 0.5
            for column in (dests, sources, inject, ptime):
                column.setflags(write=False)
            _remember(self._ring_memo, key, (dests, sources, inject, ptime))
        # rank r's boundary reaches dests[r]: rank j's is sources[j]'s
        arrivals = (pre + ptime)[sources]
        me = pre + inject
        w.clocks[:] = me
        w.rank_messages += 1
        w.rank_bytes += nbytes
        if self._trace is not None:
            self._trace.batch_send(self.line, pre, me - pre,
                                   dests, 0, nbytes)
        np.maximum(me, arrivals, out=w.clocks)
        if self._trace is not None:
            self._trace.batch_recv(self.line, me,
                                   np.maximum(0.0, arrivals - me),
                                   sources, 0, nbytes)

    # -- replicated collectives ------------------------------------------- #
    # Unbranched (rank-agnostic) runtime code can only ever contribute a
    # replicated value, so these fold P identical contributions — exactly
    # what the lockstep rendezvous would compute.

    def barrier(self) -> None:
        self.charge_barrier()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self.charge_bcast(datatypes.sizeof(obj))
        return obj

    def allreduce(self, obj: Any, op: Callable = SUM) -> Any:
        acc = self._fold_identical(op, obj)
        self.charge_reduce(datatypes.sizeof(obj))
        return acc

    def fold(self, parts: np.ndarray, op: Callable = SUM) -> Any:
        """:meth:`Comm.fold <repro.mpi.comm.Comm.fold>` of all P ranks'
        partials (rank axis first): the allreduce's price for one row,
        then :func:`fold_ranks`."""
        self.charge_reduce(parts[0].nbytes)
        return fold_ranks(op, parts)

    def combine(self, items: list, op: Callable) -> Any:
        """:meth:`Comm.combine <repro.mpi.comm.Comm.combine>` of every
        rank's item: the allreduce's price for the largest, then ``op``
        folded over them in rank order."""
        self.charge_reduce(max(map(datatypes.sizeof, items)))
        return functools.reduce(op, items)

    def _fold_identical(self, op: Callable, obj: Any) -> Any:
        """``op`` folded over P identical contributions, bit-identical to
        the lockstep rank-order loop ``acc = op(acc, obj)`` × (P-1) but
        sub-linear in interpreter work: distinct folds are memoized, the
        builtin ops on finite floats run as one C ``ufunc.accumulate``
        (a strict sequential left fold), integer SUM/PROD use the exact
        closed forms, and any fold that reaches a bitwise fixed point
        stops early (all remaining iterations are no-ops)."""
        if self.size == 1:
            return obj
        try:
            key = (id(op), self.size, type(obj).__name__, obj)
            hit = self._fold_memo.get(key, _MISSING)
        except TypeError:           # unhashable contribution
            key = None
            hit = _MISSING
        if hit is not _MISSING:
            return hit
        acc = self._fold_value(op, obj)
        if key is not None:
            self._fold_memo[key] = acc
        return acc

    def _fold_value(self, op: Callable, obj: Any) -> Any:
        n = self.size
        if type(obj) is float and math.isfinite(obj):
            ufunc = _FOLD_UFUNCS.get(op)
            if ufunc is not None:
                # Python float arithmetic over/underflows silently to
                # inf/0.0; match that (numpy would warn)
                with np.errstate(over="ignore", under="ignore"):
                    return float(ufunc.accumulate(np.full(n, obj))[-1])
        if type(obj) is int:
            # integer arithmetic is exact and associative: the closed
            # forms equal the fold for any P (no int64 overflow — these
            # stay Python ints)
            if op is SUM:
                return obj * n
            if op is PROD:
                return obj ** n
        acc = op(obj, obj)
        for _ in range(n - 2):
            nxt = op(acc, obj)
            if _bits_equal(nxt, acc):
                return nxt          # fixed point: remaining folds no-op
            acc = nxt
        return acc

    def allgather(self, obj: Any) -> list:
        self.charge_allgather(datatypes.sizeof(obj))
        return [obj] * self.size

    def collect(self, pieces: list) -> list:
        """:meth:`Comm.collect <repro.mpi.comm.Comm.collect>` of every
        rank's piece: nothing moves, the allgather of the largest is
        charged."""
        self.charge_allgather(max(map(datatypes.sizeof, pieces)))
        return pieces

    # -- everything rank-dependent diverges -------------------------------- #

    def _diverge(self, what: str):
        raise FusionDivergence(f"{what} has no fused path")

    def send(self, *args, **kwargs):
        self._diverge("point-to-point send")

    def recv(self, *args, **kwargs):
        self._diverge("point-to-point recv")

    def sendrecv(self, *args, **kwargs):
        self._diverge("point-to-point sendrecv")

    def alltoall(self, *args, **kwargs):
        self._diverge("raw alltoall")  # each rank receives a different row

    def exscan(self, *args, **kwargs):
        self._diverge("raw exscan")  # prefix results differ per rank
