"""``comm.charge`` is the one call that bills a clock, on both
communicators, and it bills exactly what the calls it replaced did.

``charge(flops, elems, mem, calls=1)`` adds ``calls`` run-time-library
call overheads, then the local work: one rank's ``int`` counts under
lockstep; under :class:`FusedComm` an ``int`` every rank does, or a
per-rank sequence (``mat.load``) that charges each rank its own entry.
The same bills used to be spelled ``overhead(calls)``, ``compute(...)``,
``compute_own(...)``, the fused ``compute_ranks(...)``, and
``overhead()`` followed by ``compute(...)`` or ``compute_own(...)``.
``charge_pins.json`` holds what those spellings produced for each bill
of :data:`BILLS` — every rank's clock as ``float.hex``, and a digest of
every recorder's per-line rows and canonical events — at P in {1, 3, 16}
on a flat and a hierarchical machine.  Both communicators must
reproduce every pin through ``charge``, with tracing on and off, the
fused one with its counts interned (``RankLoads``, memoised) and as
plain lists (never memoised).

The file also pins every :class:`FusedComm` ``charge_*`` to a fresh
``collective_time`` evaluation, however often its price was memoised.
"""

import hashlib
import json
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.errors import FusionDivergence
from repro.mpi import MEIKO_CS2, SPARC20_CLUSTER, MpiError, run_spmd
from repro.mpi.comm import Comm, World
from repro.mpi.fused import _CHARGE_MEMO_MAX, FusedComm
from repro.runtime.distribution import get_geometry
from repro.trace import WorldTrace, canonical_events

#: a flat machine, and a hierarchical one whose bus contention makes the
#: memory scale differ from 1 past one CPU
MACHINES = (MEIKO_CS2, SPARC20_CLUSTER)
NPROCS = (1, 3, 16)

#: each rank's element count of a ``rows`` x ``cols`` matrix in the
#: ``scheme`` distribution, times ``k`` — what ``mat.load * k`` is: a
#: ``RankLoads`` on the fused communicator, one rank's ``int`` under
#: lockstep
Spread = namedtuple("Spread", "rows cols scheme k")

_A = Spread(40, 3, "block", 1)
_B = Spread(17, 1, "cyclic", 2)
_EMPTY = Spread(0, 1, "block", 1)

#: bill -> steps ``(line, calls, flops, elems, mem)``.  A bill is named
#: by the spelling it had before ``charge``; the repeated steps meet the
#: fused charge memo the first ones filled.
BILLS = {
    # overhead(calls)
    "overhead": [(1, 1, 0, 0, 0), (2, 3, 0, 0, 0), (1, 1, 0, 0, 0)],
    # compute(flops, elems, mem): the same ints on every rank
    "compute": [(1, 0, 500, 32, 0), (2, 0, 0, 0, 0), (2, 0, 0, 7, 11),
                (3, 0, 3, 0, 4096), (1, 0, 500, 32, 0)],
    # compute_own(...): each rank its own load (fused compute_ranks)
    "compute_own": [(1, 0, 0, _A, _A), (2, 0, _B, 0, 0),
                    (2, 0, 0, _EMPTY, 0), (3, 0, 0, _A, _A)],
    # overhead() then compute(...)
    "overhead_compute": [(1, 1, 500, 32, 0), (2, 1, 0, 0, 0),
                         (1, 1, 0, 7, 11), (1, 1, 500, 32, 0)],
    # overhead() then compute_own(...)
    "overhead_compute_own": [(1, 1, 0, _A, _A), (2, 1, _B, 0, 0),
                             (2, 1, 0, _EMPTY, 0), (1, 1, 0, _A, _A)],
}

PINS = json.loads((Path(__file__).with_name("charge_pins.json"))
                  .read_text(encoding="utf-8"))


def pin_key(bill, nprocs, machine):
    return f"{bill}/P{nprocs}/{machine.name}"


def rank_loads(count, nprocs):
    """Every rank's value of one count of a step."""
    if isinstance(count, Spread):
        return get_geometry(count.rows, count.cols, nprocs,
                            count.scheme).counts * count.k
    return count


def observed(clocks, trace):
    """Every rank's clock as hex, and a digest of the trace's per-line
    rows (floats as hex) and canonical events (``None`` untraced)."""
    hexes = [c.hex() for c in np.asarray(clocks, dtype=float).tolist()]
    if trace is None:
        return hexes, None
    rows = [[(line, [float(v).hex() if isinstance(v, float) else v
                     for v in row])
             for line, row in sorted(rec.lines.items())]
            for rec in trace.recorders]
    text = repr(rows) + "\n" + canonical_events(trace)
    return hexes, hashlib.sha256(text.encode()).hexdigest()


def _outcome(call):
    """The type of what ``call()`` raised, or ``None``."""
    try:
        call()
    except (MpiError, FusionDivergence, TypeError) as exc:
        return type(exc)
    return None


def _lockstep(nprocs, machine, traced):
    trace = WorldTrace(nprocs) if traced else None
    world = World(nprocs, machine, trace=trace)
    return world, trace, [Comm(world, rank) for rank in range(nprocs)]


def lockstep_bill(nprocs, machine, traced, steps, bill_one):
    """Run ``steps`` on every rank of a lockstep world, one rank's counts
    each, through ``bill_one(comm, calls, flops, elems, mem)``."""
    world, trace, comms = _lockstep(nprocs, machine, traced)
    for line, calls, *counts in steps:
        loads = [rank_loads(count, nprocs) for count in counts]
        for comm in comms:
            comm.line = line
            bill_one(comm, calls, *(load[comm.rank]
                                    if isinstance(load, tuple) else load
                                    for load in loads))
    return observed(world.clocks, trace)


def fused_bill(nprocs, machine, traced, steps, bill_all, as_list=False):
    """Run ``steps`` on a fused communicator through
    ``bill_all(comm, calls, flops, elems, mem)``, every rank's counts at
    once (``as_list``: as plain lists, past the memo)."""
    trace = WorldTrace(nprocs) if traced else None
    comm = FusedComm(nprocs, machine, trace=trace)
    for line, calls, *counts in steps:
        loads = [rank_loads(count, nprocs) for count in counts]
        if as_list:
            loads = [list(load) if isinstance(load, tuple) else load
                     for load in loads]
        comm.line = line
        bill_all(comm, calls, *loads)
    return observed(comm.clocks, trace)


def _charge(comm, calls, flops, elems, mem):
    comm.charge(flops, elems, mem, calls=calls)


def _cases():
    for bill, steps in BILLS.items():
        for nprocs in NPROCS:
            for machine in MACHINES:
                yield pin_key(bill, nprocs, machine), steps, nprocs, machine


def _assert_pinned(key, traced, got):
    clocks, digest = got
    assert clocks == PINS[key]["clocks"], key
    if traced:
        assert digest == PINS[key]["trace"], key


# -------------------------------------------------------------------------- #
# the bills, pinned
# -------------------------------------------------------------------------- #


def test_a_lockstep_charge_is_the_pair():
    """Every bill, one rank's counts on each rank, matches its pin."""
    for key, steps, nprocs, machine in _cases():
        for traced in (False, True):
            _assert_pinned(key, traced, lockstep_bill(
                nprocs, machine, traced, steps, _charge))


def test_a_fused_charge_is_the_pair():
    """Every bill, every rank's counts at once — interned and as lists —
    matches its pin: the lockstep numbers, bit for bit."""
    for key, steps, nprocs, machine in _cases():
        for traced in (False, True):
            for as_list in (False, True):
                _assert_pinned(key, traced, fused_bill(
                    nprocs, machine, traced, steps, _charge, as_list))


def test_every_bill_has_a_pin():
    assert sorted(PINS) == sorted(
        [key for key, *_ in _cases()]
        + [negative_key(counts) for counts, _ in LOCKSTEP_NEGATIVES])
    assert all(PINS[key]["trace"] for key in PINS)


# -------------------------------------------------------------------------- #
# negative counts
# -------------------------------------------------------------------------- #

#: counts one lockstep rank is charged, and what the pair raised for
#: them (its pin: the call overhead billed, the work refused — or
#: billed, where the negative term is outweighed)
LOCKSTEP_NEGATIVES = [
    (dict(flops=-1), MpiError), (dict(flops=2, elems=-7), MpiError),
    # a negative term the others outweigh: no backwards step
    (dict(elems=3, mem=-2), None)]


def negative_key(counts):
    return "negative/" + ",".join(f"{name}={value}" for name, value
                                  in sorted(counts.items()))


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("counts, fails", LOCKSTEP_NEGATIVES)
def test_a_negative_lockstep_count_fails_as_the_pair_does(traced, counts,
                                                          fails):
    """Rank 1 of two is charged ``counts`` on MEIKO_CS2."""
    world, trace, comms = _lockstep(2, MEIKO_CS2, traced)
    assert _outcome(lambda: comms[1].charge(**counts)) is fails
    _assert_pinned(negative_key(counts), traced,
                   observed(world.clocks, trace))


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("counts", [
    dict(flops=(3, -1)), dict(elems=[5, -4], mem=(1, 1)),
    dict(flops=-1), dict(flops=2, elems=-7)])
def test_a_negative_fused_count_fails_as_the_pair_does(traced, counts):
    """A negative cost raises ``MpiError`` after the call overhead is
    billed, as the pair raised for a negative ``int`` (``compute``) and
    as the lockstep ``charge`` does.  The pair let a negative per-rank
    entry (``compute_ranks``) step that rank's clock back; ``charge``
    refuses it as well."""
    trace = WorldTrace(2) if traced else None
    comm = FusedComm(2, MEIKO_CS2, trace=trace)
    assert _outcome(lambda: comm.charge(**counts)) is MpiError
    assert observed(comm.clocks, trace) == fused_bill(
        2, MEIKO_CS2, traced, [(0, 1, 0, 0, 0)], _charge)


#: clock steps that go backwards on every rank
BACKWARDS = {
    "advance": lambda comm: comm.advance(-1e-6),
    "charge-calls": lambda comm: comm.charge(calls=-1),
    "charge-work": lambda comm: comm.charge(flops=-1, calls=0),
}


@pytest.mark.parametrize("step", sorted(BACKWARDS))
def test_a_backwards_step_is_the_same_error_on_both_communicators(step):
    """A negative step is a program error on both communicators — one
    ``MpiError`` text — and, through ``run_spmd``, never a divergence
    that re-runs a fused pass under lockstep."""
    bill = BACKWARDS[step]
    raised = []
    for comm in (_lockstep(2, MEIKO_CS2, False)[2][1],
                 FusedComm(2, MEIKO_CS2)):
        with pytest.raises(MpiError) as info:
            bill(comm)
        raised.append((type(info.value), str(info.value)))
    assert raised == [(MpiError, "cannot advance the clock backwards")] * 2
    fallbacks = []
    for backend in ("fused", "lockstep"):
        with pytest.raises(MpiError) as info:
            run_spmd(2, MEIKO_CS2, bill, backend=backend,
                     on_fused_fallback=lambda: fallbacks.append(backend))
        raised.append((type(info.value), str(info.value)))
    assert raised[2:] == raised[:2] and fallbacks == []


# -------------------------------------------------------------------------- #
# the memoised collective prices
# -------------------------------------------------------------------------- #

#: the hierarchical machine under both ``collective_hierarchy`` settings,
#: with its shared medium and without
COLLECTIVE_MACHINES = {
    "meiko": MEIKO_CS2,
    "cluster": SPARC20_CLUSTER,
    "cluster-flat": replace(SPARC20_CLUSTER, collective_hierarchy="flat"),
    "cluster-switched": replace(SPARC20_CLUSTER, shared_medium=False),
    "cluster-flat-switched": replace(SPARC20_CLUSTER, shared_medium=False,
                                     collective_hierarchy="flat"),
}


def _fresh_price(machine, name, nbytes, nprocs):
    """What the lockstep collective behind ``charge_<name>`` costs,
    evaluated from the model on the spot; ``None``: it moves no clock
    (the one-rank bcast/allreduce shortcut)."""
    if name == "barrier":
        return machine.collective_time("barrier", 0, nprocs)
    if name in ("bcast", "reduce") and nprocs == 1:
        return None
    if name == "reduce":
        cost = machine.collective_time("allreduce", nbytes, nprocs)
        return cost + int(np.ceil(np.log2(nprocs))) * (nbytes / 8.0) \
            * machine.cpu.elem_time
    if name == "scan":
        return machine.collective_time("allreduce", nbytes, nprocs)
    return machine.collective_time(name, nbytes, nprocs)


def _charge_collective(comm, name, nbytes):
    if name == "barrier":
        comm.charge_barrier()
    else:
        getattr(comm, f"charge_{name}")(nbytes)


@pytest.mark.parametrize("machine", COLLECTIVE_MACHINES.values(),
                         ids=COLLECTIVE_MACHINES.keys())
@pytest.mark.parametrize("nprocs", [1, 2, 4, 16])
def test_every_memoised_collective_price_is_the_models(machine, nprocs):
    comm = FusedComm(nprocs, machine)
    skew = list(range(1, nprocs + 1))
    for _ in range(2):      # the second round is priced from the memo
        for name in ("barrier", "bcast", "reduce", "allgather",
                     "alltoall", "scan"):
            for nbytes in (0, 8, 24, 4096):
                comm.charge(elems=skew, calls=0)   # ranks arrive apart
                pre = comm.clocks.copy()
                _charge_collective(comm, name, nbytes)
                cost = _fresh_price(machine, name, nbytes, nprocs)
                want = pre if cost is None \
                    else np.full(nprocs, float(np.max(pre)) + cost)
                assert [c.hex() for c in comm.clocks.tolist()] == \
                    [c.hex() for c in want.tolist()], (name, nbytes)
    assert len(comm._collective_memo) <= _CHARGE_MEMO_MAX


def test_the_collective_memo_stays_bounded():
    """A run that meets a new payload size at every collective refills
    the memo instead of growing it, and still prices each one right."""
    comm = FusedComm(4, SPARC20_CLUSTER)
    for nbytes in range(_CHARGE_MEMO_MAX + 10):
        pre = float(np.max(comm.clocks))
        comm.charge_allgather(nbytes)
        assert len(comm._collective_memo) <= _CHARGE_MEMO_MAX
    want = pre + SPARC20_CLUSTER.collective_time("allgather", nbytes, 4)
    assert comm.clocks.tolist() == [want] * 4
