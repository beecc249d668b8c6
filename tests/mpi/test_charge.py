"""``comm.charge`` is ``overhead()`` then ``compute_own(...)``, and the
fused communicator's memoised machine costs are the model's.

``charge(flops, elems, mem)`` is the one frame a run-time-library call
pays for its accounting on both communicators.  These properties pin it
to the pair it replaced — hex-identical clocks, identical per-line
trace rows and identical canonical events, with tracing on and off —
and pin every :class:`FusedComm` ``charge_*`` to a fresh
``collective_time`` evaluation, however often its price was memoised.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FusionDivergence
from repro.mpi import MEIKO_CS2, SPARC20_CLUSTER, MpiError
from repro.mpi.comm import Comm, World
from repro.mpi.fused import _CHARGE_MEMO_MAX, FusedComm
from repro.runtime.distribution import get_geometry
from repro.trace import WorldTrace, canonical_events

#: a flat machine, and a hierarchical one whose bus contention makes the
#: memory scale differ from 1 past one CPU
MACHINES = (MEIKO_CS2, SPARC20_CLUSTER)

_count = st.integers(min_value=0, max_value=5000) | st.just(0)


def _observed(clocks, trace):
    """Clocks as hex, and the trace's per-line rows and events."""
    observed = [c.hex() for c in np.asarray(clocks, dtype=float).tolist()]
    if trace is None:
        return observed, None, None
    rows = [sorted(rec.lines.items()) for rec in trace.recorders]
    return observed, rows, canonical_events(trace)


def _outcome(call):
    """The type of what ``call()`` raised, or ``None``."""
    try:
        call()
    except (MpiError, FusionDivergence, TypeError) as exc:
        return type(exc)
    return None


# -------------------------------------------------------------------------- #
# lockstep: one rank's int counts
# -------------------------------------------------------------------------- #


def _lockstep(nprocs, machine, traced):
    trace = WorldTrace(nprocs) if traced else None
    world = World(nprocs, machine, trace=trace)
    return world, trace, [Comm(world, rank) for rank in range(nprocs)]


@settings(max_examples=40, deadline=None)
@given(nprocs=st.sampled_from([1, 2, 3, 16]),
       machine=st.sampled_from(MACHINES),
       traced=st.booleans(),
       steps=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 4),
                                _count, _count, _count),
                      min_size=1, max_size=10))
def test_a_lockstep_charge_is_the_pair(nprocs, machine, traced, steps):
    pair_world, pair_trace, pair = _lockstep(nprocs, machine, traced)
    one_world, one_trace, one = _lockstep(nprocs, machine, traced)
    for rank, line, flops, elems, mem in steps:
        a, b = pair[rank % nprocs], one[rank % nprocs]
        a.line = b.line = line
        a.overhead()
        a.compute_own(flops, elems, mem)
        b.charge(flops, elems, mem)
    assert _observed(one_world.clocks, one_trace) == \
        _observed(pair_world.clocks, pair_trace)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("counts, fails", [
    (dict(flops=-1), MpiError), (dict(flops=2, elems=-7), MpiError),
    # a negative term the others outweigh: no backwards step
    (dict(elems=3, mem=-2), None)])
def test_a_negative_lockstep_count_fails_as_the_pair_does(traced, counts,
                                                          fails):
    pair_world, pair_trace, pair = _lockstep(2, MEIKO_CS2, traced)
    one_world, one_trace, one = _lockstep(2, MEIKO_CS2, traced)
    want = _outcome(lambda: (pair[1].overhead(),
                             pair[1].compute_own(**counts)))
    assert want is fails
    assert _outcome(lambda: one[1].charge(**counts)) is want
    assert _observed(one_world.clocks, one_trace) == \
        _observed(pair_world.clocks, pair_trace)


# -------------------------------------------------------------------------- #
# fused: every rank's counts at once
# -------------------------------------------------------------------------- #


def _loads(nprocs):
    """A per-rank count operand: ``None``, an interned geometry table
    (``RankLoads``, as ``mat.load * k`` hands it over), or a plain list
    (unhashable: past the memo)."""
    interned = st.builds(
        lambda rows, cols, scheme, k:
        get_geometry(rows, cols, nprocs, scheme).counts * k,
        st.integers(0, 40), st.integers(1, 5),
        st.sampled_from(["block", "cyclic"]), st.integers(1, 4))
    plain = st.lists(_count, min_size=nprocs, max_size=nprocs)
    return st.none() | interned | plain


@st.composite
def fused_steps(draw):
    nprocs = draw(st.sampled_from([1, 2, 3, 16]))
    step = st.tuples(st.integers(1, 4), _loads(nprocs), _loads(nprocs),
                     _loads(nprocs))
    return nprocs, draw(st.lists(step, min_size=1, max_size=10))


@settings(max_examples=40, deadline=None)
@given(case=fused_steps(), machine=st.sampled_from(MACHINES),
       traced=st.booleans())
def test_a_fused_charge_is_the_pair(case, machine, traced):
    nprocs, steps = case
    pair_trace = WorldTrace(nprocs) if traced else None
    one_trace = WorldTrace(nprocs) if traced else None
    pair = FusedComm(nprocs, machine, trace=pair_trace)
    one = FusedComm(nprocs, machine, trace=one_trace)
    # twice over, so the second pass meets the memo the first one filled
    for line, flops, elems, mem in steps + steps:
        pair.line = one.line = line
        pair.overhead()
        pair.compute_own(flops, elems, mem)
        one.charge(flops, elems, mem)
    assert _observed(one.clocks, one_trace) == \
        _observed(pair.clocks, pair_trace)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("counts", [
    dict(flops=(3, -1)), dict(elems=[5, -4], mem=(1, 1))])
def test_a_negative_fused_count_fails_as_the_pair_does(traced, counts):
    pair_trace = WorldTrace(2) if traced else None
    one_trace = WorldTrace(2) if traced else None
    pair = FusedComm(2, MEIKO_CS2, trace=pair_trace)
    one = FusedComm(2, MEIKO_CS2, trace=one_trace)
    want = _outcome(lambda: (pair.overhead(), pair.compute_own(**counts)))
    assert _outcome(lambda: one.charge(**counts)) is want
    assert _observed(one.clocks, one_trace) == \
        _observed(pair.clocks, pair_trace)


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


def _charge(comm, name, nbytes):
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
                comm.compute_ranks(elems=skew)   # ranks arrive apart
                pre = comm.clocks.copy()
                _charge(comm, name, nbytes)
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
