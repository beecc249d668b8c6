"""Bit-identity of the vectorized per-rank accounting.

The P=1024 scaling work turned every fused charge path into a numpy
array expression (``World.clocks`` and the message/byte/collective
counters are rank-indexed arrays, trace recording is batched, and the
``allreduce`` fold short-circuits).  The contract that made that safe is
*bit-identity*: each vectorized charge must produce exactly the floats,
counters, and trace events of the scalar per-rank loops it replaced.

This module pins the contract two ways:

* a hypothesis property drives :class:`FusedComm` and an in-test scalar
  reference (the pre-vectorization loops, verbatim) through random
  charge sequences at P in {1, 2, 4, 7, 16} and compares clocks,
  counters, and the canonical trace stream bitwise;
* the allreduce fold shortcuts (ufunc accumulate, integer closed forms,
  memo, fixed-point exit) are checked against the rank-order Python
  fold at P=1024 for every builtin reduction op.

The pinned golden traces in tests/trace/golden/ provide the third leg:
they were recorded before vectorization and must keep passing unchanged.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import make_workload
from repro.compiler import OtterCompiler, compile_source
from repro.mpi import (
    FATTREE_CLUSTER,
    GPU_CLUSTER,
    MEIKO_CS2,
    SPARC20_CLUSTER,
    SUN_ENTERPRISE,
    run_spmd,
)
from repro.mpi.comm import LAND, LOR, MAX, MIN, PROD, SUM
from repro.mpi.fused import FusedComm
from repro.runtime.distribution import get_geometry
from repro.trace import WorldTrace, canonical_events

NPROCS = (1, 2, 4, 7, 16)
MACHINES = (MEIKO_CS2, SUN_ENTERPRISE, SPARC20_CLUSTER,
            FATTREE_CLUSTER, GPU_CLUSTER)


# -------------------------------------------------------------------------- #
# the scalar reference: the pre-vectorization charge loops, verbatim
# -------------------------------------------------------------------------- #


class ScalarReference:
    """The fused accounting as it was before vectorization: Python-list
    clocks, per-rank loops, one recorder method call per rank."""

    def __init__(self, nprocs, machine, trace=None):
        self.size = nprocs
        self.machine = machine
        self.clocks = [0.0] * nprocs
        self.messages_sent = 0
        self.bytes_sent = 0
        self.collectives = 0
        self.collective_counts = {}
        self.line = 0
        self._recs = None if trace is None else trace.recorders

    def advance(self, dt):
        for r in range(self.size):
            self.clocks[r] += dt
        if self._recs is not None:
            for rec in self._recs:
                rec.charge(self.line, dt)

    def compute(self, flops=0, elems=0, mem=0):
        dt = self.machine.compute_time(
            flops=flops, elems=elems, mem=mem, active_cpus=self.size)
        if self._recs is not None and dt > 0.0:
            for r, rec in enumerate(self._recs):
                rec.compute(self.line, self.clocks[r], dt)
        self.advance(dt)

    def overhead(self, calls=1):
        if self._recs is not None:
            for rec in self._recs:
                rec.calls(self.line, calls)
        self.advance(calls * self.machine.cpu.call_overhead)

    def compute_ranks(self, flops=None, elems=None, mem=None):
        for r in range(self.size):
            dt = self.machine.compute_time(
                flops=flops[r] if flops is not None else 0,
                elems=elems[r] if elems is not None else 0,
                mem=mem[r] if mem is not None else 0,
                active_cpus=self.size)
            if self._recs is not None:
                if dt > 0.0:
                    self._recs[r].compute(self.line, self.clocks[r], dt)
                self._recs[r].charge(self.line, dt)
            self.clocks[r] += dt

    def _sync_cost(self, op, cost, nbytes=0):
        pre = list(self.clocks)
        tnew = max(pre) + cost
        self.clocks[:] = [tnew] * self.size
        self.collectives += 1
        self.collective_counts[op] = self.collective_counts.get(op, 0) + 1
        if self._recs is not None:
            for r, rec in enumerate(self._recs):
                rec.collective(op, self.line, pre[r], tnew - pre[r], nbytes)

    def charge_barrier(self):
        self._sync_cost("barrier", self.machine.collective_time(
            "barrier", 0, self.size))

    def charge_bcast(self, nbytes):
        if self.size == 1:
            self.collective_counts["bcast"] = \
                self.collective_counts.get("bcast", 0) + 1
            if self._recs is not None:
                self._recs[0].collective("bcast", self.line,
                                         self.clocks[0], 0.0, nbytes)
            return
        self._sync_cost("bcast", self.machine.collective_time(
            "bcast", nbytes, self.size), nbytes)

    def charge_reduce(self, nbytes):
        if self.size == 1:
            self.collective_counts["allreduce"] = \
                self.collective_counts.get("allreduce", 0) + 1
            if self._recs is not None:
                self._recs[0].collective("allreduce", self.line,
                                         self.clocks[0], 0.0, nbytes)
            return
        cost = self.machine.collective_time("allreduce", nbytes, self.size)
        cost += int(np.ceil(np.log2(self.size))) * (nbytes / 8.0) \
            * self.machine.cpu.elem_time
        self._sync_cost("allreduce", cost, nbytes)

    def charge_allgather(self, nbytes):
        self._sync_cost("allgather", self.machine.collective_time(
            "allgather", nbytes, self.size), nbytes)

    def charge_alltoall(self, per_nbytes):
        self._sync_cost("alltoall", self.machine.collective_time(
            "alltoall", per_nbytes, self.size), per_nbytes)

    def charge_scan(self, nbytes):
        self._sync_cost("scan", self.machine.collective_time(
            "allreduce", nbytes, self.size), nbytes)

    def ring_exchange(self, nbytes, forward):
        p = self.size
        if p == 1:
            return
        pre = list(self.clocks)
        arrivals = [0.0] * p
        for r in range(p):
            dest = (r + 1) % p if forward else (r - 1) % p
            arrivals[dest] = pre[r] + self.machine.p2p_time(r, dest, nbytes)
            self.clocks[r] = pre[r] + \
                self.machine.link_between(r, dest).latency * 0.5
            self.messages_sent += 1
            self.bytes_sent += nbytes
            if self._recs is not None:
                self._recs[r].send(self.line, pre[r],
                                   self.clocks[r] - pre[r], dest, 0, nbytes)
        for r in range(p):
            me = self.clocks[r]
            self.clocks[r] = max(me, arrivals[r])
            if self._recs is not None:
                source = (r - 1) % p if forward else (r + 1) % p
                self._recs[r].recv(self.line, me,
                                   max(0.0, arrivals[r] - me),
                                   source, 0, nbytes)


def _loop_fold(op, obj, n):
    """The lockstep rank-order fold, verbatim."""
    acc = obj
    for _ in range(n - 1):
        acc = op(acc, obj)
    return acc


# -------------------------------------------------------------------------- #
# the hypothesis property
# -------------------------------------------------------------------------- #

_dt = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)
_count = st.integers(min_value=0, max_value=5000)
_nbytes = st.integers(min_value=0, max_value=1 << 16)

_charge_op = st.one_of(
    st.tuples(st.just("advance"), _dt),
    st.tuples(st.just("compute"), _count, _count, _count),
    st.tuples(st.just("overhead"), st.integers(min_value=1, max_value=9)),
    st.tuples(st.just("compute_ranks"),
              st.lists(_count, min_size=16, max_size=16),
              st.lists(_count, min_size=16, max_size=16)),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("bcast"), _nbytes),
    st.tuples(st.just("reduce"), _nbytes),
    st.tuples(st.just("allgather"), _nbytes),
    st.tuples(st.just("alltoall"), _nbytes),
    st.tuples(st.just("scan"), _nbytes),
    st.tuples(st.just("ring"), _nbytes, st.booleans()),
)


def _apply(comm, step, line):
    comm.line = line
    kind = step[0]
    if kind == "advance":
        comm.advance(step[1])
    elif kind == "compute":
        comm.compute(flops=step[1], elems=step[2], mem=step[3])
    elif kind == "overhead":
        comm.overhead(step[1])
    elif kind == "compute_ranks":
        comm.compute_ranks(elems=step[1][:comm.size],
                           mem=step[2][:comm.size])
    elif kind == "barrier":
        comm.charge_barrier()
    elif kind == "bcast":
        comm.charge_bcast(step[1])
    elif kind == "reduce":
        comm.charge_reduce(step[1])
    elif kind == "allgather":
        comm.charge_allgather(step[1])
    elif kind == "alltoall":
        comm.charge_alltoall(step[1])
    elif kind == "scan":
        comm.charge_scan(step[1])
    elif kind == "ring":
        comm.ring_exchange(step[1], step[2])
    else:  # pragma: no cover
        raise AssertionError(kind)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(_charge_op, min_size=1, max_size=12),
       nprocs=st.sampled_from(NPROCS),
       machine_idx=st.integers(min_value=0, max_value=len(MACHINES) - 1))
def test_vectorized_charges_bit_identical_to_scalar_loops(
        steps, nprocs, machine_idx):
    machine = MACHINES[machine_idx]
    if nprocs > machine.max_cpus:  # e.g. P=16 on the 8-CPU Enterprise
        nprocs = machine.max_cpus
    fused_trace = WorldTrace(nprocs)
    scalar_trace = WorldTrace(nprocs)
    fused = FusedComm(nprocs, machine, trace=fused_trace)
    scalar = ScalarReference(nprocs, machine, trace=scalar_trace)
    for i, step in enumerate(steps):
        _apply(fused, step, line=1 + i % 5)
        _apply(scalar, step, line=1 + i % 5)
    # clocks: exact float equality, element by element
    assert fused.world.clocks.tolist() == scalar.clocks
    # counters
    assert fused.world.messages_sent == scalar.messages_sent
    assert fused.world.bytes_sent == scalar.bytes_sent
    assert fused.world.collectives == scalar.collectives
    assert fused.world.collective_counts == scalar.collective_counts
    # per-rank counter arrays are consistent with their totals
    assert int(fused.world.rank_messages.sum()) == scalar.messages_sent
    assert int(fused.world.rank_bytes.sum()) == scalar.bytes_sent
    # trace stream: byte-identical canonical serialization, and the
    # per-line accumulator rows (including zero-valued rows) match
    assert canonical_events(fused_trace) == canonical_events(scalar_trace)
    for frec, srec in zip(fused_trace.recorders, scalar_trace.recorders):
        assert frec.lines == srec.lines


def test_compute_time_vec_matches_scalar_elementwise():
    rng = np.random.default_rng(7)
    for machine in MACHINES:
        for active in (1, 4, 16, 1024):
            flops = rng.integers(0, 10**7, size=33)
            elems = rng.integers(0, 10**7, size=33)
            mem = rng.integers(0, 10**7, size=33)
            vec = machine.compute_time_vec(flops=flops, elems=elems,
                                           mem=mem, active_cpus=active)
            for i in range(33):
                assert vec[i] == machine.compute_time(
                    flops=int(flops[i]), elems=int(elems[i]),
                    mem=int(mem[i]), active_cpus=active)


def test_p2p_time_vec_matches_scalar_elementwise():
    for machine in MACHINES:
        p = 64
        ranks = np.arange(p)
        for step in (1, -1):
            dests = (ranks + step) % p
            lat, ptime = machine.p2p_time_vec(ranks, dests, 4096)
            for r in range(p):
                assert ptime[r] == machine.p2p_time(r, int(dests[r]), 4096)
                assert lat[r] == machine.link_between(r, int(dests[r])).latency


# -------------------------------------------------------------------------- #
# backend differential on a compiled program, clocks + counters + trace
# -------------------------------------------------------------------------- #

_SOURCE = """\
n = 96;
x = linspace(0, 2*pi, n);
u = sin(x);
for s = 1:3
    left = circshift(u, 1);
    right = circshift(u, -1);
    u = u + 0.1 * (left - 2 * u + right);
end
e = sum(u .* u);
"""


@pytest.mark.parametrize("nprocs", NPROCS)
def test_fused_matches_lockstep_on_compiled_program(nprocs):
    program = compile_source(_SOURCE, name="vec_acct")
    runs = {}
    for backend in ("lockstep", "fused"):
        result = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                             backend=backend, trace=True)
        assert result.spmd.backend == backend  # no silent fallback
        runs[backend] = result
    base, other = runs["lockstep"], runs["fused"]
    assert other.spmd.times == base.spmd.times
    assert other.spmd.messages_sent == base.spmd.messages_sent
    assert other.spmd.bytes_sent == base.spmd.bytes_sent
    assert other.spmd.collectives == base.spmd.collectives
    assert other.spmd.collective_counts == base.spmd.collective_counts
    assert canonical_events(other.spmd.trace) == \
        canonical_events(base.spmd.trace)
    # result times are plain Python floats (JSON/serialization surface)
    assert all(type(t) is float for t in base.spmd.times)


# -------------------------------------------------------------------------- #
# the allreduce fold shortcuts, P=1024
# -------------------------------------------------------------------------- #


class TestAllreduceFoldP1024:
    P = 1024

    def _check(self, op, obj):
        comm = FusedComm(self.P, FATTREE_CLUSTER)
        got = comm._fold_identical(op, obj)
        want = _loop_fold(op, obj, self.P)
        if isinstance(want, float) and math.isnan(want):
            assert isinstance(got, float) and math.isnan(got)
        else:
            assert got == want
            if isinstance(want, float):
                assert repr(got) == repr(want)  # bit-level: 0.0 vs -0.0

    @pytest.mark.parametrize("op", [SUM, PROD, MAX, MIN, LAND, LOR])
    @pytest.mark.parametrize(
        "obj", [0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 1e-300, 1e300,
                float("inf"), float("nan")])
    def test_float_fold_bit_identical(self, op, obj):
        self._check(op, obj)

    @pytest.mark.parametrize("op", [SUM, PROD, MAX, MIN])
    @pytest.mark.parametrize("obj", [0, 1, -3, 2**40])
    def test_int_fold_exact(self, op, obj):
        self._check(op, obj)

    def test_int_sum_has_no_fixed_width_overflow(self):
        comm = FusedComm(self.P, FATTREE_CLUSTER)
        big = 2**61
        assert comm._fold_identical(SUM, big) == big * self.P
        assert comm._fold_identical(PROD, 2) == 2**self.P

    def test_custom_op_reaches_fixed_point(self):
        def saturating(a, b):
            return min(a + b, 100.0)

        self._check(saturating, 7.0)

    def test_custom_op_without_fixed_point(self):
        def drift(a, b):
            return a * 0.5 + b

        self._check(drift, 3.0)

    def test_fold_is_memoized(self):
        comm = FusedComm(self.P, FATTREE_CLUSTER)
        first = comm._fold_identical(SUM, 0.3)
        assert (id(SUM), self.P, "float", 0.3) in comm._fold_memo
        assert comm._fold_identical(SUM, 0.3) == first

    def test_allreduce_charges_and_folds_at_p1024(self):
        comm = FusedComm(self.P, FATTREE_CLUSTER)
        assert comm.allreduce(1.0) == _loop_fold(SUM, 1.0, self.P)
        assert comm.world.collective_counts == {"allreduce": 1}
        clocks = comm.world.clocks
        assert clocks[0] > 0
        assert clocks.tolist() == [clocks[0]] * self.P

    @pytest.mark.parametrize("nprocs", NPROCS)
    def test_small_p_matches_loop(self, nprocs):
        for op in (SUM, PROD, MAX, MIN):
            for obj in (0.25, -2.0, 3):
                comm = FusedComm(nprocs, MEIKO_CS2)
                assert comm._fold_identical(op, obj) == \
                    _loop_fold(op, obj, nprocs)


# -------------------------------------------------------------------------- #
# the charge memo and the shared geometry tables
# -------------------------------------------------------------------------- #

MEMO_NPROCS = (1, 2, 3, 7, 16)


def _accounting(result):
    """Everything the modeled machine charged for one run."""
    spmd = result.spmd
    return (result.elapsed, tuple(spmd.times), spmd.messages_sent,
            spmd.bytes_sent, spmd.collectives,
            tuple(sorted(spmd.collective_counts.items())))


@pytest.fixture(scope="module")
def suite_programs():
    programs = {"heat": compile_source(_SOURCE, name="heat")}
    for key in ("cg", "ocean", "nbody", "closure"):
        w = make_workload(key, scale="small")
        programs[key] = OtterCompiler(provider=w.provider).compile(
            w.source, name=key)
    return programs


@pytest.mark.parametrize("key", ["heat", "cg", "ocean", "nbody", "closure"])
@pytest.mark.parametrize("nprocs", MEMO_NPROCS)
def test_memoized_charges_equal_lockstep_cold_and_warm(
        suite_programs, key, nprocs):
    """A fused run that builds every geometry and cost vector from
    scratch, and a second one that finds the geometry cache warm, charge
    exactly what lockstep's scalar per-rank calls charge."""
    program = suite_programs[key]

    def run(backend):
        result = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                             backend=backend)
        assert result.spmd.backend == backend
        return _accounting(result)

    get_geometry.cache_clear()          # drop every interned geometry
    cold = run("fused")
    warm = run("fused")
    assert cold == warm == run("lockstep")


@pytest.mark.parametrize("scheme", ["block", "cyclic"])
@pytest.mark.parametrize("nprocs,per", [
    (1, 9), (2, 0), (2, 3), (3, 1), (3, 129), (7, 0), (7, 2), (7, 17),
    (16, 0), (16, 1), (16, 8), (33, 0), (33, 3), (33, 129)])
def test_batched_partials_charge_what_lockstep_charges(nprocs, per, scheme):
    """Reductions, products, scans and shifts over ranks that hold
    nothing (``per == 0``), one run of equally loaded ranks and two:
    the fused pass — one kernel call per run — charges every rank
    exactly what its own lockstep call charges, event for event."""
    from repro.tuning import Plan
    from tests.corpus import batched_ops_source

    n = max(per * nprocs + (nprocs + 1) // 2, 2)
    program = compile_source(batched_ops_source(n, nprocs), name="batched")
    runs = {backend: program.run(nprocs=nprocs, machine=FATTREE_CLUSTER,
                                 backend=backend, plan=Plan(scheme=scheme),
                                 trace=True)
            for backend in ("lockstep", "fused")}
    assert runs["fused"].spmd.backend == "fused"
    assert _accounting(runs["fused"]) == _accounting(runs["lockstep"])
    assert canonical_events(runs["fused"].trace) \
        == canonical_events(runs["lockstep"].trace)
    for name, value in runs["lockstep"].workspace.items():
        np.testing.assert_array_equal(runs["fused"].workspace[name], value)


@pytest.mark.parametrize("nprocs", MEMO_NPROCS)
def test_large_shift_alltoall_sizing_matches_lockstep(nprocs):
    """Shifts beyond the smallest block take the alltoall path, whose
    payload size the fused backend now derives from the geometry."""
    source = "\n".join(
        ["n = 45;", "v = linspace(1, 2, n);", "w = (1:n)';"]
        + [f"a{i} = circshift(v, {k});\nb{i} = circshift(w, {k});"
           for i, k in enumerate((4, 7, 22, 23, 38, 44, -5, -31, 52))]
        + ["s = sum(a0 + a3 + a8) + sum(b1 + b6);"])
    program = compile_source(source, name="big_shift")
    runs = {backend: program.run(nprocs=nprocs, machine=MEIKO_CS2,
                                 backend=backend)
            for backend in ("lockstep", "fused")}
    assert runs["fused"].spmd.backend == "fused"
    assert _accounting(runs["fused"]) == _accounting(runs["lockstep"])
    if nprocs != 2:     # two halves: every shift is within one block
        assert runs["fused"].spmd.collective_counts["alltoall"] > 0
    for name, value in runs["lockstep"].workspace.items():
        np.testing.assert_array_equal(runs["fused"].workspace[name], value)


def test_memoized_cost_vectors_are_read_only_and_never_alias_clocks():
    comm = FusedComm(4, MEIKO_CS2)
    counts = (5, 5, 4, 4)
    comm.compute_ranks(elems=counts, mem=counts)
    (dts,) = comm._compute_memo.values()
    with pytest.raises(ValueError):
        dts[0] = 1.0
    want = MEIKO_CS2.compute_time_vec(elems=counts, mem=counts,
                                      active_cpus=4)
    assert dts.tolist() == want.tolist()
    comm.compute_ranks(elems=counts, mem=counts)        # the memo hit
    assert len(comm._compute_memo) == 1
    assert not np.shares_memory(comm.world.clocks, dts)
    assert dts.tolist() == want.tolist()                # += left it alone
    assert comm.world.clocks.tolist() == (want + want).tolist()
    # list operands are data-dependent: charged, never cached
    comm.compute_ranks(elems=list(counts))
    assert len(comm._compute_memo) == 1

    comm.ring_exchange(64, forward=True)
    comm.ring_exchange(64, forward=True)
    ((dests, sources, inject, ptime),) = comm._ring_memo.values()
    assert dests.tolist() == [1, 2, 3, 0] and sources.tolist() == [3, 0, 1, 2]
    for column in (dests, sources, inject, ptime):
        assert not np.shares_memory(comm.world.clocks, column)
        with pytest.raises(ValueError):
            column[0] = 0


def _count_calls(fn):
    """``call`` + ``c_call`` profile events while ``fn()`` runs."""
    counter = itertools.count()

    def profiler(_frame, event, _arg):
        if event == "call" or event == "c_call":
            next(counter)

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return next(counter)


def test_fused_elementwise_calls_do_not_grow_with_nprocs():
    """Geometry and accounting dispatch are O(1) Python per op: an
    elementwise-only program makes (nearly) the same number of calls at
    P=256 as at P=16.  The slack covers the per-run result assembly,
    which lists one peak per rank."""
    program = compile_source("""\
n = 4096;
x = linspace(0, 1, n);
y = x .* x + 2 * x;
for s = 1:200
    y = sqrt(abs(y)) + 0.5 * x - y .* x;
end
z = y ./ (1 + x);
""", name="ew_only")
    counts = {}
    for nprocs in (16, 256):
        def run():
            result = program.run(nprocs=nprocs, machine=FATTREE_CLUSTER,
                                 backend="fused")
            assert result.spmd.backend == "fused"

        run()       # interns this P's geometries, builds native kernels
        counts[nprocs] = _count_calls(run)
    assert counts[256] <= 1.1 * counts[16], counts
