"""Differential testing: the lockstep and fused backends — and every
lockstep schedule — must be observationally identical.

The scheduler changes *when* carrier threads run (or whether ranks run
at all, for fused), never *what* the simulated machine does — virtual
clocks, message/byte counts, and collective tallies are all functions of
the program alone.  Randomized SPMD programs (hypothesis) run on every
backend, and under lockstep with the scheduler's initial run-queue order
permuted (reversed, rotated, seed-shuffled: a deterministic stand-in for
"whichever rank the OS happens to run first"), and every observable must
match bit-for-bit.

The generated programs are deterministic by construction: point-to-point
uses explicit (source, tag) pairs (a receive has no wildcard to race) and
collective cost formulas charge the symmetric ``max`` of the per-slot
``sizeof`` contributions, so no rank's wire size is privileged.

The raw-comm programs below all read ``comm.rank``, so under
``backend="fused"`` they exercise the FusionDivergence → lockstep
fallback: the run must still be observationally identical (it *is* a
lockstep run, transparently).  Compiled MATLAB programs are rank-
agnostic at the source level and execute genuinely fused.
"""

import hashlib
import random
from collections import deque
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source
from repro.frontend.mfile import DictProvider
from repro.mpi import MEIKO_CS2, run_spmd
from repro.mpi.scheduler import LockstepScheduler
from repro.trace import canonical_events
from tests.corpus import shipped_programs

# -- program generator --------------------------------------------------- #


@st.composite
def spmd_programs(draw):
    """(nprocs, ops): a random straight-line SPMD program."""
    nprocs = draw(st.integers(min_value=2, max_value=5))
    n_ops = draw(st.integers(min_value=1, max_value=10))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["compute", "ring", "p2p", "allreduce", "bcast", "barrier",
             "allgather", "scan", "array_ring"]))
        if kind == "compute":
            ops.append(("compute", draw(st.integers(1, 2000))))
        elif kind in ("ring", "array_ring"):
            ops.append((kind, draw(st.integers(0, 3))))
        elif kind == "p2p":
            src = draw(st.integers(0, nprocs - 1))
            dst = (src + 1 + draw(st.integers(0, nprocs - 2))) % nprocs
            ops.append(("p2p", src, dst, draw(st.integers(0, 3))))
        elif kind == "bcast":
            ops.append(("bcast", draw(st.integers(0, nprocs - 1))))
        else:
            ops.append((kind,))
    return nprocs, ops


def _make_program(ops):
    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        acc = float(comm.rank + 1)
        for op in ops:
            kind = op[0]
            if kind == "compute":
                comm.compute(flops=op[1] * (comm.rank + 1))
            elif kind == "ring":
                acc = float(comm.sendrecv(acc, dest=right, sendtag=op[1],
                                          source=left, recvtag=op[1]))
            elif kind == "array_ring":
                got = comm.sendrecv(np.full(4, acc), dest=right,
                                    sendtag=op[1], source=left,
                                    recvtag=op[1])
                acc = float(np.asarray(got).sum())
            elif kind == "p2p":
                _, src, dst, tag = op
                if comm.rank == src:
                    comm.send(acc, dest=dst, tag=tag)
                elif comm.rank == dst:
                    acc += float(comm.recv(source=src, tag=tag))
            elif kind == "allreduce":
                acc = float(comm.allreduce(acc))
            elif kind == "bcast":
                acc = float(comm.bcast(acc, root=op[1]))
            elif kind == "barrier":
                comm.barrier()
            elif kind == "allgather":
                acc = float(sum(comm.allgather(acc)))
            elif kind == "scan":
                acc += comm.exscan(acc) or 0.0
        return acc
    return prog


def _observables(result):
    return {
        "results": result.results,
        "times": result.times,
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
        "collectives": result.collectives,
        "collective_counts": result.collective_counts,
    }


def _traced_observables(result):
    sha = hashlib.sha256(
        canonical_events(result.trace).encode()).hexdigest()
    return dict(_observables(result), trace_sha=sha)


# -- schedule permutation -------------------------------------------------- #

_ORDERS = {
    "reversed": lambda ranks, seed: ranks[::-1],
    "rotated": lambda ranks, seed: ranks[seed % len(ranks):]
    + ranks[:seed % len(ranks)],
    "shuffled": lambda ranks, seed: random.Random(seed).sample(
        ranks, len(ranks)),
}


@contextmanager
def initial_run_queue(order, seed=1):
    """Start every lockstep world in this block with its run queue
    permuted.  Test-only: the product has (and needs) no such knob —
    the queue is patched from outside."""
    init = LockstepScheduler.__init__

    def permuted_init(self, nprocs):
        init(self, nprocs)
        self._run_queue = deque(_ORDERS[order](list(range(nprocs)), seed))

    with mock.patch.object(LockstepScheduler, "__init__", permuted_init):
        yield


# -- the differential properties ----------------------------------------- #


@settings(max_examples=25, deadline=None)
@given(spmd_programs())
def test_backends_observationally_identical(program):
    nprocs, ops = program
    prog = _make_program(ops)
    lockstep = run_spmd(nprocs, MEIKO_CS2, prog, backend="lockstep")
    fused = run_spmd(nprocs, MEIKO_CS2, prog, backend="fused")
    # prog reads comm.rank, so fused falls back to lockstep — the result
    # must be indistinguishable from a lockstep run
    assert fused.backend == "lockstep"
    assert _observables(lockstep) == _observables(fused)


@settings(max_examples=25, deadline=None)
@given(spmd_programs(), st.sampled_from(sorted(_ORDERS)),
       st.integers(min_value=1, max_value=2 ** 16))
def test_lockstep_is_schedule_independent(program, order, seed):
    """Whichever rank runs first, the simulated machine does the same
    thing: results, per-rank clocks, message/byte/collective counts and
    the canonical trace are functions of the program alone (the
    generated programs, like every receive, name their source)."""
    nprocs, ops = program
    prog = _make_program(ops)
    default = run_spmd(nprocs, MEIKO_CS2, prog, backend="lockstep",
                       trace=True)
    with initial_run_queue(order, seed):
        permuted = run_spmd(nprocs, MEIKO_CS2, prog, backend="lockstep",
                            trace=True)
    assert _traced_observables(permuted) == _traced_observables(default)


# -- compiled-program differential: fused runs for real ------------------ #

_STMT_POOL = [
    "a = a + rand(n, n);",
    "a = a * a';",
    "a = tril(a) + triu(a);",
    "v = a * v;",
    "v = v / (norm(v) + 1);",
    "v = cumsum(v);",
    "v = sort(v);",
    "v = circshift(v, 2);",
    "s = sum(v); v = v + s / n;",
    "s = max(v) - min(v); a = a + s;",
    "v = fliplr(v')';",
    "for i = 1:3\n  v(i) = v(i) + i;\nend",
]


@st.composite
def matlab_programs(draw):
    nprocs = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.sampled_from([5, 8, 13]))
    stmts = draw(st.lists(st.sampled_from(_STMT_POOL),
                          min_size=1, max_size=5))
    src = "\n".join([f"n = {n};", "a = rand(n, n);", "v = rand(n, 1);"]
                    + stmts + ["total = sum(sum(a)) + sum(v);"])
    return nprocs, src


def _listed(value):
    """``value`` as nested lists with each NaN as ``None``: NaN compares
    unequal to itself, so a workspace that holds one would never
    match."""
    arr = np.asarray(value)
    if arr.dtype.kind in "fc":
        arr = np.where(np.isnan(arr), None, arr)
    return arr.tolist()


def _run_observables(result):
    spmd = result.spmd
    return result.output, _observables(spmd), {
        k: _listed(val) for k, val in result.workspace.items()}


@settings(max_examples=20, deadline=None)
@given(matlab_programs())
def test_compiled_programs_fused_equals_lockstep(program):
    """Fused execution of compiled MATLAB is bit-identical to lockstep:
    same workspace, same per-rank virtual clocks, same message/byte/
    collective accounting."""
    nprocs, src = program
    prog = compile_source(src)
    lockstep = prog.run(nprocs=nprocs, backend="lockstep")
    fused = prog.run(nprocs=nprocs, backend="fused")
    assert fused.spmd.backend == "fused"
    out_l, obs_l, ws_l = _run_observables(lockstep)
    out_f, obs_f, ws_f = _run_observables(fused)
    obs_l.pop("results"), obs_f.pop("results")
    assert out_l == out_f
    assert obs_l == obs_f
    assert ws_l == ws_f


# -- the batched partial kernels, end to end ------------------------------ #


@st.composite
def batched_op_runs(draw):
    """A shape for ``tests.corpus.batched_ops_source``: ranks holding
    nothing (``n < nprocs``), one run and two runs of equally loaded
    ranks, blocks past numpy's pairwise-summation block."""
    nprocs = draw(st.sampled_from([1, 2, 3, 7, 16, 33]))
    per = draw(st.sampled_from([0, 1, 2, 3, 8, 17, 129]))
    n = max(per * nprocs + draw(st.integers(0, nprocs - 1)), 2)
    return (nprocs, n, draw(st.sampled_from(["block", "cyclic"])),
            draw(st.integers(0, 2 ** 16)))


@settings(max_examples=20, deadline=None)
@given(batched_op_runs())
def test_batched_partials_fused_equals_lockstep(run):
    """One numpy call per run of ranks computes what each lockstep rank
    computes from its own block: same values, bit for bit, same clocks,
    counts and canonical trace."""
    from repro.mpi import FATTREE_CLUSTER
    from repro.tuning import Plan
    from tests.corpus import batched_ops_source

    nprocs, n, scheme, seed = run
    prog = compile_source(batched_ops_source(n, nprocs, seed))
    seen = []
    for backend in ("lockstep", "fused"):
        result = prog.run(nprocs=nprocs, machine=FATTREE_CLUSTER,
                          backend=backend, plan=Plan(scheme=scheme),
                          trace=True)
        assert result.spmd.backend == backend
        obs = _traced_observables(result.spmd)
        obs.pop("results")
        seen.append((obs, {name: np.asarray(value).tobytes()
                           for name, value in result.workspace.items()}))
    assert seen[0] == seen[1]


# -- the op bodies written once against the descriptor --------------------- #

_ONE_BODY_OPS = """
rand('seed', 1);
A = rand(n, 3) + 1; v = rand(n, 1) + 1; w = rand(1, n) + 1;
Z = zeros(n, 2); O = ones(2, n); E = eye(n);
L = [1, 2; 3, 4; 5, 6]; M = [v', 7; 8, w];
f = fliplr(A); lo = tril(A); up = triu(A, 1);
rs = sum(A, 2); rp = prod(A, 2); rz = sum(A + 1i * f, 2); o = v * w;
vt = v'; wt = w.'; zc = (v + 1i * w')';
q = circshift(A, [0, 1]); q0 = circshift(A, [0, 0]); v0 = circshift(v, 0);
e = A .* 2 + f ./ 3 - 1;
mv = A * [1; 2; 3]; wa = w * A; ab = A * L; dv = w * v; vv = v' * v;
zv = v + 1i * w'; cz = zc * zc'; zz = zv' * zv; atb = A' * f; atv = A' * v;
t1 = trapz(v); t2 = trapz(v .* 2, v); t3 = trapz2(A);
sv = sum(v); sw = max(w); sc = sum(A); mc = max(A); nc = min(A + 1i * f);
[mm, kk] = max(v); [mn, kn] = min(w);
if A
  k = 1;
else
  k = 2;
end
if v - v
  m = 1;
else
  m = 2;
end
"""


@pytest.mark.parametrize("scheme", ["block", "cyclic"])
@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 16])
def test_one_body_ops_charge_each_rank_its_own_load(nprocs, scheme):
    """The bodies that exist once (creation, literals, ``ew``, truth
    tests, column shifts and flips, triangles, row reductions, outer
    products, vector transposes, the products and dots, ``A' * B`` and
    ``A' * v``, ``trapz``/``trapz2``, vector and column reductions)
    charge a lockstep rank the size of its real block and a fused rank
    its ``geom.counts`` entry: the clocks, counts, traces and values
    must agree — ranks holding nothing (``n < nprocs``) and unevenly
    loaded ones included."""
    from repro.tuning import Plan

    for n in (2, 5, 16):
        prog = compile_source(f"n = {n};" + _ONE_BODY_OPS)
        seen = []
        for backend in ("lockstep", "fused"):
            result = prog.run(nprocs=nprocs, backend=backend,
                              plan=Plan(scheme=scheme), trace=True)
            assert result.spmd.backend == backend
            obs = _traced_observables(result.spmd)
            obs.pop("results")
            seen.append((obs, {name: np.asarray(value).tobytes()
                               for name, value in result.workspace.items()}))
        assert seen[0] == seen[1], n


# -- plan differential: any plan, every backend, same observables --------- #


@st.composite
def plans(draw):
    """A random (but always valid) optimization plan."""
    from repro.tuning import Plan

    scheme = draw(st.sampled_from(["block", "cyclic"]))
    dist_names = draw(st.sets(st.sampled_from(["a", "v", "s"]), max_size=3))
    dist = tuple(sorted(
        (name, draw(st.sampled_from(["block", "cyclic"])))
        for name in dist_names))
    fusion = tuple(draw(st.permutations(sorted(draw(st.sets(
        st.sampled_from(["transpose_matmul", "cse"]), max_size=2))))))
    return Plan(
        scheme=scheme,
        dist=dist,
        fusion=fusion,
        licm=draw(st.sampled_from(["off", "safe", "aggressive"])),
        gather_algo=draw(st.sampled_from(["ring", "doubling"])),
        allreduce_algo=draw(st.sampled_from(["tree", "halving"])),
    )


@settings(max_examples=15, deadline=None)
@given(matlab_programs(), plans())
def test_any_plan_is_backend_invariant(program, plan):
    """The plan changes *what* the compiler and runtime decide — never
    the simulated machine's determinism: under any plan, lockstep
    (in default and reversed rank order) and fused execution agree
    bit-for-bit on workspace values, program output, virtual clocks,
    and communication accounting."""
    nprocs, src = program
    prog = compile_source(src, plan=plan)
    runs = {backend: prog.run(nprocs=nprocs, backend=backend, plan=plan)
            for backend in ("lockstep", "fused")}
    with initial_run_queue("reversed"):
        runs["lockstep-reversed"] = prog.run(
            nprocs=nprocs, backend="lockstep", plan=plan)
    out_ref, obs_ref, ws_ref = _run_observables(runs.pop("lockstep"))
    obs_ref.pop("results")
    for backend, run in runs.items():
        out, obs, ws = _run_observables(run)
        obs.pop("results")
        assert out == out_ref, backend
        assert obs == obs_ref, backend
        assert ws == ws_ref, backend


@pytest.mark.parametrize("scheme", ["block", "cyclic"])
@pytest.mark.parametrize("nprocs", [1, 3, 4])
def test_unguarded_element_store_is_backend_invariant(nprocs, scheme):
    """A store pass 5 leaves unguarded runs through the run-time
    ``index_assign``: gather the matrix, store, redistribute.  The plan
    differential above no longer reaches that path (pass 5 guards every
    store its programs make), so it is pinned here on both
    communicators: same values, clocks and communication accounting."""
    from repro.runtime.context import RuntimeContext

    def main(comm):
        rt = RuntimeContext(comm, seed=3, scheme=scheme)
        try:
            v = rt.rand(7.0, 1.0)
            a = rt.rand(5.0, 4.0)
            stored = (rt.index_assign(v, [3.0], 2.5),
                      rt.index_assign(a, [2.0, 4.0], -1.0),
                      rt.index_assign(a, [9.0], 0.5))
            return [rt.to_interp_value(x) for x in (v, a, *stored)]
        finally:
            rt.close()

    runs = [run_spmd(nprocs, MEIKO_CS2, main, backend=backend)
            for backend in ("lockstep", "fused")]
    assert runs[1].backend == "fused"
    v, a, v_set, a_set, a_linear = runs[0].results[0]
    want_v, want_a = v.copy(), a.copy()
    want_v[2, 0] = 2.5
    want_a[1, 3] = -1.0
    np.testing.assert_array_equal(v_set, want_v)
    np.testing.assert_array_equal(a_set, want_a)
    want_a = a.copy()
    want_a[3, 1] = 0.5                  # linear index 9, column-major
    np.testing.assert_array_equal(a_linear, want_a)
    lockstep, fused = (_observables(run) for run in runs)
    assert [np.asarray(x).tobytes() for x in lockstep.pop("results")[0]] \
        == [np.asarray(x).tobytes() for x in fused.pop("results")[0]]
    assert lockstep == fused


# -- the default configuration: fused runs, lockstep is the oracle --------- #


@pytest.fixture
def default_config(monkeypatch):
    """No ``REPRO_*`` variable set (CI's oracle leg exports the backend),
    and a list that receives one entry per fused→lockstep re-run of a
    compiled program."""
    import os

    from repro import compiler

    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    fallbacks = []
    run = compiler.run_spmd

    def spying(*args, on_fused_fallback, **kwargs):
        def hook():
            fallbacks.append(args[2].__name__)
            on_fused_fallback()
        return run(*args, on_fused_fallback=hook, **kwargs)

    monkeypatch.setattr(compiler, "run_spmd", spying)
    return fallbacks


_SHIPPED = {label: program for label, program in shipped_programs().items()
            if not label.endswith("@paper")}


@pytest.mark.parametrize("label", sorted(_SHIPPED))
def test_shipped_programs_fuse_under_the_default_config(label,
                                                        default_config):
    """Every program the repo ships runs fused with no flag and a clean
    environment — never falling back — and an explicit lockstep run
    agrees on output, values, clocks, counts and canonical trace."""
    source, mfiles = _SHIPPED[label]
    prog = compile_source(source, provider=DictProvider(mfiles))
    for nprocs in (1, 4):
        default = prog.run(nprocs=nprocs, trace=True)
        assert default.spmd.backend == "fused" and default_config == []
        oracle = prog.run(nprocs=nprocs, backend="lockstep", trace=True)
        assert oracle.spmd.backend == "lockstep"
        out_d, obs_d, ws_d = _run_observables(default)
        out_o, obs_o, ws_o = _run_observables(oracle)
        obs_d.pop("results"), obs_o.pop("results")
        assert (out_d, obs_d, ws_d) == (out_o, obs_o, ws_o)
        assert canonical_events(default.trace) \
            == canonical_events(oracle.trace)


_TOC_BRANCH = """
rand('seed', 3);
v = rand(5, 1);
tic;
s = sum(v);
t = toc;
if t
  timed = 1;
end
v = circshift(v, 1) * 2;
total = sum(v);
"""


@pytest.mark.parametrize("knobs", [
    {},                                     # uneven blocks: t varies by rank
    {"fault_plan": "seed=7; drop src=0 count=1", "on_fault": "retry"},
], ids=["toc-feeds-a-branch", "one-dropped-message"])
def test_what_cannot_fuse_ends_on_lockstep_under_the_default(
        knobs, default_config):
    """A rank-dependent program and a chaos plan, with no backend named:
    the result is the lockstep oracle's — and the interpreter's — and
    ``SpmdResult.backend`` says which backend produced it."""
    from repro.interp.interpreter import run_source

    prog = compile_source(_TOC_BRANCH)
    default = prog.run(nprocs=3, **knobs)
    assert default.spmd.backend == "lockstep"
    assert len(default_config) == 1         # one re-run, not a loop
    oracle = prog.run(nprocs=3, backend="lockstep", **knobs)
    out_d, obs_d, ws_d = _run_observables(default)
    out_o, obs_o, ws_o = _run_observables(oracle)
    obs_d.pop("results"), obs_o.pop("results")
    assert (out_d, obs_d, ws_d) == (out_o, obs_o, ws_o)
    assert default.spmd.fault_events == oracle.spmd.fault_events
    assert bool(default.spmd.fault_events) == bool(knobs)
    expected = run_source(_TOC_BRANCH).workspace
    for name in ("v", "s", "total"):
        np.testing.assert_array_equal(
            np.asarray(default.workspace[name]), np.asarray(expected[name]))


def test_backends_identical_on_mixed_fixed_program():
    """A dense hand-written program exercising every primitive at once
    (kept non-random so failures reproduce without hypothesis)."""
    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        local = np.full(8, float(comm.rank + 1))
        for step in range(3):
            local = np.asarray(
                comm.sendrecv(local, dest=right, source=left,
                              sendtag=step, recvtag=step))
            comm.compute(flops=50 * (comm.rank + 1), mem=local.size)
            total = comm.allreduce(float(local.sum()))
            local = local + comm.bcast(total, root=step % comm.size)
            comm.send(float(local[0]), dest=right, tag=100 + step)
            local[0] = comm.recv(source=left, tag=100 + step)
        total = sum(comm.allgather(float(local.sum())))
        comm.barrier()
        return total + (comm.exscan(total) or 0.0)

    lockstep = run_spmd(4, MEIKO_CS2, prog, backend="lockstep",
                        trace=True)
    for order in sorted(_ORDERS):
        with initial_run_queue(order, seed=3):
            permuted = run_spmd(4, MEIKO_CS2, prog, backend="lockstep",
                                trace=True)
        assert _traced_observables(permuted) == \
            _traced_observables(lockstep), order
    assert lockstep.collective_counts["allreduce"] == 3
    assert lockstep.collective_counts["scan"] == 1
