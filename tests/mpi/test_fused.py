"""The rank-fused backend: one pass stands in for all P ranks.

Covers the fusion contract from three angles:

* unit level — the ``FusedComm`` facade's accounting primitives;
* fallback level — a raw body's rank-dependent observation raises
  ``FusionDivergence`` and ``run_spmd`` transparently re-runs under
  lockstep, returning the *fallback* result (never partial fused state);
  a compiled program that reads the clock (``tic``/``toc``) runs on
  lockstep from the start and never takes that re-run;
* program level — compiled MATLAB runs fused with workspaces, per-rank
  virtual clocks, and message/byte/collective tallies bit-identical to
  lockstep, and the guarded-store fast path stops copying the local
  block on every scalar element store.
"""

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.interp.interpreter import run_source
from repro.mpi import (
    MEIKO_CS2,
    FusedComm,
    FusionDivergence,
    run_spmd,
)
from repro.mpi import executor
from repro.runtime.context import RuntimeContext


def _no_fused_pass(monkeypatch):
    """Make any fused pass (and so any fused→lockstep re-run) fail."""
    def refused(*args, **kwargs):
        raise AssertionError("a fused pass started")

    monkeypatch.setattr(executor, "_run_fused", refused)


# -- FusedComm ----------------------------------------------------------- #


class TestFusedComm:
    def test_rank_observation_diverges(self):
        comm = FusedComm(3, MEIKO_CS2)
        with pytest.raises(FusionDivergence):
            comm.rank
        with pytest.raises(FusionDivergence):
            comm.time

    def test_point_to_point_diverges(self):
        comm = FusedComm(2, MEIKO_CS2)
        with pytest.raises(FusionDivergence):
            comm.send(1.0, dest=1)
        with pytest.raises(FusionDivergence):
            comm.recv(source=0)

    def test_replicated_collectives_fold_all_ranks(self):
        comm = FusedComm(4, MEIKO_CS2)
        assert comm.allreduce(2.0) == 8.0
        assert comm.allgather(1.5) == [1.5] * 4
        assert comm.bcast(7.0, root=2) == 7.0
        counts = comm.world.collective_counts
        assert counts == {"allreduce": 1, "allgather": 1, "bcast": 1}

    def test_collectives_advance_every_clock_together(self):
        comm = FusedComm(3, MEIKO_CS2)
        comm.allreduce(1.0)
        clocks = comm.world.clocks
        assert clocks[0] > 0
        assert clocks.tolist() == [clocks[0]] * 3


# -- fallback semantics -------------------------------------------------- #


class TestFusionFallback:
    def test_rank_dependent_program_falls_back_to_lockstep(self):
        calls = []
        res = run_spmd(3, MEIKO_CS2, lambda comm: comm.rank,
                       backend="fused", on_fused_fallback=lambda: calls.append(1))
        assert res.backend == "lockstep"
        assert res.results == [0, 1, 2]
        assert calls == [1]

    def test_fallback_matches_pure_lockstep_run(self):
        def prog(comm):
            acc = float(comm.rank + 1)
            acc = comm.sendrecv(acc, dest=(comm.rank + 1) % comm.size,
                                source=(comm.rank - 1) % comm.size)
            return comm.allreduce(acc)

        fused = run_spmd(4, MEIKO_CS2, prog, backend="fused")
        lockstep = run_spmd(4, MEIKO_CS2, prog, backend="lockstep")
        assert fused.results == lockstep.results
        assert fused.times == lockstep.times
        assert fused.messages_sent == lockstep.messages_sent
        assert fused.bytes_sent == lockstep.bytes_sent
        assert fused.collective_counts == lockstep.collective_counts

    def test_rank_agnostic_program_stays_fused(self):
        res = run_spmd(3, MEIKO_CS2, lambda comm: comm.allreduce(1.0),
                       backend="fused")
        assert res.backend == "fused"
        assert res.results == [3.0] * 3

    def test_divergence_discards_partial_fused_state(self):
        """A raw body that writes *before* it reads ``comm.rank``: the
        fused pass writes, then diverges — the hook discards what it
        wrote, so the lockstep re-run's writes are the only ones."""
        written = []

        def prog(comm):
            written.append(comm.allreduce(1.0))
            return comm.allreduce(float(comm.rank))

        fused = run_spmd(3, MEIKO_CS2, prog, backend="fused",
                         on_fused_fallback=written.clear)
        assert fused.backend == "lockstep"
        assert written == [3.0] * 3
        lockstep = run_spmd(3, MEIKO_CS2, prog, backend="lockstep")
        assert fused.results == lockstep.results == [3.0] * 3
        assert fused.times == lockstep.times

    def test_compiled_toc_program_runs_lockstep_from_the_start(
            self, monkeypatch):
        """A program that prints *before* folding a rank-varying ``toc``
        into distributed data: it runs on lockstep from the start (no
        fused pass, so nothing to discard), prints once, and matches an
        explicit lockstep run."""
        src = """
        disp(42);
        n = 5;
        v = ones(n, 1);
        tic;
        s = sum(v);
        t = toc;
        v = v * t;
        total = sum(v);
        """
        prog = compile_source(src)
        assert prog.reads_clock
        _no_fused_pass(monkeypatch)
        # n=5 over 3 ranks → uneven blocks → per-rank compute times differ
        # → toc differs by rank
        default = prog.run(nprocs=3, backend="fused")
        assert default.spmd.backend == "lockstep"
        lockstep = prog.run(nprocs=3, backend="lockstep")
        assert default.output == lockstep.output
        assert default.output.count("42") == 1
        assert default.workspace["total"] == lockstep.workspace["total"]
        assert default.spmd.times == lockstep.spmd.times

    def test_branch_on_toc_runs_lockstep(self, monkeypatch):
        """`if t > 0` with a rank-varying (all-positive) t: every rank
        takes the branch on its own clock."""
        src = """
        n = 5;
        v = ones(n, 1);
        tic;
        s = sum(v);
        t = toc;
        if t > 0
          v = v * 2;
        end
        total = sum(v);
        """
        _no_fused_pass(monkeypatch)
        res = compile_source(src).run(nprocs=3, backend="fused")
        assert res.spmd.backend == "lockstep"
        assert res.workspace["total"] == 10.0

    def test_compiled_uniform_toc_runs_lockstep(self, monkeypatch):
        # even split → identical per-rank clocks, yet the program reads
        # the clock: lockstep, and toc is a plain positive float
        src = "v = ones(8, 1);\ntic;\ns = sum(v);\nt = toc;\n"
        _no_fused_pass(monkeypatch)
        res = compile_source(src).run(nprocs=4, backend="fused")
        assert res.spmd.backend == "lockstep"
        assert type(res.workspace["t"]) is float and res.workspace["t"] > 0

    @pytest.mark.parametrize("value", ("rand(8, 8)", "rand(8, 8) + 2i"))
    def test_isreal_of_a_distributed_matrix_stays_fused(self, value):
        # isreal reads the descriptor's dtype, never one rank's block
        src = f"A = {value};\nt = isreal(A);\ndisp(t);\n"
        res = compile_source(src).run(nprocs=4, backend="fused")
        assert res.spmd.backend == "fused"
        assert res.output == "".join(run_source(src).output)
        assert res.workspace["t"] == (1.0 if value == "rand(8, 8)" else 0.0)


# -- compiled-program equivalence ---------------------------------------- #

_EXAMPLES = {
    "stencil": """
        n = 24;
        u = zeros(n, 1);
        u(1) = 1;
        for step = 1:10
          u = 0.5 * u + 0.25 * (circshift(u, 1) + circshift(u, -1));
        end
        checksum = sum(u);
        """,
    "cg_like": """
        n = 16;
        A = rand(n, n);
        A = A' * A + n * eye(n);
        b = ones(n, 1);
        x = zeros(n, 1);
        r = b - A * x;
        p = r;
        for it = 1:8
          Ap = A * p;
          alpha = (r' * r) / (p' * Ap);
          x = x + alpha * p;
          rnew = r - alpha * Ap;
          beta = (rnew' * rnew) / (r' * r);
          p = rnew + beta * p;
          r = rnew;
        end
        resid = norm(r);
        """,
    "sort_scan": """
        n = 30;
        v = rand(n, 1);
        w = sort(v);
        c = cumsum(w);
        m = median(v);
        total = sum(c) + m;
        """,
}


class TestCompiledEquivalence:
    @pytest.mark.parametrize("key", sorted(_EXAMPLES))
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 7])
    def test_fused_is_bit_identical_to_lockstep(self, key, nprocs):
        prog = compile_source(_EXAMPLES[key])
        lockstep = prog.run(nprocs=nprocs, backend="lockstep")
        fused = prog.run(nprocs=nprocs, backend="fused")
        assert fused.spmd.backend == "fused"
        assert fused.output == lockstep.output
        assert fused.spmd.times == lockstep.spmd.times
        assert fused.spmd.messages_sent == lockstep.spmd.messages_sent
        assert fused.spmd.bytes_sent == lockstep.spmd.bytes_sent
        assert fused.spmd.collective_counts == lockstep.spmd.collective_counts
        assert set(fused.workspace) == set(lockstep.workspace)
        for name in lockstep.workspace:
            a = np.asarray(lockstep.workspace[name])
            b = np.asarray(fused.workspace[name])
            assert np.array_equal(a, b), name

    def test_peak_local_bytes_replicated_across_ranks(self):
        prog = compile_source("a = rand(12, 12);\ns = sum(sum(a));")
        res = prog.run(nprocs=4, backend="fused")
        assert len(res.peak_local_bytes) == 4
        assert res.peak_local_bytes[0] > 0
        assert res.peak_local_bytes == [res.peak_local_bytes[0]] * 4


# -- guarded-store fast path (satellite) --------------------------------- #


def _store_loop(comm, iterations, alias):
    """Mimic emitted code: ``v = rt.set_element(v, ..., reuse=True)``."""
    rt = RuntimeContext(comm, seed=0)
    v = rt.zeros(iterations, 1)
    keep = v if alias else None
    for i in range(iterations):
        v = rt.set_element(v, [float(i + 1)], float(i), reuse=True)
    copies = rt.set_element_copies
    if keep is not None:
        # the aliased descriptor must still see the original zeros
        rt.to_interp_value(keep)
    else:
        rt.to_interp_value(v)
    return copies


class TestSetElementFastPath:
    @pytest.mark.parametrize("backend", ["lockstep", "fused"])
    def test_unaliased_stores_never_copy(self, backend):
        res = run_spmd(3, MEIKO_CS2, _store_loop, 12, False, backend=backend)
        assert res.backend == backend
        assert all(c == 0 for c in res.results)

    @pytest.mark.parametrize("backend", ["lockstep", "fused"])
    def test_aliased_store_copies_once_then_goes_in_place(self, backend):
        # the first store sees the alias and copies; the rebound variable
        # is then uniquely owned, so the remaining 11 stores mutate in place
        res = run_spmd(3, MEIKO_CS2, _store_loop, 12, True, backend=backend)
        assert all(c == 1 for c in res.results)

    def test_compiled_alias_is_not_clobbered(self):
        """``b = a`` then a scalar store into ``a``: the in-place fast
        path must detect the alias and copy, leaving ``b`` intact."""
        src = """
        a = zeros(3, 3);
        b = a;
        a(2, 2) = 7;
        bsum = sum(sum(b));
        asum = sum(sum(a));
        """
        for backend in ("lockstep", "fused"):
            res = compile_source(src).run(nprocs=2, backend=backend)
            assert res.workspace["bsum"] == 0.0, backend
            assert res.workspace["asum"] == 7.0, backend

    def test_default_reuse_is_functional(self):
        """Without ``reuse=True`` (direct API use), set_element always
        leaves the input descriptor untouched."""
        def prog(comm):
            rt = RuntimeContext(comm, seed=0)
            v = rt.zeros(4, 1)
            w = rt.set_element(v, [1.0], 9.0)
            return (float(np.asarray(rt.to_interp_value(v))[0, 0]),
                    float(np.asarray(rt.to_interp_value(w))[0, 0]))

        res = run_spmd(2, MEIKO_CS2, prog)
        assert res.results[0] == (0.0, 9.0)
