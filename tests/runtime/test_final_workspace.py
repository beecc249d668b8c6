"""The final workspace is built on the host, once, after the program.

Every rank's program returns its raw workspace; ``replicate_workspace``
assembles rank 0's view from the ranks' blocks.  It is not part of the
program: no collective, checkpoint, crash check or trace event — and
its values are the ones a gather would have made, on both backends and
against the interpreter oracle.
"""

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.errors import MpiError
from repro.interp.interpreter import run_source
from repro.mpi import MEIKO_CS2
from repro.mpi.fused import PerRankScalar
from repro.runtime.context import replicate_workspace
from repro.runtime.matrix import DMatrix
from repro.trace import canonical_events
from repro.tuning import Plan

BACKENDS = ("lockstep", "fused")

NO_GATHER = "x = ones(1,100); y = x + 1;\n"

#: real, complex and logical values; row and column vectors; matrices;
#: a 3-element vector that leaves ranks empty at P > 3
VALUES = """\
r = rand(1, 40);
c = rand(37, 1) * 2 - 1i * ones(37, 1);
m = rand(9, 5) + 3;
mc = m * 1i + m;
l = r > 0.5;
lc = c' > 0;
t = [1, 2, 3] * 2;
tc = [4; 5; 6] + 1i;
s = 7;
"""


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nprocs", [1, 2, 4, 16])
@pytest.mark.parametrize("backend", BACKENDS)
def test_the_final_workspace_is_not_a_collective(backend, nprocs):
    run = compile_source(NO_GATHER).run(nprocs, MEIKO_CS2, backend=backend)
    assert run.spmd.collectives == 0
    assert run.spmd.collective_counts == {}
    assert sorted(run.workspace) == ["x", "y"]
    _same_bytes(run.workspace["y"], np.full((1, 100), 2.0))


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_final_workspace_leaves_no_trace_events(backend):
    program = compile_source(NO_GATHER + "s = sum(y);\n")
    run = program.run(4, MEIKO_CS2, backend=backend, trace=True)
    text = canonical_events(run.trace)
    assert "allgather" not in text
    assert run.spmd.collective_counts == {"allreduce": 1}
    # the trace's communication is the program's: one allreduce a rank
    assert [e.name for e in run.trace.events() if e.cat == "mpi"] == \
        ["allreduce"] * 4


@pytest.mark.parametrize("scheme", ["block", "cyclic"])
@pytest.mark.parametrize("nprocs", [1, 2, 3, 7, 16])
def test_workspace_bytes_equal_the_oracle_on_both_backends(nprocs, scheme):
    oracle = run_source(VALUES, seed=0).workspace
    program = compile_source(VALUES)
    runs = {backend: program.run(nprocs, MEIKO_CS2, backend=backend,
                                 plan=Plan(scheme=scheme))
            for backend in BACKENDS}
    assert runs["fused"].spmd.backend == "fused"
    for backend, run in runs.items():
        assert sorted(run.workspace) == sorted(oracle), backend
        for name, value in run.workspace.items():
            _same_bytes(value, oracle[name])
            _same_bytes(value, runs["lockstep"].workspace[name])
    # P > 3: ranks with empty blocks of t / tc still assemble
    assert runs["lockstep"].spmd.collectives == 0


def test_a_crash_at_allgather_does_not_fire_in_the_workspace():
    """A program that makes no allgather is not killed by one: the
    final workspace is no longer gathered through the simulated MPI."""
    run = compile_source("x = ones(1,64); s = sum(x);").run(
        4, MEIKO_CS2, fault_plan="crash rank=1 op=allgather")
    assert run.spmd.collective_counts == {"allreduce": 1}
    assert run.workspace["s"] == 64


def test_checkpoints_are_taken_at_program_collectives_only():
    program = compile_source("x = ones(1,64); s = sum(x); y = x + s;")
    run = program.run(4, MEIKO_CS2, fault_plan="crash rank=3 op=barrier",
                      on_fault="restart", checkpoint_every=1)
    assert run.spmd.collective_counts == {"allreduce": 1}
    assert run.recovery.checkpoints == 1
    assert not run.recovery.degraded


def test_a_degraded_run_keeps_its_workspace():
    program = compile_source("s = 5; x = ones(1,64); y = circshift(x,1);")
    # every rank finished, but chaos left a duplicate on the wire
    run = program.run(2, MEIKO_CS2, backend="lockstep",
                      fault_plan="seed=1; dup rank=0", on_fault="degrade",
                      max_restarts=0, watchdog=20.0)
    assert run.recovery.degraded
    assert sorted(run.workspace) == ["s", "x", "y"]
    _same_bytes(run.workspace["y"], np.ones((1, 64)))
    assert run.spmd.results == [run.workspace] * 2
    # rank 0's sends vanish: no rank finishes, the workspace is empty
    run = program.run(2, MEIKO_CS2, backend="lockstep",
                      fault_plan="seed=3; drop rank=0", on_fault="degrade",
                      max_restarts=0, watchdog=20.0)
    assert run.recovery.degraded
    assert run.workspace == {}
    assert run.spmd.results == [None, None]


def _raw(nprocs, rank):
    """One lockstep rank's raw workspace: a distributed row vector, a
    replicated scalar, a rank-varying one and a never-assigned name."""
    full = np.arange(10.0).reshape(1, 10)
    return {"v": DMatrix.from_full(full, nprocs, rank, "cyclic"),
            "s": 2.5, "t": PerRankScalar([1.0, 2.0, 3.0]), "u": None}


def test_replicate_workspace_assembles_the_ranks_blocks():
    got = replicate_workspace([_raw(3, r) for r in range(3)], fused=False)
    assert list(got) == ["v", "s", "t"]
    _same_bytes(got["v"], np.arange(10.0).reshape(1, 10))
    assert (got["s"], got["t"]) == (2.5, 1.0)


def test_a_peer_that_did_not_finish_leaves_todays_workspace():
    """Rank 0's gather could not complete without every peer: with a
    distributed value nothing is built, without one rank 0's values are
    what it holds."""
    raws = [_raw(3, r) for r in range(3)]
    assert replicate_workspace([raws[0], None, raws[2]], fused=False) is None
    assert replicate_workspace([None, raws[1], raws[2]], fused=False) is None
    scalars = [{"s": 2.5}, None, {"s": 2.5}]
    assert replicate_workspace(scalars, fused=False) == {"s": 2.5}


def test_disagreeing_distribution_fails_closed():
    raws = [_raw(3, r) for r in range(3)]
    raws[2]["v"] = 1.0
    with pytest.raises(MpiError, match="'v'"):
        replicate_workspace(raws, fused=False)
    raws = [_raw(3, r) for r in range(3)]
    raws[1]["s"] = DMatrix.from_full(np.ones((1, 4)), 3, 1, "block")
    with pytest.raises(MpiError, match="rank 1 .*'s'"):
        replicate_workspace(raws, fused=False)
