"""Tracing must not perturb the run it observes.

Property: for randomized SPMD programs, running with ``trace=True``
yields *bit-identical* observables (results, per-rank virtual clocks,
message/byte counts, collective tallies) to the untraced run — on every
backend.  Recorders only read virtual state, so any divergence is a
bug in a hook, not measurement noise.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source
from repro.mpi import MEIKO_CS2, run_spmd

BACKENDS = ("lockstep", "fused")


@st.composite
def spmd_programs(draw):
    """(nprocs, ops): a random straight-line SPMD program."""
    nprocs = draw(st.integers(min_value=2, max_value=4))
    n_ops = draw(st.integers(min_value=1, max_value=8))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(
            ["compute", "ring", "p2p", "allreduce", "bcast", "barrier",
             "allgather", "scan"]))
        if kind == "compute":
            ops.append(("compute", draw(st.integers(1, 2000))))
        elif kind == "ring":
            ops.append(("ring", draw(st.integers(0, 3))))
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
        for line, op in enumerate(ops, start=1):
            comm.line = line      # what the emitted markers do
            kind = op[0]
            if kind == "compute":
                comm.charge(flops=op[1] * (comm.rank + 1), calls=0)
            elif kind == "ring":
                acc = float(comm.sendrecv(np.full(3, acc), dest=right,
                                          sendtag=op[1], source=left,
                                          recvtag=op[1]).sum())
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
        "backend": result.backend,
        "fault_events": result.fault_events,
    }


@settings(max_examples=20, deadline=None)
@given(spmd_programs())
def test_tracing_is_zero_perturbation(program):
    nprocs, ops = program
    prog = _make_program(ops)
    for backend in BACKENDS:
        plain = run_spmd(nprocs, MEIKO_CS2, prog, backend=backend)
        traced = run_spmd(nprocs, MEIKO_CS2, prog, backend=backend,
                          trace=True)
        assert plain.trace is None and traced.trace is not None
        assert _observables(plain) == _observables(traced), backend


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([5, 8, 13]), st.integers(1, 4))
def test_compiled_tracing_is_zero_perturbation(n, nprocs):
    src = (f"n = {n};\n"
           "a = rand(n, n);\n"
           "v = rand(n, 1);\n"
           "v = a * v;\n"
           "v = circshift(v, 1);\n"
           "s = sum(v);\n"
           "disp(s);\n")
    for backend in BACKENDS:
        program = compile_source(src)
        plain = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                            backend=backend)
        traced = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                             backend=backend, trace=True)
        assert plain.output == traced.output
        assert plain.elapsed == traced.elapsed
        plain_obs = _observables(plain.spmd)
        traced_obs = _observables(traced.spmd)
        # workspaces (in `results`) hold arrays; compared separately below
        plain_obs.pop("results")
        traced_obs.pop("results")
        assert plain_obs == traced_obs
        assert plain.workspace.keys() == traced.workspace.keys()
        for key in plain.workspace:
            np.testing.assert_array_equal(
                np.asarray(plain.workspace[key]),
                np.asarray(traced.workspace[key]))
