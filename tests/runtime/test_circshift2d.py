"""``circshift`` along the rows of a row-distributed matrix: the block
shift path vectors already had (ring boundary exchange up to the
smallest block, alltoall of per-destination rows beyond it), the gather
only where no neighbour holds the boundary (cyclic maps, fewer rows than
ranks).

Values are data movement, so they equal the interpreter's bit for bit
under every map; the fused backend charges what lockstep charges, event
for event."""

import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.interp.interpreter import run_source
from repro.mpi import FATTREE_CLUSTER, MEIKO_CS2, run_spmd
from repro.runtime.context import RuntimeContext
from repro.trace import canonical_events
from repro.tuning import Plan

BACKENDS = ("lockstep", "fused")
PROGRAMS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" \
    / "programs"


def accounting(result):
    """Everything the modeled machine charged, and the event stream."""
    spmd = result.spmd
    return (result.elapsed, tuple(spmd.times), spmd.messages_sent,
            spmd.bytes_sent, spmd.collectives,
            tuple(sorted(spmd.collective_counts.items())),
            hashlib.sha256(canonical_events(result.trace).encode())
            .hexdigest())


def shift_source(rows, cols, kr, kc, complex_valued=False):
    lines = ["rand('seed', 7);", f"A = rand({rows}, {cols});"]
    if complex_valued:
        lines.append(f"A = A + 1i * rand({rows}, {cols});")
    return "\n".join(lines + [
        f"B = circshift(A, [{kr}, {kc}]);",
        f"C = circshift(A, {kr});",
        "D = B .* 2 + C;", ""])


def assert_same_bits(got, want, context):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, context
    assert got.tobytes() == want.tobytes(), context


def check_everywhere(source, nprocs, machine=MEIKO_CS2):
    """Interpreter == {block, cyclic} x {lockstep, fused} x native
    {off, auto} on every variable; fused == lockstep on the accounting."""
    oracle = run_source(source).workspace
    program = compile_source(source, name="shift")
    for scheme in ("block", "cyclic"):
        for native in ("off", "auto"):
            charged = {}
            for backend in BACKENDS:
                result = program.run(nprocs=nprocs, machine=machine,
                                     backend=backend, native=native,
                                     plan=Plan(scheme=scheme), trace=True)
                assert result.spmd.backend == backend
                for name, want in oracle.items():
                    assert_same_bits(result.workspace[name], want,
                                     (name, scheme, native, backend))
                charged[backend] = accounting(result)
            assert charged["fused"] == charged["lockstep"], (scheme, native)


@st.composite
def shifts(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 9))
    return (rows, cols, draw(st.integers(-2 * rows, 2 * rows)),
            draw(st.integers(-2 * cols, 2 * cols)), draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(shift=shifts(), nprocs=st.sampled_from((1, 2, 3, 4, 7, 16)))
def test_any_shift_of_any_shape_matches_the_interpreter(shift, nprocs):
    check_everywhere(shift_source(*shift), nprocs)


#: 13 x 3 over 4 ranks: blocks of 4, 3, 3, 3 rows — the smallest is 3
ROWS, COLS, NPROCS, SMALLEST = 13, 3, 4, 3


@pytest.mark.parametrize("kr", [
    0, 1, -1, SMALLEST, -SMALLEST, SMALLEST + 1, -SMALLEST - 1, ROWS // 2,
    ROWS - SMALLEST - 1, ROWS - SMALLEST, ROWS - 1, ROWS, ROWS + 1,
    2 * ROWS, -2 * ROWS - 2])
@pytest.mark.parametrize("kc", [0, 2])
def test_shifts_around_every_path_boundary(kr, kc):
    for complex_valued in (False, True):
        check_everywhere(shift_source(ROWS, COLS, kr, kc, complex_valued),
                         NPROCS)


@pytest.mark.parametrize("rows, cols, nprocs", [
    (3, 4, 7), (2, 2, 16), (5, 2, 16),      # fewer rows than ranks
    (16, 2, 16), (17, 3, 16),               # one row on the smallest block
    (12, 5, 1), (2, 9, 1),                  # one rank
    (40, 9, 3), (1, 9, 4), (9, 1, 4),       # vectors take the same path
])
def test_shapes_at_the_edges(rows, cols, nprocs):
    for kr, kc in ((1, 0), (-1, 1), (rows - 1, 0), (rows // 2 + 1, -1)):
        check_everywhere(shift_source(rows, cols, kr, kc), nprocs,
                         machine=FATTREE_CLUSTER)


# -- which path a call takes: its messages and collectives ------------------ #


def call_cost(call, nprocs, scheme="block", rows=ROWS, cols=COLS,
              **plan_fields):
    """(messages, bytes, collectives by kind) of one ``A = <call>``:
    a run with the statement minus a run without, same on both
    backends."""
    costs = set()
    for backend in BACKENDS:
        totals = []
        for statement in ("", f"A = {call};"):
            plan = Plan(scheme=scheme, **plan_fields)
            result = compile_source(
                f"rand('seed', 1); A = rand({rows}, {cols}); {statement}",
                plan=plan,
            ).run(nprocs=nprocs, machine=MEIKO_CS2, backend=backend,
                  plan=plan, native="off")
            assert result.spmd.backend == backend
            totals.append((result.spmd.messages_sent, result.spmd.bytes_sent,
                           Counter(result.spmd.collective_counts)))
        (m0, b0, c0), (m1, b1, c1) = totals
        costs.add((m1 - m0, b1 - b0, tuple(sorted((c1 - c0).items()))))
    assert len(costs) == 1, costs
    messages, nbytes, collectives = costs.pop()
    return messages, nbytes, dict(collectives)


ROW_BYTES = COLS * 8
#: a constant 1x2 shift is an immediate (pass 6's ``const_args``):
#: reading it costs nothing, whatever the operand's path
ARGUMENT = {}
#: ... and one the compiler cannot know is a distributed vector: reading
#: it is one (tiny) allgather of its own
GATHERED_ARGUMENT = {"allgather": 1}


@pytest.mark.parametrize("kr", [1, -1, 2, SMALLEST, -SMALLEST,
                                ROWS - 1, ROWS - SMALLEST, 1 - ROWS])
def test_ring_sized_row_shift_never_gathers_the_matrix(kr):
    """One message per rank, |k| rows each, to one neighbour — and no
    collective but the shift argument's own."""
    k = min(kr % ROWS, -kr % ROWS)
    ring = (NPROCS, NPROCS * k * ROW_BYTES)
    assert call_cost(f"circshift(A, [{kr}, 0])", NPROCS) == (*ring, ARGUMENT)
    assert call_cost(f"circshift(A, [{kr}, 1])", NPROCS) == (*ring, ARGUMENT)
    assert call_cost(f"circshift(A, {kr})", NPROCS) == (*ring, {})


@pytest.mark.parametrize("kr", [SMALLEST + 1, -SMALLEST - 1, ROWS // 2,
                                ROWS - SMALLEST - 1, ROWS + SMALLEST + 1])
def test_larger_row_shift_is_one_alltoall(kr):
    assert call_cost(f"circshift(A, [{kr}, 0])", NPROCS) \
        == (0, 0, {"alltoall": 1})
    assert call_cost(f"circshift(A, {kr})", NPROCS) \
        == (0, 0, {"alltoall": 1})


def test_shifts_that_move_no_row_send_nothing():
    for call in ("circshift(A, [0, 0])", "circshift(A, [0, 2])",
                 f"circshift(A, [{ROWS}, 1])",
                 f"circshift(A, [{-2 * ROWS}, 0])"):
        assert call_cost(call, NPROCS) == (0, 0, ARGUMENT), call
    assert call_cost(f"circshift(A, {ROWS})", NPROCS) == (0, 0, {})


def test_gather_path_is_kept_for_cyclic_maps_and_empty_blocks():
    """What cannot do better: a cyclic map scatters every neighbourhood
    over all the ranks, and with fewer rows than ranks some blocks are
    empty (the smallest block, the ring's limit, is 0 rows)."""
    gathered = (0, 0, {"allgather": 1})     # the matrix
    assert call_cost("circshift(A, [1, 0])", NPROCS, "cyclic") == gathered
    assert call_cost("circshift(A, [5, 0])", NPROCS, "cyclic") == gathered
    assert call_cost("circshift(A, [1, 0])", 16) == gathered    # 13 rows
    assert call_cost("circshift(A, 1)", 16) == (0, 0, {"allgather": 1})
    assert call_cost("circshift(A, [1, 0])", 16, rows=16) \
        == (16, 16 * ROW_BYTES, ARGUMENT)   # one row each still rings


def test_only_a_shift_the_compiler_knows_is_free():
    """``[k, 0]`` with a run-time ``k`` is still built, distributed and
    gathered back; so is a constant one when ``const_args`` is off."""
    ring = (NPROCS, NPROCS * ROW_BYTES)
    assert call_cost("circshift(A, [numel(A) - 38, 0])", NPROCS) \
        == (*ring, GATHERED_ARGUMENT)
    assert call_cost("circshift(A, [1, 0])", NPROCS, fusion=()) \
        == (*ring, GATHERED_ARGUMENT)


def test_one_rank_has_no_wire_traffic():
    for call in ("circshift(A, [1, 0])", "circshift(A, [6, 1])",
                 "circshift(A, -1)"):
        messages, nbytes, _ = call_cost(call, 1)
        assert (messages, nbytes) == (0, 0)


# -- the programs the numbers are quoted for -------------------------------- #


def test_benchmark_image_filter_exchanges_boundary_rows_only():
    """n = 256, 16 steps, P = 4: two row shifts a step, one 256-double
    row from each rank — and not one allgather of the image."""
    program = compile_source((PROGRAMS / "image_filter.m").read_text(),
                             name="image_filter")
    runs = {backend: program.run(nprocs=4, machine=MEIKO_CS2,
                                 backend=backend, trace=True)
            for backend in BACKENDS}
    assert accounting(runs["fused"]) == accounting(runs["lockstep"])
    spmd = runs["fused"].spmd
    assert spmd.backend == "fused"
    assert spmd.messages_sent == 2 * 16 * 4 == 128
    assert spmd.bytes_sent == 128 * 256 * 8 == 262_144
    # 32 fewer than when each row shift allgathered the image, 64 fewer
    # than when each of the 64 shifts allgathered its 1x2 argument, one
    # fewer than when sum(sum(img)) was two calls, and 17 fewer than when
    # the count took in the final workspace's gathers (one allgather per
    # distributed variable, made after the program had finished): the
    # one collective left is the program's sum(sum(img))
    assert spmd.collectives == 1
    assert "alltoall" not in spmd.collective_counts


#: benchmarks/e2e/programs/heat.m on MEIKO_CS2 at the parent of the PR
#: that merged the shift paths (531c418): elapsed, sha256 of the per-rank
#: clocks' hex, messages, bytes
HEAT_AT_PARENT = {
    4: ("0x1.5363f1de9bc8bp-6", "4b226be8adf1d6ba", 400, 3200),
    16: ("0x1.a2d0241a3b953p-7", "d63522fd826207ae", 1600, 12800),
}


@pytest.mark.parametrize("nprocs", sorted(HEAT_AT_PARENT))
@pytest.mark.parametrize("backend", BACKENDS)
def test_heat_vector_shifts_charge_what_they_always_did(nprocs, backend):
    program = compile_source((PROGRAMS / "heat.m").read_text(), name="heat")
    result = program.run(nprocs=nprocs, machine=MEIKO_CS2, backend=backend,
                         native="off")
    clocks = hashlib.sha256(
        repr([t.hex() for t in result.spmd.times]).encode()).hexdigest()
    assert (result.elapsed.hex(), clocks[:16], result.spmd.messages_sent,
            result.spmd.bytes_sent) == HEAT_AT_PARENT[nprocs]


def shift_calls(backend, n, k, nprocs=16):
    """Python ``call`` + ``c_call`` events of one warm ``circshift(v,
    k)`` of an ``n``-vector, summed over the ranks."""
    calls = []

    def profiler(_frame, event, _arg):
        if event == "call" or event == "c_call":
            calls.append(event)

    def body(comm):
        rt = RuntimeContext(comm, seed=1)
        try:
            v = rt.rand(1.0, float(n))
            rt.call_builtin("circshift", [v, float(k)])     # fill the memos
            sys.setprofile(profiler)
            try:
                rt.call_builtin("circshift", [v, float(k)])
            finally:
                sys.setprofile(None)
        finally:
            rt.close()

    run_spmd(nprocs, MEIKO_CS2, body, backend=backend)
    return len(calls)


@pytest.mark.parametrize("n, k, fused, lockstep", [
    (4000, 1, 27, 975), (4000, -1, 27, 1157),       # heat's two shifts
    (4000, 300, 36, 3300), (10, 3, 36, 3132),       # the alltoall
])
def test_vector_shift_makes_no_more_python_calls(n, k, fused, lockstep):
    """The merged dispatch is free for vectors: the ceilings are the
    parent's counts (531c418, CPython 3.11; sys.setprofile events on 16
    ranks — the lockstep number includes the scheduler's handoffs)."""
    assert shift_calls("fused", n, k) <= fused
    assert shift_calls("lockstep", n, k) <= lockstep
