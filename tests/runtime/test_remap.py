"""``remap``: subscripts, transposes, flips, ``reshape`` and ``repmat``
move the pieces that change rank — in one alltoall, or not at all —
and never assemble the whole array; vector ``tril``/``triu`` mask what
each rank holds.

Values are data movement, so they equal the interpreter's bit for bit
under every map; the fused backend prices in closed form what the
lockstep alltoall of the same pieces charges, event for event."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.interp import values as V
from repro.interp.interpreter import run_source
from repro.mpi import MEIKO_CS2, run_spmd
from repro.runtime.context import COLON, RuntimeContext
from repro.trace import canonical_events
from repro.tuning import Plan

BACKENDS = ("lockstep", "fused")
NPROCS = (1, 2, 3, 4, 7, 16)


def accounting(result):
    """Everything the modeled machine charged, and the event stream."""
    spmd = result.spmd
    return (result.elapsed, tuple(spmd.times), spmd.messages_sent,
            spmd.bytes_sent, spmd.collectives,
            tuple(sorted(spmd.collective_counts.items())),
            hashlib.sha256(canonical_events(result.trace).encode())
            .hexdigest())


def check_everywhere(source, nprocs):
    """Interpreter == {block, cyclic} x {lockstep, fused} on every
    variable, bit for bit; fused == lockstep on the accounting."""
    oracle = run_source(source).workspace
    program = compile_source(source, name="remap")
    for scheme in ("block", "cyclic"):
        charged = {}
        for backend in BACKENDS:
            result = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                                 backend=backend, native="off",
                                 plan=Plan(scheme=scheme), trace=True)
            assert result.spmd.backend == backend
            for name, want in oracle.items():
                got, want = (np.asarray(result.workspace[name]),
                             np.asarray(want))
                assert got.shape == want.shape and got.dtype == want.dtype \
                    and got.tobytes() == want.tobytes(), \
                    (name, scheme, backend, nprocs)
            charged[backend] = accounting(result)
        assert charged["fused"] == charged["lockstep"], (scheme, nprocs)


def matrix_source(rows, cols, complex_valued, body):
    lines = ["rand('seed', 7);", f"A = rand({rows}, {cols});"]
    if complex_valued:
        lines.append(f"A = A + 1i * rand({rows}, {cols});")
    return "\n".join(lines + body + [""])


@st.composite
def spans(draw, extent):
    """A range ``lo:hi`` inside ``1:extent`` (touching either end, or
    both, as often as not)."""
    lo = draw(st.sampled_from((1, draw(st.integers(1, extent)))))
    hi = draw(st.sampled_from((extent, draw(st.integers(lo, extent)))))
    return lo, hi


@st.composite
def matrices(draw):
    rows = draw(st.integers(2, 24))
    cols = draw(st.integers(2, 9))
    return rows, cols, draw(st.booleans())


# -- one differential per moved op ------------------------------------------ #


@settings(max_examples=30, deadline=None)
@given(shape=matrices(), nprocs=st.sampled_from(NPROCS))
def test_transpose(shape, nprocs):
    check_everywhere(matrix_source(*shape, [
        "B = A'; C = A.'; D = B * 2 + C; E = D';"]), nprocs)


@settings(max_examples=30, deadline=None)
@given(shape=matrices(), data=st.data(), nprocs=st.sampled_from(NPROCS))
def test_subscripted_reads(shape, data, nprocs):
    rows, cols, _ = shape
    i, j = data.draw(st.integers(1, rows)), data.draw(st.integers(1, cols))
    (a, b), (c, d) = data.draw(spans(rows)), data.draw(spans(cols))
    picks = data.draw(st.lists(st.integers(1, rows * cols), min_size=2,
                               max_size=6))
    check_everywhere(matrix_source(*shape, [
        f"c = A(:, {j}); r = A({i}, :); S = A({a}:{b}, {c}:{d});",
        f"L = A([{', '.join(map(str, picks))}]); z = A(:);",
        f"R = A({a}:{b}, :); K = A(:, {c}:{d});",
        # a logical mask is its find (docs/LANGUAGE.md)
        "M = A(find(real(A) > 0.5));"]), nprocs)


@settings(max_examples=30, deadline=None)
@given(shape=matrices(), data=st.data(), nprocs=st.sampled_from(NPROCS))
def test_subscripted_stores(shape, data, nprocs):
    rows, cols, _ = shape
    i, j = data.draw(st.integers(1, rows)), data.draw(st.integers(1, cols))
    (a, b), (c, d) = data.draw(spans(rows)), data.draw(spans(cols))
    check_everywhere(matrix_source(*shape, [
        f"A({a}:{b}, {j}) = 7;",
        # a right side of another shape is reshaped column-major
        f"A({a}:{b}, {j}) = 20 + (1:{b - a + 1});",
        f"A({i}, {c}:{d}) = 10 + (1:{d - c + 1});",
        f"A(:, {j}) = rand({rows}, 1);",
        f"A({a}:{b}, {c}:{d}) = A({a}:{b}, {c}:{d}) * 3;",
        f"A([{a}, {b}], [{d}, {c}]) = [1, 2; 3, 4];",
        f"B = A; B(:) = 1:{rows * cols};"]), nprocs)


@settings(max_examples=30, deadline=None)
@given(shape=matrices(), n=st.integers(2, 40),
       nprocs=st.sampled_from(NPROCS))
def test_flips(shape, n, nprocs):
    check_everywhere(matrix_source(*shape, [
        "F = flipud(A); G = fliplr(A);",
        f"v = rand(1, {n}); w = rand({n}, 1);",
        "fv = fliplr(v); gv = flipud(v); fw = flipud(w); gw = fliplr(w);"]),
        nprocs)


@settings(max_examples=30, deadline=None)
@given(shape=matrices(), m=st.integers(0, 3), k=st.integers(0, 3),
       nprocs=st.sampled_from(NPROCS))
def test_reshape_and_repmat(shape, m, k, nprocs):
    rows, cols, _ = shape
    check_everywhere(matrix_source(*shape, [
        f"Q = reshape(A, {cols}, {rows}); q = reshape(A, 1, {rows * cols});",
        f"M = repmat(A, {m}, {k}); u = repmat(A(:, 1), 1, {k + 1});"]),
        nprocs)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), k=st.integers(-45, 45),
       nprocs=st.sampled_from(NPROCS))
def test_vector_triangles(n, k, nprocs):
    check_everywhere("\n".join([
        f"rand('seed', 3); v = rand(1, {n}); w = rand({n}, 1);",
        f"a = tril(v, {k}); b = triu(v, {k}); c = tril(w, {k});",
        f"d = triu(w, {k}); e = tril(v); f = triu(w);", ""]), nprocs)


# -- the edges: empty local parts, more ranks than elements, the ends ------- #


@pytest.mark.parametrize("rows, cols, nprocs", [
    (2, 2, 16), (3, 5, 7), (5, 2, 16),      # fewer rows than ranks
    (17, 3, 16), (16, 2, 16), (12, 5, 1), (40, 9, 3)])
def test_shapes_at_the_edges(rows, cols, nprocs):
    check_everywhere(matrix_source(rows, cols, False, [
        "B = A'; F = flipud(A); c = A(:, 1); r = A(end, :);",
        f"S = A(1:{rows}, 2:{cols}); T = A(1:{rows - 1}, 1:1);",
        f"A(1:{rows}, 1) = 5; A({rows}, 1:{cols}) = 6; A(1, 1:2) = [8, 9];",
        f"Q = reshape(A, 1, {rows * cols}); M = repmat(A, 2, 2);",
        f"e = Q(1:{rows * cols}); g = fliplr(Q); h = triu(Q, 2);"]), nprocs)


def test_the_slicing_heat_matches_the_interpreter():
    source = "\n".join([
        "n = 30; a = 0.1; u = zeros(1, n); u(n / 2) = 1;",
        "for step = 1:5",
        "  u(2:n-1) = u(2:n-1) + a*(u(1:n-2) - 2*u(2:n-1) + u(3:n));",
        "end", ""])
    for nprocs in (1, 4, 7, 16):
        check_everywhere(source, nprocs)


@pytest.mark.parametrize("nprocs", [1, 3, 4])
@pytest.mark.parametrize("scheme", ["block", "cyclic"])
def test_a_replicated_right_side_is_stored_where_it_lies(nprocs, scheme):
    """A store's replicated right side (a scalar, or an array every rank
    holds) needs no message: each rank copies its own elements."""
    start = np.arange(20.0).reshape(4, 5)
    stores = [([COLON, 2.0], np.array([[9.0], [8.0], [7.0], [6.0]])),
              ([np.array([[1.0, 3.0]]), COLON], np.full((2, 5), 5.0)),
              ([np.array([[2.0, 20.0, 7.0]])], np.array([[1.0, 2.0, 3.0]])),
              ([COLON, np.array([[4.0, 1.0]])], 1j)]
    want = [V.index_assign(start, subs, rhs) for subs, rhs in stores]

    def body(comm):
        rt = RuntimeContext(comm, scheme=scheme)
        a = rt.distribute_full(start)
        stored = [rt.index_assign(a, subs, rhs) for subs, rhs in stores]
        collectives = comm.world.collectives
        return [rt.to_interp_value(b) for b in stored], collectives

    for backend in BACKENDS:
        got, collectives = run_spmd(nprocs, MEIKO_CS2, body,
                                    backend=backend).results[0]
        assert collectives == 0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# -- what a call communicates ----------------------------------------------- #


def call_cost(statement, setup, nprocs=16):
    """(messages, collectives by kind) of one statement: a run with it
    minus a run without, the same on both backends."""
    costs = set()
    for backend in BACKENDS:
        totals = []
        for tail in ("", statement):
            result = compile_source(setup + tail).run(
                nprocs=nprocs, machine=MEIKO_CS2, backend=backend,
                native="off")
            assert result.spmd.backend == backend
            totals.append((result.spmd.messages_sent,
                           Counter(result.spmd.collective_counts)))
        (m0, c0), (m1, c1) = totals
        costs.add((m1 - m0, tuple(sorted((c1 - c0).items()))))
    assert len(costs) == 1, costs
    messages, collectives = costs.pop()
    return messages, dict(collectives)


MATRIX = "rand('seed', 1); A = rand(256, 256);"
VECTORS = "rand('seed', 1); v = rand(1, 1000); w = rand(1000, 1);"


def test_a_column_of_a_row_block_matrix_is_already_in_place():
    assert call_cost("c = A(:, 3);", MATRIX) == (0, {})


def test_a_row_is_one_collective():
    assert call_cost("r = A(7, :);", MATRIX) == (0, {"alltoall": 1})


def test_a_transpose_is_one_alltoall_and_no_allgather():
    assert call_cost("B = A';", MATRIX) == (0, {"alltoall": 1})


@pytest.mark.parametrize("call", ["tril(v, 3)", "triu(v)", "tril(w, -2)",
                                  "triu(w, 1)"])
def test_vector_triangles_communicate_nothing(call):
    assert call_cost(f"t = {call};", VECTORS) == (0, {})


def test_one_rank_moves_nothing():
    """At P = 1 every piece is local: no collective at all."""
    assert call_cost("B = A'; F = flipud(A); R = reshape(A, 128, 512);",
                     MATRIX, nprocs=1) == (0, {})
