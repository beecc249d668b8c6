"""Creation — ``zeros``, ``ones``, ``eye``, ``rand`` and ``randn`` —
builds exactly what the descriptor holds: one rank's rows (or a
vector's elements) under lockstep, every position under fusion
(``RuntimeContext._create``, ``DMatrix.created``).

A lockstep rank draws its own positions of the random stream and skips
the others' (``rand`` by advancing the generator, ``randn`` by drawing
and dropping), so every value and the stream after the creation (the
next ``rand(1, 1)``) equal the interpreter's bit for bit, at every P,
under both maps, on both backends.  And no rank ever holds the whole
matrix: the ``tracemalloc`` peak of a lockstep P = 16 run is what the
ranks' blocks add up to, not that plus a full array."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.interp.interpreter import run_source
from repro.tuning import Plan

NPROCS = (1, 2, 3, 4, 7, 16)
CREATORS = ("zeros", "ones", "eye", "rand", "randn")


def check_everywhere(source, nprocs):
    """Interpreter == {block, cyclic} x {lockstep, fused} on every
    variable, bit for bit."""
    oracle = run_source(source).workspace
    program = compile_source(source, name="creation")
    for scheme in ("block", "cyclic"):
        for backend in ("lockstep", "fused"):
            result = program.run(nprocs=nprocs, backend=backend,
                                 native="off", plan=Plan(scheme=scheme))
            assert result.spmd.backend == backend
            assert set(result.workspace) == set(oracle)
            for name, want in oracle.items():
                got, want = (np.asarray(result.workspace[name]),
                             np.asarray(want))
                assert got.shape == want.shape \
                    and got.dtype == want.dtype \
                    and got.tobytes() == want.tobytes(), \
                    (name, scheme, backend, nprocs)


def creation_source(seed, creations):
    """``rand('seed', seed)``, then each creation followed by a draw
    that reads where it left the stream."""
    lines = [f"rand('seed', {seed});"]
    for k, (creator, rows, cols) in enumerate(creations):
        dims = f"{rows}" if cols is None else f"{rows}, {cols}"
        lines += [f"x{k} = {creator}({dims});", f"t{k} = rand(1, 1);"]
    return "\n".join(lines + [""])


#: every shape form: empty either way, a row, a column, a matrix with
#: fewer rows than most P (and than 16), a matrix with more
SHAPES = ((0, 5), (6, 0), (1, 9), (11, 1), (3, 8), (13, 7), (5, None))


@pytest.mark.parametrize("nprocs", NPROCS)
def test_every_creator_and_shape(nprocs):
    creations = [(creator, rows, cols)
                 for creator in CREATORS for rows, cols in SHAPES]
    check_everywhere(creation_source(5, creations), nprocs)


@st.composite
def creations(draw):
    kind = draw(st.sampled_from(("0xn", "nx0", "1xn", "nx1", "rxc")))
    n = draw(st.integers(1, 40))
    rows, cols = {"0xn": (0, n), "nx0": (n, 0), "1xn": (1, n),
                  "nx1": (n, 1)}.get(kind, (None, None))
    if rows is None:
        rows = draw(st.integers(2, 20))     # fewer rows than P, often
        cols = draw(st.integers(2, 12))
    return draw(st.sampled_from(CREATORS)), rows, cols


@pytest.mark.parametrize("nprocs", NPROCS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       made=st.lists(creations(), min_size=1, max_size=3))
def test_creation_matches_the_interpreter(nprocs, seed, made):
    check_everywhere(creation_source(seed, made), nprocs)


N = 1024


@pytest.mark.parametrize("source, matrices", [
    (f"s = sum(sum(rand({N}, {N})));", 1),
    (f"s = sum(sum(randn({N}, {N})));", 1),
    # two live matrices; rebinding them keeps the final workspace small
    (f"A = eye({N});\nB = zeros({N});\ns = sum(sum(A)) + sum(sum(B));\n"
     "A = 0;\nB = 0;", 2),
])
def test_no_rank_builds_the_whole_matrix(source, matrices):
    """Peak traced bytes of a lockstep P = 16 run: the ranks' blocks
    of each live matrix (n² doubles in all) and a quarter of one more —
    a rank that built the full array before cutting its block would
    add a whole matrix (2.03 for one matrix, 3.03 for two)."""
    program = compile_source(source)
    tracemalloc.start()
    try:
        result = program.run(nprocs=16, backend="lockstep", native="off")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.spmd.backend == "lockstep"
    assert peak <= (matrices + 0.25) * N * N * 8, peak / (N * N * 8)
