"""cumsum/cumprod on distributed vectors vs the reference interpreter.

A rank's offset is the rank-order fold of the *preceding* ranks' block
totals (an exclusive scan) — never recovered from the inclusive prefix
by subtracting or dividing the rank's own total back out, which is
``inf - inf`` / ``x / 0`` exactly when the data is interesting — and
cyclic operands are realigned to block first, because "preceding
ranks" is only a prefix when ownership is contiguous.

Values are small integers plus 0/Inf/NaN, so every finite partial sum
and product is exact and the comparison can be bit-for-bit even though
the distributed scan associates differently from the sequential one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source
from repro.interp.interpreter import run_source
from repro.tuning import Plan

# inf * 0 and inf - inf are the point of half these inputs
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")

NPROCS = (1, 2, 3, 7)
SCHEMES = ("block", "cyclic")
BACKENDS = ("lockstep", "fused")


def _literal(values, column=False):
    def fmt(x):
        if isinstance(x, complex):
            return f"({x.real:g}{x.imag:+g}i)"
        if x != x:
            return "NaN"
        if x in (float("inf"), float("-inf")):
            return "-Inf" if x < 0 else "Inf"
        return f"{x:g}"

    return "[" + (";" if column else ",").join(fmt(x) for x in values) + "]"


def _accounting(result):
    spmd = result.spmd
    return (result.elapsed, tuple(spmd.times), spmd.messages_sent,
            spmd.bytes_sent, spmd.collectives,
            tuple(sorted(spmd.collective_counts.items())))


def _check_against_interpreter(source):
    oracle = run_source(source).workspace
    program = compile_source(source)
    for nprocs in NPROCS:
        for scheme in SCHEMES:
            runs = {backend: program.run(nprocs=nprocs, backend=backend,
                                         plan=Plan(scheme=scheme))
                    for backend in BACKENDS}
            where = f"P={nprocs} {scheme}"
            assert runs["fused"].spmd.backend == "fused", where
            assert _accounting(runs["fused"]) == \
                _accounting(runs["lockstep"]), where
            for backend, run in runs.items():
                for name in ("s", "p"):
                    got = np.asarray(run.workspace[name])
                    want = np.asarray(oracle[name])
                    assert got.shape == want.shape, (where, backend, name)
                    assert np.array_equal(got, want, equal_nan=True), \
                        (where, backend, name, got, want)


@pytest.mark.parametrize("values", [
    [2, 3, 4, 5, 0, 6],             # zero block total: offset fell back to 1
    [1, 2, 3, 4, float("inf"), 5],  # inf - inf (all-NaN even at P=1)
    [1, 2, 3, 4, 5, 6, 7],          # plain, the cyclic-ownership case
    [0, float("inf"), 2, float("nan"), 0, -1, float("-inf"), 3],
    [1 + 2j, 2 - 1j, 3 + 1j, 4, 5j, 6],    # offsets keep their imaginary part
], ids=["zero", "inf", "plain", "mixed", "complex"])
@pytest.mark.parametrize("column", [False, True], ids=["row", "col"])
def test_recorded_wrong_answers(values, column):
    v = _literal(values, column)
    _check_against_interpreter(f"v = {v};\ns = cumsum(v);\np = cumprod(v);\n")


_ELEMENTS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, float("inf"), float("-inf"), float("nan")]))


@settings(max_examples=20, deadline=None)
@given(st.lists(_ELEMENTS, min_size=1, max_size=12), st.booleans())
def test_cumulative_matches_interpreter(values, column):
    """Lengths below P leave ranks with empty local parts; at P=7 most
    examples do."""
    v = _literal(values, column)
    _check_against_interpreter(f"v = {v};\ns = cumsum(v);\np = cumprod(v);\n")


def test_cumulative_is_priced_like_a_scan():
    """The exclusive scan is the old inclusive one's rendezvous: same
    ``scan`` tally, no point-to-point traffic, and the clocks the parent
    commit charged for this block-scheme program (where its answer was
    already right) — existing programs' modeled time does not move."""
    program = compile_source(
        "v = [1,2,3,4,5,6,7];\ns = cumsum(v);\nq = cumprod(v');\n")
    for backend in BACKENDS:
        run = program.run(nprocs=3, backend=backend)
        assert run.spmd.collective_counts == {"scan": 2}
        assert run.spmd.messages_sent == 0
        assert run.spmd.times == [0.0006535345454545455] * 3


def test_complex_cumprod_of_one_trailing_element_rounds_like_lockstep():
    """Inexact complex operands, and one element beyond rank 0's block:
    the fused combine must round as a rank's own ``scan * offset`` does
    (numpy's in-place loop rounds a one-element complex product
    differently; 23 of these 40 pairs were a last-bit mismatch)."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b, c, d = (float(v) for v in rng.uniform(-10, 10, 4))
        program = compile_source(
            f"z = [({a!r}) + ({b!r}) * 1i, ({c!r}) + ({d!r}) * 1i];\n"
            "p = cumprod(z);\n")
        fused, lockstep = (
            np.asarray(program.run(nprocs=2, backend=backend).workspace["p"])
            for backend in ("fused", "lockstep"))
        assert fused.tobytes() == lockstep.tobytes(), (a, b, c, d)
