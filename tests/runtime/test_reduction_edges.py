"""Reduction edge cases with degenerate local blocks (ranks owning no
rows) and mixed shapes."""

import numpy as np
import pytest

from repro.mpi import MEIKO_CS2, run_spmd
from repro.runtime.context import RuntimeContext
from repro.runtime.matrix import DMatrix


def run_op(fn, p=4, seed=2):
    def rank_main(comm):
        rt = RuntimeContext(comm, seed=seed)
        out = fn(rt)
        return rt.to_interp_value(out) if isinstance(out, DMatrix) else out

    return run_spmd(p, MEIKO_CS2, rank_main).results[0]


def oracle(shape, seed=2):
    return np.random.default_rng(seed).random(shape)


class TestEmptyLocalBlocks:
    """A 3-row matrix over 5 ranks leaves two ranks with nothing."""

    def test_column_sum(self):
        got = run_op(lambda rt: rt.call_builtin(
            "sum", [rt.rand(3.0, 6.0)]), p=5)
        np.testing.assert_allclose(got, oracle((3, 6)).sum(0).reshape(1, -1))

    def test_column_max(self):
        got = run_op(lambda rt: rt.call_builtin(
            "max", [rt.rand(3.0, 6.0)]), p=5)
        np.testing.assert_allclose(got, oracle((3, 6)).max(0).reshape(1, -1))

    def test_column_prod_identity_on_empty(self):
        got = run_op(lambda rt: rt.call_builtin(
            "prod", [rt.rand(2.0, 4.0)]), p=5)
        np.testing.assert_allclose(got, oracle((2, 4)).prod(0).reshape(1, -1))

    def test_vector_minmax_with_index(self):
        def fn(rt):
            v = rt.rand(3.0, 1.0)
            return rt.call_builtin("min", [v], nargout=2)

        value, index = run_op(fn, p=5)
        v = oracle((3, 1)).reshape(-1)
        assert value == v.min()
        assert index == float(np.argmin(v) + 1)

    def test_row_reduce_with_empty_ranks(self):
        def fn(rt):
            a = rt.rand(3.0, 4.0)
            return rt.call_builtin("sum", [a, 2.0])

        got = np.asarray(run_op(fn, p=5)).reshape(-1)
        np.testing.assert_allclose(got, oracle((3, 4)).sum(1))

    def test_cumsum_vector_with_empty_ranks(self):
        def fn(rt):
            v = rt.rand(3.0, 1.0)
            return rt.call_builtin("cumsum", [v])

        got = np.asarray(run_op(fn, p=5)).reshape(-1)
        np.testing.assert_allclose(got, np.cumsum(oracle((3, 1)).reshape(-1)))

    def test_find_with_empty_ranks(self):
        def fn(rt):
            v = rt.ones(3.0, 1.0)
            return rt.call_builtin("find", [v])

        got = np.asarray(run_op(fn, p=5)).reshape(-1)
        np.testing.assert_array_equal(got, [1, 2, 3])


class TestMixedReductions:
    def test_std_of_constant_vector_is_zero(self):
        got = run_op(lambda rt: rt.call_builtin("std", [rt.ones(9.0, 1.0)]))
        assert got == 0.0

    def test_var_two_elements(self):
        def fn(rt):
            v = rt.from_literal([[1.0], [3.0]])
            return rt.call_builtin("var", [v])

        assert run_op(fn, p=2) == 2.0  # ((1-2)^2 + (3-2)^2) / (2-1)

    def test_median_distributed_even(self):
        def fn(rt):
            v = rt.rand(12.0, 1.0)
            return rt.call_builtin("median", [v])

        v = np.sort(oracle((12, 1)).reshape(-1))
        assert run_op(fn, p=4) == pytest.approx((v[5] + v[6]) / 2)

    def test_norm_complex_vector(self):
        def fn(rt):
            re = rt.rand(7.0, 1.0)
            im = rt.rand(7.0, 1.0)
            z = rt.ew(lambda a, b: a + 1j * b, 1, re, im)
            return rt.call_builtin("norm", [z])

        rng = np.random.default_rng(2)
        z = rng.random((7, 1)) + 1j * rng.random((7, 1))
        assert run_op(fn, p=3) == pytest.approx(np.linalg.norm(z))

    def test_trapz_matrix_columns_distributed(self):
        def fn(rt):
            a = rt.rand(9.0, 3.0)
            return rt.call_builtin("trapz", [a])

        got = np.asarray(run_op(fn, p=4)).reshape(-1)
        np.testing.assert_allclose(
            got, np.trapezoid(oracle((9, 3)), axis=0))


_EMPTY_EXTREMA = """
x = max([]); y = min(zeros(0, 3)); z = max(zeros(3, 0));
u = min(zeros(1, 0)); t = max(max([]));
[m, k] = max([]); [m2, k2] = min(zeros(0, 3));
a = all([]); b = any(zeros(0, 2)); s = sum(zeros(0, 3));
disp(size(x)); disp(size(y)); disp(size(k)); disp(size(m2)); disp(a); disp(s)
"""


@pytest.mark.parametrize("nprocs", [1, 4])
def test_empty_extrema_are_empty_everywhere(nprocs):
    """``max``/``min`` of an empty operand, and both outputs of
    ``[m, k] = max([])``, are ``[]`` on the interpreter and on both
    backends — never a numpy or MPI error.  ``all``/``any``/``sum`` of
    one keep the answer all three already gave."""
    from repro.compiler import compile_source
    from repro.interp.interpreter import run_source

    def observed(output, workspace):
        return "".join(output), {
            name: (np.asarray(value).shape, np.asarray(value).tobytes())
            for name, value in workspace.items()}

    want = run_source(_EMPTY_EXTREMA)
    want = observed(want.output, want.workspace)
    assert want[1]["x"][0] == want[1]["k"][0] == (0, 0)
    prog = compile_source(_EMPTY_EXTREMA)
    for backend in ("lockstep", "fused"):
        got = prog.run(nprocs=nprocs, backend=backend)
        assert got.spmd.backend == backend
        assert observed([got.output], got.workspace) == want, backend
