"""Distributed run-time library vs numpy oracle, across rank counts."""

import numpy as np
import pytest

from repro.interp.values import COLON
from repro.mpi import MEIKO_CS2, run_spmd
from repro.runtime.context import RuntimeContext
from repro.runtime.matrix import DMatrix

PS = [1, 2, 4, 7]


def run_op(fn, p=4, scheme="block", seed=1):
    """Run fn(rt) on p ranks; return rank 0's (replicated) result."""

    def rank_main(comm):
        rt = RuntimeContext(comm, seed=seed, scheme=scheme)
        out = fn(rt)
        return rt.to_interp_value(out) if isinstance(out, DMatrix) else out

    res = run_spmd(p, MEIKO_CS2, rank_main)
    first = res.results[0]
    for other in res.results[1:]:
        if isinstance(first, np.ndarray):
            np.testing.assert_allclose(other, first)
        elif isinstance(first, tuple):
            pass
        else:
            assert other == first or (first != first and other != other)
    return first


def oracle_rand(shape, seed=1):
    return np.random.default_rng(seed).random(shape)


class TestCreation:
    @pytest.mark.parametrize("p", PS)
    def test_rand_matches_oracle(self, p):
        got = run_op(lambda rt: rt.rand(6.0, 5.0), p=p)
        np.testing.assert_array_equal(got, oracle_rand((6, 5)))

    def test_zeros_ones_eye(self):
        assert run_op(lambda rt: rt.call_builtin(
            "sum", [rt.call_builtin("sum", [rt.ones(4.0, 5.0)])])) == 20.0
        eye_sum = run_op(lambda rt: rt.call_builtin(
            "sum", [rt.call_builtin("sum", [rt.eye(7.0, 7.0)])]))
        assert eye_sum == 7.0

    def test_range_vector(self):
        got = run_op(lambda rt: rt.range_vector(1.0, 2.0, 9.0))
        np.testing.assert_array_equal(got, [[1, 3, 5, 7, 9]])

    def test_literal_with_distributed_blocks(self):
        def fn(rt):
            a = rt.ones(2.0, 2.0)
            return rt.from_literal([[a, a], [a, a]])

        got = run_op(fn)
        np.testing.assert_array_equal(got, np.ones((4, 4)))

    def test_linspace(self):
        got = run_op(lambda rt: rt.linspace(0.0, 1.0, 5.0))
        np.testing.assert_allclose(got, [[0, 0.25, 0.5, 0.75, 1.0]])


class TestElementAccess:
    @pytest.mark.parametrize("p", PS)
    def test_broadcast_element(self, p):
        def fn(rt):
            a = rt.rand(6.0, 6.0)
            return rt.element(a, 3, 4)

        assert run_op(fn, p=p) == oracle_rand((6, 6))[3, 4]

    def test_linear_element_column_major(self):
        def fn(rt):
            a = rt.rand(4.0, 3.0)
            return rt.element(a, 5)  # 0-based linear 5 -> (1, 1)

        assert run_op(fn) == oracle_rand((4, 3))[1, 1]

    @pytest.mark.parametrize("p", PS)
    def test_set_element_guarded(self, p):
        def fn(rt):
            a = rt.zeros(5.0, 5.0)
            a = rt.set_element(a, [2.0, 3.0], 7.5)
            return a

        got = run_op(fn, p=p)
        assert got[1, 2] == 7.5 and got.sum() == 7.5

    def test_set_element_out_of_bounds_grows(self):
        def fn(rt):
            a = rt.zeros(2.0, 2.0)
            return rt.set_element(a, [4.0, 4.0], 1.0)

        got = run_op(fn)
        assert got.shape == (4, 4) and got[3, 3] == 1.0

    def test_owner_unique(self):
        def rank_main(comm):
            rt = RuntimeContext(comm, seed=1)
            a = rt.rand(8.0, 3.0)
            held = [i for i in range(8) if a.held_index(i, 0) is not None]
            assert all(a.owner_of(i, 0) == comm.rank for i in held)
            return held

        # across all ranks, each element is in exactly one rank's block
        res = run_spmd(4, MEIKO_CS2, rank_main, backend="lockstep")
        assert sorted(i for held in res.results for i in held) == \
            list(range(8))


class TestIndexing:
    def test_slice_read(self):
        def fn(rt):
            a = rt.rand(6.0, 6.0)
            return rt.index_read(a, [COLON, 2.0])

        np.testing.assert_array_equal(
            run_op(fn), oracle_rand((6, 6))[:, 1:2])

    def test_range_subscript_read(self):
        def fn(rt):
            a = rt.rand(8.0, 8.0)
            rows = rt.range_vector(2.0, 1.0, 4.0)
            return rt.index_read(a, [rows, COLON])

        np.testing.assert_array_equal(
            run_op(fn), oracle_rand((8, 8))[1:4, :])

    def test_index_assign_block(self):
        def fn(rt):
            a = rt.zeros(4.0, 4.0)
            return rt.index_assign(a, [COLON, 2.0], rt.ones(4.0, 1.0))

        got = run_op(fn)
        np.testing.assert_array_equal(got[:, 1], np.ones(4))


class TestLinalg:
    @pytest.mark.parametrize("p", PS)
    def test_matmat(self, p):
        def fn(rt):
            a = rt.rand(7.0, 5.0)
            b = rt.rand(5.0, 6.0)
            return rt.matmul(a, b)

        rng = np.random.default_rng(1)
        a, b = rng.random((7, 5)), rng.random((5, 6))
        np.testing.assert_allclose(run_op(fn, p=p), a @ b)

    @pytest.mark.parametrize("p", PS)
    def test_matvec(self, p):
        def fn(rt):
            a = rt.rand(9.0, 9.0)
            x = rt.rand(9.0, 1.0)
            return rt.matmul(a, x)

        rng = np.random.default_rng(1)
        a, x = rng.random((9, 9)), rng.random((9, 1))
        np.testing.assert_allclose(run_op(fn, p=p), a @ x)

    @pytest.mark.parametrize("p", PS)
    def test_dot(self, p):
        def fn(rt):
            u = rt.rand(11.0, 1.0)
            return rt.matmul(rt.transpose(u), u)

        rng = np.random.default_rng(1)
        u = rng.random((11, 1))
        assert abs(run_op(fn, p=p) - float((u.T @ u)[0, 0])) < 1e-10

    def test_matmul_t_fused_equals_unfused(self):
        def fused(rt):
            a = rt.rand(8.0, 6.0)
            b = rt.rand(8.0, 4.0)
            return rt.matmul_t(a, b)

        def unfused(rt):
            a = rt.rand(8.0, 6.0)
            b = rt.rand(8.0, 4.0)
            return rt.matmul(rt.transpose(a), b)

        np.testing.assert_allclose(run_op(fused), run_op(unfused))

    def test_vecmat(self):
        def fn(rt):
            x = rt.rand(1.0, 6.0)
            a = rt.rand(6.0, 5.0)
            return rt.matmul(x, a)

        rng = np.random.default_rng(1)
        x, a = rng.random((1, 6)), rng.random((6, 5))
        np.testing.assert_allclose(run_op(fn), x @ a)

    def test_outer(self):
        def fn(rt):
            u = rt.rand(5.0, 1.0)
            v = rt.rand(1.0, 7.0)
            return rt.matmul(u, v)

        rng = np.random.default_rng(1)
        u, v = rng.random((5, 1)), rng.random((1, 7))
        np.testing.assert_allclose(run_op(fn), u @ v)

    def test_transpose_matrix(self):
        got = run_op(lambda rt: rt.transpose(rt.rand(4.0, 7.0)))
        np.testing.assert_array_equal(got, oracle_rand((4, 7)).T)

    def test_vector_transpose_roundtrip(self):
        def fn(rt):
            v = rt.rand(9.0, 1.0)
            return rt.transpose(rt.transpose(v))

        np.testing.assert_array_equal(run_op(fn), oracle_rand((9, 1)))

    def test_solve(self):
        def fn(rt):
            a = rt.ew(lambda x, e: x + 10.0 * e, 1,
          rt.rand(6.0, 6.0), rt.eye(6.0, 6.0))
            b = rt.rand(6.0, 1.0)
            return rt.solve(a, b, left=True)

        rng = np.random.default_rng(1)
        a = rng.random((6, 6)) + 10 * np.eye(6)
        b = rng.random((6, 1))
        np.testing.assert_allclose(run_op(fn), np.linalg.solve(a, b))

    def test_matrix_power(self):
        def fn(rt):
            a = rt.rand(5.0, 5.0)
            return rt.matrix_power(a, 3.0)

        a = oracle_rand((5, 5))
        np.testing.assert_allclose(run_op(fn), a @ a @ a)


class TestReductionsDistributed:
    @pytest.mark.parametrize("name,np_fn", [
        ("sum", np.sum), ("prod", np.prod),
        ("max", np.max), ("min", np.min), ("mean", np.mean)])
    def test_vector_reduction(self, name, np_fn):
        def fn(rt):
            v = rt.rand(13.0, 1.0)
            return rt.call_builtin(name, [v])

        v = oracle_rand((13, 1)).reshape(-1)
        assert abs(run_op(fn) - np_fn(v)) < 1e-10

    def test_matrix_reduction_columnwise(self):
        def fn(rt):
            a = rt.rand(6.0, 4.0)
            return rt.call_builtin("sum", [a])

        np.testing.assert_allclose(run_op(fn),
                                   oracle_rand((6, 4)).sum(0).reshape(1, -1))

    def test_minmax_with_index(self):
        def fn(rt):
            v = rt.rand(17.0, 1.0)
            return rt.call_builtin("max", [v], nargout=2)

        got = run_op(fn)
        v = oracle_rand((17, 1)).reshape(-1)
        assert got[0] == v.max()
        assert got[1] == float(np.argmax(v) + 1)

    def test_norm(self):
        def fn(rt):
            v = rt.rand(10.0, 1.0)
            return rt.call_builtin("norm", [v])

        v = oracle_rand((10, 1)).reshape(-1)
        assert abs(run_op(fn) - np.linalg.norm(v)) < 1e-10

    def test_trapz_uniform(self):
        def fn(rt):
            v = rt.rand(1.0, 20.0)
            return rt.call_builtin("trapz", [v])

        v = oracle_rand((1, 20)).reshape(-1)
        assert abs(run_op(fn) - np.trapezoid(v)) < 1e-10

    def test_trapz_nonuniform(self):
        def fn(rt):
            x = rt.range_vector(0.0, 1.0, 9.0)
            y = rt.ew(lambda a: a * a, 1, x)
            return rt.call_builtin("trapz", [x, y])

        x = np.arange(10.0)
        assert abs(run_op(fn) - np.trapezoid(x * x, x)) < 1e-10

    def test_trapz2(self):
        def fn(rt):
            z = rt.rand(8.0, 9.0)
            return rt.call_builtin("trapz2", [z, 0.5, 0.25])

        z = oracle_rand((8, 9))
        want = np.trapezoid(np.trapezoid(z, dx=0.25, axis=1), dx=0.5)
        assert abs(run_op(fn) - want) < 1e-10

    @pytest.mark.parametrize("p", PS)
    def test_cumsum_vector(self, p):
        def fn(rt):
            v = rt.rand(15.0, 1.0)
            return rt.call_builtin("cumsum", [v])

        v = oracle_rand((15, 1)).reshape(-1)
        np.testing.assert_allclose(
            np.asarray(run_op(fn, p=p)).reshape(-1), np.cumsum(v))

    def test_all_any(self):
        def fn(rt):
            v = rt.ones(9.0, 1.0)
            return (rt.call_builtin("all", [v]),
                    rt.call_builtin("any", [rt.zeros(9.0, 1.0)]))

        got = run_op(fn)
        assert got == (1.0, 0.0)


class TestStructural:
    @pytest.mark.parametrize("k", [0, 1, -2, 5, 23])
    def test_circshift_vector(self, k):
        def fn(rt):
            v = rt.range_vector(1.0, 1.0, 11.0)
            return rt.circshift(v, float(k))

        got = np.asarray(run_op(fn)).reshape(-1)
        np.testing.assert_array_equal(got, np.roll(np.arange(1.0, 12.0), k))

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("kr,kc", [(0, 1), (0, -3), (1, 0), (2, -1),
                                       (-1, 2), (0, 0), (7, 9)])
    def test_circshift_two_element(self, p, kr, kc):
        def fn(rt):
            a = rt.rand(7.0, 5.0)
            shift = rt.distribute_full(np.array([[float(kr), float(kc)]]))
            return rt.circshift(a, shift)

        got = run_op(fn, p=p)
        want = np.roll(oracle_rand((7, 5)), (kr, kc), axis=(0, 1))
        np.testing.assert_array_equal(np.asarray(got).reshape(want.shape),
                                      want)

    @pytest.mark.parametrize("shape", [(1.0, 9.0), (9.0, 1.0)])
    def test_circshift_two_element_vector(self, shape):
        def fn(rt):
            v = rt.rand(*shape)
            shift = rt.distribute_full(np.array([[2.0, 2.0]]))
            return rt.circshift(v, shift)

        got = np.asarray(run_op(fn)).reshape(-1)
        want = np.roll(oracle_rand(tuple(int(s) for s in shape)).reshape(-1),
                       2)
        np.testing.assert_array_equal(got, want)

    def test_circshift_bad_shift_rejected(self):
        def fn(rt):
            a = rt.rand(4.0, 4.0)
            shift = rt.distribute_full(np.array([[1.0, 2.0, 3.0]]))
            return rt.circshift(a, shift)

        # run_spmd wraps the rank's MatlabRuntimeError
        with pytest.raises(Exception, match="two-element"):
            run_op(fn, p=1)

    def test_sort_sample_sort(self):
        def fn(rt):
            v = rt.rand(1.0, 40.0)
            return rt.sort(v)

        got = np.asarray(run_op(fn, p=4)).reshape(-1)
        np.testing.assert_allclose(got,
                                   np.sort(oracle_rand((1, 40)).reshape(-1)))

    def test_tril_triu_local(self):
        def fn(rt):
            a = rt.rand(7.0, 7.0)
            return rt.call_builtin("tril", [a])

        np.testing.assert_array_equal(run_op(fn), np.tril(oracle_rand((7, 7))))

    def test_reshape_column_major(self):
        def fn(rt):
            a = rt.rand(4.0, 6.0)
            return rt.call_builtin("reshape", [a, 6.0, 4.0])

        np.testing.assert_array_equal(
            run_op(fn), oracle_rand((4, 6)).reshape((6, 4), order="F"))

    def test_diag_of_matrix(self):
        def fn(rt):
            a = rt.rand(6.0, 6.0)
            return rt.call_builtin("diag", [a])

        np.testing.assert_array_equal(
            np.asarray(run_op(fn)).reshape(-1), np.diag(oracle_rand((6, 6))))

    def test_fliplr_matrix(self):
        def fn(rt):
            a = rt.rand(5.0, 8.0)
            return rt.call_builtin("fliplr", [a])

        np.testing.assert_array_equal(run_op(fn),
                                      np.fliplr(oracle_rand((5, 8))))


class TestCyclicScheme:
    """The ablation distribution: same results, different layout."""

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_matvec_cyclic(self, p):
        def fn(rt):
            a = rt.rand(9.0, 9.0)
            x = rt.rand(9.0, 1.0)
            return rt.matmul(a, x)

        rng = np.random.default_rng(1)
        a, x = rng.random((9, 9)), rng.random((9, 1))
        np.testing.assert_allclose(run_op(fn, p=p, scheme="cyclic"), a @ x)

    def test_reduction_cyclic(self):
        def fn(rt):
            v = rt.rand(14.0, 1.0)
            return rt.call_builtin("sum", [v])

        v = oracle_rand((14, 1))
        assert abs(run_op(fn, p=4, scheme="cyclic") - v.sum()) < 1e-10


class TestTruthyAndLoops:
    def test_truthy_distributed(self):
        assert run_op(lambda rt: rt.truthy(rt.ones(5.0, 5.0))) is True
        def has_zero(rt):
            a = rt.set_element(rt.ones(5.0, 5.0), [2.0, 2.0], 0.0)
            return rt.truthy(a)

        assert run_op(has_zero) is False

    def test_loop_range_replicated(self):
        def fn(rt):
            return sum(rt.loop_range(1.0, 2.0, 9.0))

        assert run_op(fn) == 25.0  # 1+3+5+7+9

    def test_loop_values_over_matrix(self):
        def fn(rt):
            a = rt.rand(4.0, 3.0)
            total = 0.0
            for col in rt.loop_values(a):
                total += rt.call_builtin("sum", [col])
            return total

        assert abs(run_op(fn) - oracle_rand((4, 3)).sum()) < 1e-10
