"""Edge-case semantics: empty matrices, degenerate shapes, boundary
subscripts, and numeric corner cases — interpreter and compiled."""

import numpy as np
import pytest

from repro.errors import MatlabRuntimeError, MpiError
from repro.interp.interpreter import run_source


class TestEmptyMatrices:
    def test_empty_literal(self, assert_matches_oracle):
        ws = assert_matches_oracle(
            "e = [];\nn = numel(e);\nb = isempty(e);", nprocs=(1, 2))
        assert ws["n"] == 0.0 and ws["b"] == 1.0

    def test_empty_range(self, assert_matches_oracle):
        ws = assert_matches_oracle(
            "r = 5:1;\nn = numel(r);\ns = sum(r);", nprocs=(1, 2))
        assert ws["n"] == 0.0
        assert ws["s"] == 0.0  # sum of empty is 0

    def test_empty_condition_is_false(self, assert_matches_oracle):
        ws = assert_matches_oracle("""
x = 0;
if []
    x = 1;
end
""", nprocs=(1, 2))
        assert ws["x"] == 0.0

    def test_loop_over_empty_range_skipped(self, assert_matches_oracle):
        ws = assert_matches_oracle(
            "c = 0;\nfor i = 1:0\n c = c + 1;\nend", nprocs=(1, 2))
        assert ws["c"] == 0.0


class TestDegenerateShapes:
    def test_1x1_matrix_is_scalar(self, assert_matches_oracle):
        ws = assert_matches_oracle(
            "a = [7];\nb = a * [2];\nc = isscalar(b);", nprocs=(1, 2))
        assert ws["b"] == 14.0 and ws["c"] == 1.0

    def test_1xn_times_nx1(self, assert_matches_oracle):
        ws = assert_matches_oracle(
            "x = [1, 2, 3] * [4; 5; 6];", nprocs=(1, 3))
        assert ws["x"] == 32.0

    def test_single_row_matrix_ops(self, assert_matches_oracle):
        assert_matches_oracle("""
r = ones(1, 13);
s = sum(r);
t = r';
u = t' * t;
""", nprocs=(1, 4))

    def test_tall_skinny_product(self, assert_matches_oracle):
        assert_matches_oracle("""
rand('seed', 31);
A = rand(17, 2);
G = A' * A;
d = det(G);
""", nprocs=(1, 4), rtol=1e-7)

    def test_more_ranks_than_rows(self, assert_matches_oracle):
        # 3 rows over 4 ranks: some ranks own nothing
        assert_matches_oracle("""
rand('seed', 32);
a = rand(3, 5);
s = sum(sum(a));
b = a * a';
t = trace(b);
""", nprocs=(1, 4), rtol=1e-8)


class TestBoundarySubscripts:
    def test_first_and_last_element(self, assert_matches_oracle):
        ws = assert_matches_oracle("""
v = 10:10:90;
a = v(1);
b = v(end);
v(1) = -1;
v(end) = -9;
s = sum(v);
""", nprocs=(1, 3))
        assert ws["a"] == 10.0 and ws["b"] == 90.0

    def test_full_slice_read_write(self, assert_matches_oracle):
        assert_matches_oracle("""
a = magic_fill(4);
b = a(:, :);
a(:, :) = b * 2;
s = sum(sum(a));
""", nprocs=(1, 2), provider=_magic_provider())

    def test_out_of_bounds_read_fails_everywhere(self):
        src = "a = ones(2, 2);\nx = a(3, 3);"
        with pytest.raises(MatlabRuntimeError):
            run_source(src)
        from repro.compiler import compile_source

        with pytest.raises((MatlabRuntimeError, MpiError)):
            compile_source(src).run(nprocs=2)

    def test_zero_subscript_fails(self):
        with pytest.raises(MatlabRuntimeError):
            run_source("a = ones(2, 2);\nx = a(0, 1);")


class TestNumericCorners:
    def test_inf_nan_propagation(self, assert_matches_oracle):
        ws = assert_matches_oracle("""
a = 1 / 0;
b = -1 / 0;
c = 0 / 0;
d = isnan(c);
e = isinf(a) + isinf(b);
""", nprocs=(1, 2))
        assert ws["d"] == 1.0 and ws["e"] == 2.0

    def test_integer_overflow_free(self, assert_matches_oracle):
        ws = assert_matches_oracle("x = 2^50 + 1;\ny = x - 2^50;",
                                   nprocs=(1, 2))
        assert ws["y"] == 1.0

    def test_negative_zero_comparisons(self, assert_matches_oracle):
        ws = assert_matches_oracle("a = 0 == -0;\nb = 1 / -0;",
                                   nprocs=(1, 2))
        assert ws["a"] == 1.0
        assert ws["b"] == -np.inf

    def test_complex_magnitude_ordering(self, assert_matches_oracle):
        # MATLAB's < compares real parts for complex operands
        ws = assert_matches_oracle("c = (1 + 5i) < 2;", nprocs=(1, 2))
        assert ws["c"] == 1.0

    def test_mod_signs_match_matlab(self, assert_matches_oracle):
        ws = assert_matches_oracle("""
a = mod(-7, 3);
b = rem(-7, 3);
c = mod(7, -3);
""", nprocs=(1, 2))
        assert ws["a"] == 2.0    # mod follows divisor sign
        assert ws["b"] == -1.0   # rem follows dividend sign
        assert ws["c"] == -2.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_literals_beyond_realmax_are_infinite(self, run_interp,
                                                  run_compiled):
        """``1e999`` is ``Inf``: the emitted Python must spell it as a
        literal (``repr`` gives the bare name ``inf``) on both backends."""
        src = ("x = 1e999;\ny = -1e999;\nz = 0 * 1e999;\n"
               "v = [1, -2] * 1e999;\nw = [1, 2] + -1e999;\n"
               "disp(x); disp(y); disp(z); disp(v);")
        interp = run_interp(src)
        assert "Inf" in "".join(interp.output)
        for backend in ("lockstep", "fused"):
            for p in (1, 4):
                ws, out = run_compiled(src, nprocs=p, backend=backend)
                assert out == "".join(interp.output), (backend, p)
                for name, expected in interp.workspace.items():
                    np.testing.assert_array_equal(
                        np.asarray(ws[name]), np.asarray(expected),
                        err_msg=f"{backend} P={p}: {name}")
        assert ws["x"] == np.inf and ws["y"] == -np.inf and np.isnan(ws["z"])


def _magic_provider():
    from repro.frontend.mfile import DictProvider

    return DictProvider({"magic_fill": """function m = magic_fill(n)
m = zeros(n, n);
for i = 1:n
    for j = 1:n
        m(i, j) = (i - 1) * n + j;
    end
end
"""})


class TestAssignmentCorners:
    def test_complex_store_into_real_matrix(self, assert_matches_oracle):
        ws = assert_matches_oracle("""
a = zeros(3, 3);
a(2, 2) = 1 + 2i;
s = a(2, 2);
t = isreal(a);
""", nprocs=(1, 3))
        assert ws["s"] == 1 + 2j and ws["t"] == 0.0

    def test_indexed_target_in_multi_assign(self, assert_matches_oracle):
        ws = assert_matches_oracle("""
r = zeros(1, 2);
a = [5, 3; 2, 9];
[r(1), r(2)] = size(a);
[mx, pos(1)] = max([4, 7, 1]);
""", nprocs=(1, 2))
        import numpy as np

        np.testing.assert_array_equal(np.asarray(ws["r"]), [[2, 2]])
        assert ws["mx"] == 7.0

    def test_chained_growth_then_slice(self, assert_matches_oracle):
        assert_matches_oracle("""
m = zeros(2, 2);
m(4, 4) = 1;
row = m(4, :);
s = sum(row);
""", nprocs=(1, 3))

    def test_ans_display_through_pipeline(self, run_interp, run_compiled):
        src = "1 + 1\nans * 10"
        interp = run_interp(src)
        _, out = run_compiled(src, nprocs=2)
        assert out == "".join(interp.output)
        assert out.count("ans =") == 2

    def test_assign_string_then_number(self, assert_matches_oracle):
        # dynamic retyping of a variable (the problem SSA exists to solve)
        ws = assert_matches_oracle("""
x = 'hello';
n = length(x);
x = 3.5;
y = x * 2;
""", nprocs=(1, 2))
        assert ws["y"] == 7.0 and ws["n"] == 5.0

    def test_matrix_to_scalar_retyping(self, assert_matches_oracle):
        ws = assert_matches_oracle("""
v = ones(4, 1);
v = sum(v);
w = v + 1;
""", nprocs=(1, 2))
        assert ws["w"] == 5.0
