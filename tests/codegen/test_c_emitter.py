"""Golden tests for the C backend — including the paper's two worked
examples from Section 3."""

from repro.compiler import compile_source
from repro.tuning import FUSION_REWRITES, Plan


def c_of(src, **kw):
    return compile_source(src, **kw).c_source


class TestPaperExamples:
    def test_example_one_matmul_broadcast_fused_loop(self):
        """Paper: ``a = b * c + d(i,j);`` becomes a matrix-multiply call,
        a broadcast, and an elementwise for loop."""
        c = c_of("""
b = rand(4, 4); c = rand(4, 4); d = rand(4, 4);
i = 2; j = 3;
a = b * c + d(i,j);
""")
        assert "ML_matrix_multiply(b, c, &ML_tmp" in c
        assert "ML_broadcast(&ML_tmp" in c
        assert ", d, i - 1, j - 1);" in c
        # the owner-computes loop over local elements
        assert "ML_local_els(a)" in c
        assert "a->realbase[" in c
        assert "->realbase[" in c and "+ ML_tmp" in c

    def test_example_two_owner_guarded_store(self):
        """Paper: ``a(i,j) = a(i,j) / b(j,i);`` broadcasts the operands and
        guards the store with ML_owner."""
        c = c_of("""
a = rand(4, 4); b = rand(4, 4);
i = 2; j = 3;
a(i,j) = a(i,j) / b(j,i);
""")
        assert "ML_broadcast(&ML_tmp" in c
        assert ", b, j - 1, i - 1);" in c
        assert "if (ML_owner(a, i - 1, j - 1)) {" in c
        assert "*ML_realaddr2(a, i - 1, j - 1) =" in c


class TestStructure:
    def test_header_and_main(self):
        c = c_of("x = 1;")
        assert '#include "otter_runtime.h"' in c
        assert "#include <mpi.h>" in c
        assert "int main(int argc, char *argv[])" in c
        assert "ML_init_runtime(&argc, &argv);" in c
        assert "ML_finalize_runtime();" in c

    def test_scalar_declarations_typed(self):
        c = c_of("n = 5;\nx = 2.5;")
        assert "int n = 0;" in c
        assert "double x = 0.0;" in c

    def test_matrix_declared_as_pointer(self):
        c = c_of("a = ones(3, 3);")
        assert "MATRIX *a = NULL;" in c

    def test_scalar_statement_inline(self):
        c = c_of("x = 1.5;\ny = x * 2 + 1;")
        assert "y = ((x * 2.0) + 1.0);" in c

    def test_for_loop(self):
        c = c_of("s = 0;\nfor i = 1:10\n s = s + i;\nend")
        assert "for (i = 1; i <= 10; i += 1) {" in c

    def test_while_loop(self):
        c = c_of("x = 0;\nwhile x < 5\n x = x + 1;\nend")
        assert "while (1) {" in c
        assert "if (!(ML_tmp" in c and ")) break;" in c
        assert "((double)x < 5.0)" in c

    def test_if_else(self):
        c = c_of("x = 1;\nif x > 0\n y = 1;\nelse\n y = 2;\nend")
        assert "((double)x > 0.0)" in c and "if (ML_tmp" in c
        assert "} else {" in c

    def test_user_function_emitted(self):
        from repro.frontend.mfile import DictProvider

        src = "y = f(3);"
        prog = compile_source(src, provider=DictProvider({
            "f": "function y = f(x)\ny = x * 2;"}))
        c = prog.c_source
        assert "static void otter_f(" in c
        assert "otter_f(3, &" in c

    def test_display_call(self):
        c = c_of("x = 5")
        assert "ML_print_scalar(\"x\", x);" in c

    def test_matrix_display(self):
        c = c_of("a = ones(2, 2)")
        assert "ML_print_matrix(\"a\", a);" in c

    def test_builtin_call_form(self):
        c = c_of("v = ones(4, 1);\ns = sum(v);")
        assert "ML_sum(v, &s);" in c

    def test_fused_dot_becomes_ml_dot(self):
        c = c_of("r = ones(8, 1);\ns = r' * r;")
        assert "ML_dot(r, r)" in c

    def test_elementwise_loop_counts_down(self):
        c = c_of("a = ones(4, 4);\nb = a + a;")
        assert "for (ML_i0 = ML_local_els(b)-1; ML_i0 >= 0; ML_i0--) {" in c

    def test_scalar_kernel_functions(self):
        c = c_of("x = 2.5;\ny = sqrt(x) + floor(x);")
        assert "sqrt(x)" in c and "floor(x)" in c

    def test_string_literal_in_call(self):
        c = c_of("fprintf('v=%d\\n', 3);")
        assert 'ML_fprintf("v=%d\\n", 3);' in c

    def test_colon_subscript(self):
        c = c_of("a = ones(4, 4);\nb = a(:, 2);")
        assert "ML_COLON" in c

    def test_deterministic_output(self):
        src = "a = ones(3, 3);\nb = a * a;\nc = sum(sum(b));"
        assert c_of(src) == c_of(src)


class TestPassSixCalls:
    """The listing shows pass 6's collective-removing rewrites."""

    def test_constant_shift_is_a_static_initialiser(self):
        c = c_of("A = rand(4, 4);\nsh = [-1, 0];\n"
                 "B = circshift(A, sh);\nC = circshift(A, [0; 2]);\n"
                 "D = circshift(A, 1);")
        assert "static const int ML_imm1[1][2] = {{-1, 0}};" in c
        assert "ML_circshift_const(A, &ML_imm1[0][0], &B);" in c
        assert "static const int ML_imm1[2][1] = {{0}, {2}};" in c
        assert "ML_circshift_const(A, &ML_imm1[0][0], &C);" in c
        # a scalar shift was never a matrix
        assert "ML_circshift(A, 1, &D);" in c
        # sh is still built (it is a workspace variable); the inline
        # literal's temporary is gone
        assert c.count("ML_literal(") == 1

    def test_nested_reduction_names_its_op(self):
        c = c_of("A = rand(4, 4);\ns = sum(sum(A));\n"
                 "e = all(all(A > 0));")
        assert "ML_reduce2(ML_OP_SUM, A, &s);" in c
        assert "ML_reduce2(ML_OP_ALL, ML_tmp" in c
        assert "ML_sum(" not in c and "ML_all(" not in c

    def test_batched_reductions_are_one_variadic_call(self):
        c = c_of("x = rand(9, 1); y = rand(9, 1); z = rand(9, 1);\n"
                 "a = mean(x);\nb = mean(y);\nc = mean(z);",
                 plan=Plan(fusion=FUSION_REWRITES))
        assert "ML_reduce_batch(ML_OP_MEAN, 3, x, y, z, &a, &b, &c);" in c
        assert "ML_mean(" not in c
        assert "double a = 0.0;" in c and "double c = 0.0;" in c


class TestExpressionsAreDoubles:
    """Inside a C expression every literal is a double and an ``int``
    scalar is cast, so ``/`` never divides integers; run-time call
    arguments keep their ints."""

    def test_integer_operands_do_not_divide_as_ints(self):
        c = c_of("v = ones(1, 4);\nn = 64; h = 1 / n; t = (1/3) * v;")
        assert "int n = 0;" in c and "n = 64;" in c
        assert "h = (1.0 / (double)n);" in c
        assert "((1.0 / 3.0) * v->realbase[ML_i0])" in c
        assert "ML_ones(1, 4, &v);" in c

    def test_non_finite_literals_compile(self):
        c = c_of("x = 1e999;\ny = -1e999;\nz = 0 * 1e999;\nw = x - nan;")
        assert "x = (1.0 / 0.0);" in c
        assert "y = (-1.0 / 0.0);" in c
        assert "z = (0.0 * (1.0 / 0.0));" in c
        assert "NAN" in c

    def test_operators_and_functions_come_from_the_op_table(self):
        from repro.ewops import OPS

        c = c_of("a = ones(1, 4); s = 3;\n"
                 "b = mod(a, s) + round(a) .^ 2 + (a .\\ s) + ~a;")
        loop = f"ML_i0"
        a = f"a->realbase[{loop}]"
        assert OPS["fn:mod"].c.format(a, "(double)s") in c
        assert OPS["pow:2"].c.format(OPS["fn:round"].c.format(a)) in c
        assert OPS[".\\"].c.format(a, "(double)s") in c
        assert OPS["u~"].c.format(a) in c
        assert "ML_mod" not in c and "ML_round" not in c

    def test_parts_of_a_complex_value_stay_run_time_calls(self):
        c = c_of("z = sqrt(-1) + 2i; r = real(z); g = angle(z);\n"
                 "x = 2.5; q = real(x) + imag(x);")
        assert "r = ML_real(z);" in c and "g = ML_angle(z);" in c
        assert "q = ((x) + 0.0);" in c
