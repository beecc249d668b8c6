"""Python-backend emission tests."""

import pytest

from repro.compiler import compile_source
from repro.tuning import FUSION_REWRITES, Plan


def py_of(src, **kw):
    return compile_source(src, **kw).python_source


class TestShape:
    def test_defines_main(self):
        py = py_of("x = 1;")
        assert "def main(rt):" in py
        assert compile(py, "<gen>", "exec")  # syntactically valid

    def test_variables_mangled(self):
        py = py_of("lambda_ = 1;\nclass_ = 2;")
        assert "v_lambda_" in py and "v_class_" in py

    def test_none_prologue(self):
        py = py_of("if 1 > 0\n x = 1;\nend\ny = 2;")
        assert "v_x = None" in py

    def test_workspace_returned(self):
        py = py_of("abc = 1;")
        assert "'abc': v_abc" in py

    def test_fused_lambda_single_ew_call(self):
        py = py_of("a = ones(3, 3);\nb = ones(3, 3);\n"
                   "c = sqrt(a) + b .* a;")
        line = [ln for ln in py.splitlines()
                if "v_c = rt.ew" in ln][0]
        assert line.count("rt.ew(") == 1
        # the lambda is bound once, at module level; the operators that
        # are one Python operator each are spelt inline
        fn = line.split("rt.ew(")[1].split(",")[0]
        assert f"\n{fn} = lambda _v0, _v1: (K.sqrt(_v0) + (_v1 * _v0))\n" \
            in py

    def test_non_finite_constants_are_literals(self):
        py = py_of("x = 1e999;\ny = -1e999;\nv = ones(1, 3) * 1e999;\n"
                   "z = 1e999i;")
        assert "v_x = float('inf')" in py
        assert "v_y = float('-inf')" in py
        assert "lambda _v0: (_v0 * float('inf'))" in py
        assert "spec=('.*', '@0', float('inf'))" in py
        assert "v_z = complex(0.0, float('inf'))" in py
        compile(py, "<gen>", "exec")

    def test_signed_literal_is_a_constant(self):
        py = py_of("u = ones(1, 8);\nw = circshift(u, -1);\nx = -2.5;")
        assert "_bi_circshift(rt, [v_u, -1.0], 1)" in py
        assert "v_x = -2.5" in py
        assert "K.neg" not in py

    def test_matmul_call(self):
        py = py_of("a = ones(3, 3);\nb = a * a;")
        assert "rt.matmul(v_a, v_a)" in py

    def test_broadcast_element_zero_based(self):
        py = py_of("d = ones(4, 4);\ni = 2;\nx = d(i, 2);")
        assert "rt.element(v_d, K.idx(v_i) - 1, K.idx(2.0) - 1)" in py

    def test_guarded_store(self):
        py = py_of("a = zeros(4, 4);\na(2, 2) = 5;")
        assert "rt.set_element(v_a, [2.0, 2.0], 5.0, reuse=True)" in py

    def test_loop_range(self):
        py = py_of("for i = 1:10\n x = i;\nend")
        assert "for v_i in rt.loop_range(1.0, 1.0, 10.0):" in py

    def test_while_re_evaluates_condition(self):
        py = py_of("x = ones(3, 1);\nwhile sum(x) < 10\n x = x + 1;\nend")
        # the sum call must appear inside the while body (re-evaluated)
        lines = py.splitlines()
        wi = next(i for i, ln in enumerate(lines) if "while True:" in ln)
        assert any("_bi_sum(rt, " in ln for ln in lines[wi:wi + 3])

    def test_user_function_definition(self):
        from repro.frontend.mfile import DictProvider

        py = py_of("y = f(1);", provider=DictProvider({
            "f": "function y = f(x)\ny = x + 1;"}))
        assert "def fn_f(rt, v_x=None):" in py
        assert "fn_f(rt, 1.0)[0]" in py

    def test_multi_output_builtin(self):
        py = py_of("a = ones(3, 4);\n[r, c] = size(a);")
        assert "_r = _bi_size(rt, [v_a], 2)" in py
        assert "\n_bi_size = _B['size']\n" in py

    def test_globals_through_rt(self):
        py = py_of("global g\ng = 5;\nx = g + 1;")
        assert "rt.globals['g']" in py

    def test_deterministic(self):
        src = "a = rand(5, 5);\nb = a' * a;\ns = sum(sum(b));"
        assert py_of(src) == py_of(src)


class TestPassSixCalls:
    """The forms pass 6's collective-removing rewrites are printed in."""

    FULL = Plan(fusion=FUSION_REWRITES)

    def test_constant_shift_is_passed_as_a_tuple(self):
        py = py_of("A = rand(4, 4);\nsh = [-1, 0];\n"
                   "B = circshift(A, sh);\nC = circshift(A, [0, 2]);")
        assert "v_B = _bi_circshift(rt, [v_A, ((-1.0, 0.0),)], 1)" in py
        assert "v_C = _bi_circshift(rt, [v_A, ((0.0, 2.0),)], 1)" in py
        # sh stays a workspace variable; the inline literal is gone
        assert py.count("rt.from_literal(") == 1
        assert "'sh': v_sh" in py

    def test_column_shift_keeps_its_shape(self):
        py = py_of("A = rand(4, 4);\nB = circshift(A, [1; -1]);")
        assert "[v_A, ((1.0,), (-1.0,))]" in py

    def test_nested_reduction_is_one_runtime_call(self):
        py = py_of("A = rand(4, 4);\nt = max(max(abs(A)));")
        assert "v_t = rt.reduce2('max', ML_tmp2)" in py
        assert "_bi_max" not in py

    def test_batched_reductions_unpack_one_call(self):
        py = py_of("x = rand(9, 1); y = rand(9, 1);\n"
                   "a = mean(x);\nb = mean(y);", plan=self.FULL)
        assert "_r = rt.reduce_batch('mean', [v_x, v_y])" in py
        assert "v_a = _r[0]" in py and "v_b = _r[1]" in py
        assert "_bi_mean" not in py

    def test_the_old_schedule_prints_the_old_calls(self):
        py = py_of("A = rand(4, 4);\nB = circshift(A, [0, 2]);\n"
                   "t = sum(sum(A));",
                   plan=Plan(fusion=("transpose_matmul", "cse")))
        assert "_bi_circshift(rt, [v_A, ML_tmp2], 1)" in py
        assert py.count("_bi_sum(rt, ") == 2
        assert "reduce2" not in py


class TestGeneratedSemantics:
    """Spot-check behaviours that only show up at run time."""

    def test_break_and_continue(self, run_compiled):
        ws, _ = run_compiled("""
s = 0;
for i = 1:10
    if i == 4, continue, end
    if i == 8, break, end
    s = s + i;
end
""")
        assert ws["s"] == 1 + 2 + 3 + 5 + 6 + 7

    def test_return_from_function(self, run_compiled):
        from repro.frontend.mfile import DictProvider

        ws, _ = run_compiled("y = sgn(-5);", provider=DictProvider({
            "sgn": """function y = sgn(x)
if x < 0
    y = -1;
    return
end
y = 1;
"""}))
        assert ws["y"] == -1.0

    def test_globals_shared_with_functions(self, run_compiled):
        from repro.frontend.mfile import DictProvider

        ws, _ = run_compiled("""
global total
total = 0;
acc(5);
acc(7);
x = total;
""", provider=DictProvider({
            "acc": "function acc(v)\nglobal total\ntotal = total + v;"}))
        assert ws["x"] == 12.0

    def test_empty_branch_bodies(self, run_compiled):
        ws, _ = run_compiled("x = 1;\nif x > 0\nend\ny = 2;")
        assert ws["y"] == 2.0

    def test_nested_function_calls(self, run_compiled):
        from repro.frontend.mfile import DictProvider

        ws, _ = run_compiled("y = outer(3);", provider=DictProvider({
            "outer": "function y = outer(x)\ny = inner(x) * 2;",
            "inner": "function y = inner(x)\ny = x + 10;"}))
        assert ws["y"] == 26.0
