"""Loop-invariant code motion (pass 6b) tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_source
from repro.interp.interpreter import run_source
from repro.ir.nodes import IRFor, IRWhile, RTCall
from repro.tuning import Plan

NO_LICM = Plan(licm="off")


def hoist_count(src, **kw):
    return compile_source(src, **kw).licm_stats.hoisted


def loop_body_ops(prog):
    """RT ops remaining inside the first for loop of the script."""
    for stmt in prog.ir.body:
        if isinstance(stmt, IRFor):
            return [s.op for s in stmt.body if isinstance(s, RTCall)]
    return []


class TestHoisting:
    def test_invariant_broadcast_hoisted(self):
        src = """
d = rand(4, 4);
t = 0;
for s = 1:10
    t = t + d(1, 2);
end
"""
        prog = compile_source(src)
        assert prog.licm_stats.hoisted == 1
        assert "broadcast_element" not in loop_body_ops(prog)

    def test_variant_broadcast_stays(self):
        src = """
d = rand(4, 4);
t = 0;
for s = 1:4
    t = t + d(s, 2);
end
"""
        prog = compile_source(src)
        assert prog.licm_stats.hoisted == 0
        assert "broadcast_element" in loop_body_ops(prog)

    def test_redefined_subject_blocks_hoist(self):
        src = """
d = rand(4, 4);
t = 0;
for s = 1:4
    t = t + d(1, 2);
    d = rand(4, 4);
end
"""
        assert hoist_count(src) == 0

    def test_invariant_matmul_hoisted(self):
        src = """
a = rand(8, 8);
b = rand(8, 8);
t = zeros(8, 8);
for s = 1:10
    t = t + a * b;
end
"""
        prog = compile_source(src)
        assert prog.licm_stats.hoisted >= 1
        assert "matmul" not in loop_body_ops(prog)

    def test_chain_of_invariants_hoists_together(self):
        src = """
a = rand(8, 8);
v = ones(8, 1);
t = zeros(8, 1);
for s = 1:10
    t = t + a' * (a * v);
end
"""
        prog = compile_source(src)
        assert prog.licm_stats.hoisted >= 2

    def test_rng_never_hoisted(self):
        src = """
t = 0;
for s = 1:5
    t = t + sum(rand(4, 1));
end
"""
        prog = compile_source(src)
        assert "builtin:rand" in loop_body_ops(prog)

    def test_io_never_hoisted(self):
        src = "for s = 1:3\n disp('hello');\nend"
        prog = compile_source(src)
        assert "builtin:disp" in loop_body_ops(prog)

    def test_zero_trip_loop_blocks_speculation(self):
        # n is not a compile-time constant range: 1:k with variable k
        src = """
d = rand(4, 4);
k = 0;
t = 0;
for s = 1:k
    t = t + d(9, 9);
end
"""
        # the read is out of bounds, but the loop never runs: the program
        # must still succeed, so the broadcast must NOT be hoisted
        prog = compile_source(src)
        assert prog.licm_stats.hoisted == 0
        result = prog.run(nprocs=2)
        assert result.workspace["t"] == 0.0

    def test_dim_hoisted_even_from_while(self):
        src = """
v = ones(7, 1);
i = 1;
t = 0;
while i < 3
    t = t + v(end);
    i = i + 1;
end
"""
        prog = compile_source(src)
        assert prog.licm_stats.hoisted >= 1  # the `end` extent query

    def test_disabled_flag(self):
        src = "d = rand(4, 4);\nt = 0;\nfor s = 1:10\n t = t + d(1, 2);\nend"
        assert hoist_count(src, plan=NO_LICM) == 0


class TestSemanticsPreserved:
    @pytest.mark.parametrize("plan,other", [(None, NO_LICM),
                                            (NO_LICM, None)])
    def test_identical_results(self, plan, other):
        src = """
rand('seed', 3);
a = rand(16, 16);
v = ones(16, 1);
acc = zeros(16, 1);
d = rand(4, 4);
for s = 1:20
    acc = acc + a * v + d(2, 2);
    v = v / norm(v);
end
m = sum(acc);
"""
        result = compile_source(src, plan=plan).run(nprocs=4)
        # pin the value so both variants are compared to the same number
        assert result.workspace["m"] == pytest.approx(
            compile_source(src, plan=other).run(
                nprocs=4).workspace["m"], rel=1e-12)

    def test_collectives_reduced(self):
        src = """
d = rand(8, 8);
t = 0;
for s = 1:50
    t = t + d(1, 2);
end
"""
        with_licm = compile_source(src).run(nprocs=4)
        without = compile_source(src, plan=NO_LICM).run(nprocs=4)
        assert (with_licm.spmd.collective_counts.get("bcast", 0)
                < without.spmd.collective_counts.get("bcast", 0))
        assert with_licm.elapsed < without.elapsed


# ---------------------------------------------------------------------- #
# the exactly-once rule: a name the loop assigns a second time (a store
# into it, the loop variable), or assigns where a `break`/`continue` may
# skip the assignment, is not invariant
# ---------------------------------------------------------------------- #

STORE_BODY = "x = zeros(1, 4); x(k) = k; disp(sum(x));"

#: key -> (the name, the script, its M-files)
REDEFINED = {
    "scalar_store": ("x", f"for k = 1:3, {STORE_BODY} end", {}),
    "store_into_transpose": (
        "B", "A = eye(3); for k = 1:3, B = A'; B(k, 1) = 7; "
        "disp(sum(sum(B))); end", {}),
    "loop_variable": (
        "k", "v = ones(1, 4); for k = 1:3, k = length(v); disp(k); end", {}),
    "slice_store": (
        "x", "for k = 1:3, x = zeros(1, 4); x(1:2) = k; disp(sum(x)); end",
        {}),
    "in_user_function": (
        "x", "fill(3);",
        {"fill": f"function fill(n)\nfor k = 1:3, {STORE_BODY} end\n"}),
    "store_in_nested_block": (
        "x", "for k = 1:3, x = zeros(1, 4); if k > 1, x(k) = k; end; "
        "disp(sum(x)); end", {}),
    "after_break": (
        "x", "x = 5; for k = 1:3, if k == 1, break; end; x = zeros(1, 2); "
        "end; disp(x)", {}),
    "after_continue": (
        "x", "x = 5; A = eye(2); for k = 1:3, if k < 5, continue; end; "
        "x = A'; end; disp(x)", {}),
}


@pytest.mark.parametrize("key", sorted(REDEFINED))
def test_redefined_name_stays_in_the_loop(key, run_interp):
    from repro.frontend.mfile import DictProvider

    name, source, mfiles = REDEFINED[key]
    provider = DictProvider(mfiles)
    program = compile_source(source, provider=provider)
    loop = next(stmt for block in program.ir.walk() for stmt in block
                if isinstance(stmt, IRFor))
    assert any(dest.name == name
               for stmt in loop.body for dest in stmt.defs())
    expected = "".join(run_interp(source, provider=provider).output)
    for backend in ("fused", "lockstep"):
        for p in (1, 4):
            assert program.run(nprocs=p, backend=backend).output \
                == expected, (backend, p)


def test_invariant_product_still_hoists():
    """The positive control (``benchmarks/test_ablation_licm.py``'s
    loop): both products and the broadcast leave, as before."""
    prog = compile_source("""
n = 12;
A = rand(n, n) / n;
B = rand(n, n) / n;
g = rand(n, 1);
x = zeros(n, 1);
w = rand(8, 8);
for s = 1:40
    C = A * B;
    x = 0.9 * x + C * g + w(3, 3);
end
""")
    assert prog.licm_stats.hoisted == 3
    assert loop_body_ops(prog) == []


# ---------------------------------------------------------------------- #
# generated loop bodies: whatever a body assigns, stores into, reads
# first or may skip, hoisting must not change what the program prints
# ---------------------------------------------------------------------- #

PRELUDE = ("A = [1, 2, 3; 4, 5, 6; 7, 8, 10]; B = A + 1; v = [1, 2, 3];\n"
           "x = v; y = 2 * v; M = A; N = B; s = 0; t = 1;\n")
EPILOGUE = ("disp(sum(x)); disp(sum(y)); disp(sum(sum(M))); "
            "disp(sum(sum(N))); disp(s); disp(t);\n")

#: one statement each; ``{x}`` a vector name, ``{M}`` a matrix name,
#: ``{s}`` a scalar name.  The first rows are calls pass 6b may hoist.
TEMPLATES = (
    "{x} = zeros(1, 3);", "{x} = cumsum(v);", "{M} = A';", "{M} = A * B;",
    "{M} = eye(3);", "{s} = length(v);", "{s} = sum(v);", "{s} = A(2, 3);",
    "{x} = v + k;", "{x} = {x} + 1;", "{s} = {s} + k;", "{M} = {M}';",
    "{x}(k) = k;", "{x}(1:2) = k;", "{x}(k) = {s};", "{M}(k, 1) = 7;",
    "{M}(1, 1:2) = k;", "k = length(v);",
    "disp(sum({x}));", "disp(sum(sum({M})));", "disp({s});", "disp(k);",
    "if k == 2, break; end", "if k == 2, continue; end",
)
WRAPPERS = ("{}", "{}", "if k > 1, {} end", "for j = 1:2, {} end")


@st.composite
def loop_programs(draw):
    body = []
    for _ in range(draw(st.integers(1, 5))):
        stmt = draw(st.sampled_from(TEMPLATES)).format(
            x=draw(st.sampled_from("xy")), M=draw(st.sampled_from("MN")),
            s=draw(st.sampled_from("st")))
        body.append(draw(st.sampled_from(WRAPPERS)).format(stmt))
    return (PRELUDE + "for k = 1:3\n    " + "\n    ".join(body)
            + "\nend\n" + EPILOGUE)


def check_hoisting_changes_no_output(source):
    expected = "".join(run_source(source).output)
    for plan in (Plan(licm="aggressive"), NO_LICM):
        assert compile_source(source, plan=plan).run(nprocs=2).output \
            == expected, plan.licm


@given(loop_programs())
@settings(max_examples=40, deadline=None)
def test_generated_loop_bodies_print_what_the_interpreter_prints(source):
    check_hoisting_changes_no_output(source)
