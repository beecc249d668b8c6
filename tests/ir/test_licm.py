"""Loop-invariant code motion (pass 6b) tests."""

import numpy as np
import pytest

from repro.compiler import compile_source
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
