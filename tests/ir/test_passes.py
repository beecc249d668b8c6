"""Middle-end tests: lowering (pass 4), guarding (pass 5), peephole (6)."""

import pytest

from repro.analysis.infer import infer_types
from repro.analysis.resolve import resolve_program
from repro.frontend.parser import parse_script
from repro.ir.guard import guard_program
from repro.ir.lower import lower_program
from repro.ir.nodes import (
    Const,
    Copy,
    Elementwise,
    IndexAssign,
    IRFor,
    IRIf,
    IRWhile,
    RTCall,
    SetElement,
    ew_op_count,
)
from repro.ir.peephole import peephole_program


def lower(src, guard=True, peephole=False):
    prog = resolve_program(parse_script(src))
    ir = lower_program(prog, infer_types(prog))
    if guard:
        guard_program(ir)
    stats = peephole_program(ir, enabled=peephole)
    return ir, stats


def flat(block):
    out = []
    for stmt in block:
        out.append(stmt)
        if isinstance(stmt, IRIf):
            for cond_stmts, _c, branch in stmt.branches:
                out.extend(flat(cond_stmts))
                out.extend(flat(branch))
            out.extend(flat(stmt.orelse))
        elif isinstance(stmt, IRFor):
            out.extend(flat(stmt.iter_stmts))
            out.extend(flat(stmt.body))
        elif isinstance(stmt, IRWhile):
            out.extend(flat(stmt.cond_stmts))
            out.extend(flat(stmt.body))
    return out


def rt_ops(ir):
    return [s.op for s in flat(ir.body) if isinstance(s, RTCall)]


class TestLowering:
    def test_matmul_hoisted(self):
        ir, _ = lower("a = ones(3, 3);\nb = ones(3, 3);\nc = a * b + a;")
        ops = rt_ops(ir)
        assert "matmul" in ops
        ews = [s for s in flat(ir.body) if isinstance(s, Elementwise)]
        assert any(ew_op_count(s.expr) == 1 for s in ews)  # the fused add

    def test_elementwise_chain_fused_into_one(self):
        ir, _ = lower(
            "a = ones(4, 4);\nb = ones(4, 4);\n"
            "c = sqrt(a) + b .* a - 2 .* abs(b);")
        ews = [s for s in flat(ir.body) if isinstance(s, Elementwise)
               and getattr(s.dest, "name", "") == "c"]
        assert len(ews) == 1
        # sqrt, +, .*, -, .* and abs all in one loop; the 2 .* b scalar
        # multiply still counts (one operand is a matrix)
        assert ew_op_count(ews[0].expr) >= 5

    def test_scalar_times_matrix_fused(self):
        ir, _ = lower("a = ones(3, 3);\nc = 2 * a;")
        assert "matmul" not in rt_ops(ir)

    def test_matrix_divide_hoisted(self):
        ir, _ = lower("a = ones(3, 3);\nb = ones(3, 3);\nc = a / b;")
        assert "solve_right" in rt_ops(ir)

    def test_scalar_divide_fused(self):
        ir, _ = lower("a = ones(3, 3);\nc = a / 2;")
        assert "solve_right" not in rt_ops(ir)

    def test_scalar_element_read_is_broadcast(self):
        ir, _ = lower("d = ones(4, 4);\ni = 2;\nj = 3;\nx = d(i, j);")
        assert "broadcast_element" in rt_ops(ir)

    def test_slice_read_is_index_read(self):
        ir, _ = lower("d = ones(4, 4);\nx = d(:, 2);")
        assert "index_read" in rt_ops(ir)

    def test_reduction_is_builtin_call(self):
        ir, _ = lower("v = ones(5, 1);\ns = sum(v);")
        assert "builtin:sum" in rt_ops(ir)

    def test_elementwise_builtin_fused_not_called(self):
        ir, _ = lower("v = ones(5, 1);\nw = sqrt(v) + 1;")
        assert "builtin:sqrt" not in rt_ops(ir)

    def test_signed_literal_lowers_to_a_constant(self):
        """heat's ``circshift(u, -1)``: one run-time call with a constant
        argument, not a scalar ``u-`` kernel per iteration before it."""
        ir, _ = lower("u = ones(1, 8);\nfor s = 1:3\n"
                      " r = circshift(u, -1);\nend\n"
                      "a = -2.5; b = +3; c = -(-4); d = -2i; e = -u; f = ~0;")
        loop = [s for s in flat(ir.body) if isinstance(s, IRFor)][0]
        (call,) = loop.body
        assert call.op == "builtin:circshift"
        assert call.args[1] == Const(-1.0)
        copies = {s.dest.name: s.src for s in flat(ir.body)
                  if isinstance(s, Copy)}
        assert copies == {"a": Const(-2.5), "b": Const(3.0),
                          "c": Const(4.0), "d": Const(-2j)}
        ews = {s.dest.name: s.expr.op for s in flat(ir.body)
               if isinstance(s, Elementwise)}
        assert ews == {"e": "u-", "f": "u~"}

    def test_range_for_loop_not_materialized(self):
        ir, _ = lower("s = 0;\nfor i = 1:100\n s = s + i;\nend")
        fors = [s for s in flat(ir.body) if isinstance(s, IRFor)]
        assert fors[0].range_triple is not None
        assert "range" not in rt_ops(ir)

    def test_range_value_materialized(self):
        ir, _ = lower("v = 1:10;")
        assert "range" in rt_ops(ir)

    def test_paper_example_statement_order(self):
        # a = b * c + d(i,j): multiply, broadcast, then the fused add
        ir, _ = lower("""
b = ones(4, 4); c = ones(4, 4); d = ones(4, 4);
i = 2; j = 3;
a = b * c + d(i,j);
""")
        stmts = [s for s in flat(ir.body)
                 if isinstance(s, (RTCall, Elementwise))]
        kinds = [s.op if isinstance(s, RTCall) else "ew" for s in stmts]
        pos_mm = kinds.index("matmul")
        pos_bc = kinds.index("broadcast_element")
        pos_ew = len(kinds) - 1 - kinds[::-1].index("ew")
        assert pos_mm < pos_ew and pos_bc < pos_ew

    def test_while_condition_stmts_captured(self):
        ir, _ = lower("""
x = ones(4, 1);
while sum(x) < 100
    x = x * 2;
end
""")
        whiles = [s for s in flat(ir.body) if isinstance(s, IRWhile)]
        assert whiles and any(isinstance(s, RTCall)
                              for s in whiles[0].cond_stmts)

    def test_switch_desugars_to_if(self):
        ir, _ = lower("""
m = 2;
switch m
case 1
    x = 1;
otherwise
    x = 0;
end
""")
        assert any(isinstance(s, IRIf) for s in flat(ir.body))
        assert "switch_match" in rt_ops(ir)


class TestGuarding:
    def test_scalar_store_guarded(self):
        ir, _ = lower("a = zeros(4, 4);\ni = 2;\na(i, 3) = 5;")
        stores = [s for s in flat(ir.body)
                  if isinstance(s, (SetElement, IndexAssign))]
        assert len(stores) == 1
        assert isinstance(stores[0], SetElement)

    def test_slice_store_not_guarded(self):
        ir, _ = lower("a = zeros(4, 4);\na(:, 2) = ones(4, 1);")
        stores = [s for s in flat(ir.body)
                  if isinstance(s, (SetElement, IndexAssign))]
        assert isinstance(stores[0], IndexAssign)

    def test_matrix_rhs_not_guarded(self):
        ir, _ = lower("a = zeros(4, 4);\nb = ones(1, 4);\na(2, :) = b;")
        stores = [s for s in flat(ir.body)
                  if isinstance(s, (SetElement, IndexAssign))]
        assert isinstance(stores[0], IndexAssign)

    def test_guard_inside_loop(self):
        ir, _ = lower("""
t = zeros(1, 10);
for s = 1:10
    t(s) = s * 2;
end
""")
        fors = [s for s in flat(ir.body) if isinstance(s, IRFor)]
        inner = [s for s in flat(fors[0].body) if isinstance(s, SetElement)]
        assert inner


class TestPeephole:
    def test_transpose_matmul_fused(self):
        ir, stats = lower("r = ones(8, 1);\ns = r' * r;", peephole=True)
        assert stats.transpose_fused == 1
        assert "matmul_t" in rt_ops(ir)
        assert "transpose" not in rt_ops(ir)

    def test_fusion_disabled(self):
        ir, stats = lower("r = ones(8, 1);\ns = r' * r;", peephole=False)
        assert stats.transpose_fused == 0
        assert "transpose" in rt_ops(ir)

    def test_no_fuse_when_transpose_reused(self):
        ir, stats = lower("""
r = ones(8, 1);
t = r';
s = t * r;
u = t + t;
""", peephole=True)
        assert stats.transpose_fused == 0

    def test_broadcast_cse(self):
        ir, stats = lower("""
d = ones(4, 4);
i = 2; j = 3;
x = d(i, j) + d(i, j);
""", peephole=True)
        assert stats.cse_removed == 1

    def test_cse_killed_by_redefinition(self):
        ir, stats = lower("""
d = ones(4, 4);
i = 2; j = 3;
x = d(i, j);
d(1, 1) = 99;
y = d(i, j);
""", peephole=True)
        assert stats.cse_removed == 0

    def test_cg_iteration_fuses_both_dots(self):
        ir, stats = lower("""
A = ones(8, 8);
p = ones(8, 1);
r = ones(8, 1);
rsold = r' * r;
Ap = A * p;
alpha = rsold / (p' * Ap);
""", peephole=True)
        assert stats.transpose_fused == 2


def test_pretty_ir_is_textual():
    ir, _ = lower("a = ones(2, 2);\nb = a * a;")
    from repro.ir.pretty import pretty_ir

    text = pretty_ir(ir)
    assert "ML_matmul" in text or "matmul" in text
