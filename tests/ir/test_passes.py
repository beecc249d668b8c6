"""Middle-end tests: lowering (pass 4), guarding (pass 5), peephole (6)."""

import pytest

from repro.analysis.infer import infer_types
from repro.analysis.resolve import resolve_program
from repro.frontend.mfile import DictProvider
from repro.frontend.parser import parse_script
from repro.ir.guard import guard_program
from repro.ir.lower import lower_program
from repro.ir.nodes import (
    CallUser,
    ColonSub,
    Const,
    Copy,
    Display,
    Elementwise,
    EwNode,
    IndexAssign,
    IRBreak,
    IRContinue,
    IRFor,
    IRGlobal,
    IRIf,
    IRReturn,
    IRStmt,
    IRWhile,
    RTCall,
    SetElement,
    Temp,
    Var,
    defs_under,
    ew_op_count,
    read_under,
    walk_blocks,
)
from repro.ir.peephole import DEFAULT_SCHEDULE, REWRITES, peephole_program


def lower(src, guard=True, peephole=False, schedule=None, mfiles=None):
    prog = resolve_program(parse_script(src), DictProvider(mfiles or {}))
    ir = lower_program(prog, infer_types(prog))
    if guard:
        guard_program(ir)
    stats = peephole_program(ir, enabled=peephole, schedule=schedule)
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


def rewritten(src, name, **kwargs):
    """``src`` through the one rewrite ``name``: how often it fired and
    the run-time ops left."""
    ir, stats = lower(src, peephole=True, schedule=(name,), **kwargs)
    assert set(stats.fired()) <= {name}
    return stats.counts[name], rt_ops(ir), ir


class TestRegistry:
    def test_default_schedule_is_the_registry_minus_what_bends_a_figure(self):
        assert tuple(REWRITES) == ("transpose_matmul", "cse", "const_args",
                                   "reduce2", "batch_reduce")
        assert DEFAULT_SCHEDULE == tuple(REWRITES)[:4]

    def test_stats_count_by_name_and_keep_the_old_views(self):
        _, stats = lower("r = ones(8, 1);\ns = r' * r;\nt = sum(sum(r * r'));",
                         peephole=True)
        assert stats.counts == {"transpose_matmul": 1, "cse": 0,
                                "const_args": 0, "reduce2": 1,
                                "batch_reduce": 0}
        assert stats.fired() == {"transpose_matmul": 1, "reduce2": 1}
        assert (stats.transpose_fused, stats.cse_removed) == (1, 0)
        assert stats.summary() == "1 transpose_matmul, 1 reduce2"

    def test_unknown_and_repeated_names_are_refused(self):
        ir, _ = lower("x = 1;")
        with pytest.raises(ValueError, match="unknown fusion rewrite 'cze'"):
            peephole_program(ir, schedule=("cze",))
        with pytest.raises(ValueError, match="duplicate fusion rewrite"):
            peephole_program(ir, schedule=("cse", "cse"))

    def test_schedule_order_decides_between_rewrites_of_one_op(self):
        src = "x = ones(9, 1); y = ones(9, 1);\na = sum(x);\nb = sum(y);"
        for schedule in (("reduce2", "batch_reduce"),
                         ("batch_reduce", "reduce2")):
            _, stats = lower(src, peephole=True, schedule=schedule)
            assert stats.fired() == {"batch_reduce": 1}


SHIFT = "A = rand(6, 6);\n{setup}\nB = circshift(A, {shift});"


class TestConstArgs:
    def immediates(self, src, **kwargs):
        fired, _ops, ir = rewritten(src, "const_args", **kwargs)
        calls = [s for s in flat(ir.body) + [
            s for f in ir.functions.values() for s in flat(f.body)]
            if isinstance(s, RTCall) and s.op == "builtin:circshift"]
        shifts = [[[cell.value.real for cell in row] for row in c.args[1]]
                  if isinstance(c.args[1], list) else None for c in calls]
        return fired, shifts, ir

    def test_constant_variable_becomes_an_immediate_and_stays_defined(self):
        fired, shifts, ir = self.immediates(
            SHIFT.format(setup="sh = [-1, 0];", shift="sh"))
        assert (fired, shifts) == (1, [[[-1.0, 0.0]]])
        # sh is still a workspace variable: its literal is not dead
        assert rt_ops(ir).count("literal") == 1

    def test_inline_literal_loses_its_temporary(self):
        fired, shifts, ir = self.immediates(
            SHIFT.format(setup="", shift="[0, 2]"))
        assert (fired, shifts) == (1, [[[0.0, 2.0]]])
        assert "literal" not in rt_ops(ir)

    def test_column_literal_and_folded_elements_are_constants_too(self):
        fired, shifts, _ = self.immediates(
            SHIFT.format(setup="k = 3; sh = [k - 1; -k];", shift="sh"))
        assert (fired, shifts) == (1, [[[2.0], [-3.0]]])

    @pytest.mark.parametrize("setup, shift", [
        ("k = numel(A) - 35; sh = [k, 0];", "sh"),      # unknown element
        ("sh = [1, 0]; sh(1) = 2;", "sh"),              # indexed store
        ("sh = [1, 0];\nif A(1) > 2\n sh = [2, 0];\nend", "sh"),
        ("sh = [1, 0];\nfor i = 1:2\n sh = [sh(2), sh(1)];\nend", "sh"),
        ("sh = [1, 0];\nfor i = 1:2\n A = A + 1;\n sh = [i, 0];\nend", "sh"),
        ("k = 1;", "k"),                                # a scalar shift
        ("", "[numel(A) - 35, 0]"),                     # inline, not constant
        ("global sh\nsh = [1, 0];", "sh"),
    ])
    def test_whatever_is_not_one_literal_everywhere_stays_an_operand(
            self, setup, shift):
        fired, shifts, _ = self.immediates(
            SHIFT.format(setup=setup, shift=shift))
        assert (fired, shifts) == (0, [None])

    @pytest.mark.parametrize("shift", ["[1, 2, 3]", "[0.5, 0]", "[1, 2i]",
                                       "[1, inf]"])
    def test_a_shift_the_run_time_refuses_is_left_for_it_to_refuse(
            self, shift):
        for setup, arg in (("", shift), (f"sh = {shift};", "sh")):
            fired, shifts, _ = self.immediates(
                SHIFT.format(setup=setup, shift=arg))
            assert (fired, shifts) == (0, [None])

    def test_same_literal_on_every_path_is_still_one_constant(self):
        fired, shifts, _ = self.immediates(SHIFT.format(
            setup="sh = [1, 0];\nif A(1) > 2\n sh = [1, 0];\nend",
            shift="sh"))
        assert (fired, shifts) == (1, [[[1.0, 0.0]]])

    def test_function_parameter_is_not_a_constant(self):
        fired, shifts, _ = self.immediates(
            "A = rand(6, 6);\nB = roll(A, [1, 0]);\nC = roll(A, [1, 0]);",
            mfiles={"roll": "function B = roll(A, sh)\n"
                            "B = circshift(A, sh);"})
        assert (fired, shifts) == (0, [None])

    def test_constant_inside_a_function_is(self):
        fired, shifts, _ = self.immediates(
            "A = rand(6, 6);\nB = up(A);",
            mfiles={"up": "function B = up(A)\nsh = [-1, 0];\n"
                          "B = circshift(A, sh);"})
        assert (fired, shifts) == (1, [[[-1.0, 0.0]]])


class TestReduce2:
    @pytest.mark.parametrize("op", ["sum", "prod", "max", "min", "any",
                                    "all"])
    def test_nested_reduction_is_one_call(self, op):
        fired, ops, _ = rewritten(f"A = rand(5, 5);\nd = {op}({op}(A));",
                                  "reduce2")
        assert fired == 1
        assert f"reduce2:{op}" in ops and f"builtin:{op}" not in ops

    def test_the_operand_may_be_a_fused_loop(self):
        fired, ops, _ = rewritten("f = rand(5, 5);\nm = max(max(abs(f)));",
                                  "reduce2")
        assert fired == 1 and ops.count("reduce2:max") == 1

    @pytest.mark.parametrize("stmt", [
        "d = sum(sum(A, 2));", "d = sum(sum(A), 2);",   # a dim argument
        "d = mean(mean(A));",                           # not in the set
        "d = max(max(A, B));", "d = max(max(A), 3);",   # elementwise max
        "d = sum(max(A));", "d = max(sum(A));",         # mixed ops
        "t = sum(A);\nd = sum(t);\ne = t + 1;",        # t read again
        "t = sum(A);\nA = A + 1;\nd = sum(t);",        # not adjacent
        "[m, i] = max(max(A));",                        # two outputs
        "d = sum(A);",
    ])
    def test_anything_near_the_pattern_is_left_alone(self, stmt):
        fired, ops, _ = rewritten(
            f"A = rand(5, 5); B = rand(5, 5);\n{stmt}", "reduce2")
        assert fired == 0 and not any(o.startswith("reduce2") for o in ops)

    def test_ocean_lines_33_and_34_stay_a_trapz2_and_one_reduce2(self):
        ir, stats = lower(
            "f = rand(8, 8);\nimpulse = trapz2(f, 0.5, 0.25);\n"
            "fmax = max(max(abs(f)));", peephole=True,
            schedule=tuple(REWRITES))
        assert stats.fired() == {"reduce2": 1}
        assert rt_ops(ir)[-2:] == ["builtin:trapz2", "reduce2:max"]


class TestBatchReduce:
    def test_adjacent_independent_means_share_a_call(self):
        fired, ops, ir = rewritten(
            "x = rand(9, 1); y = rand(9, 1); z = rand(9, 1);\n"
            "cx = mean(x);\ncy = mean(y);\ncz = mean(z);", "batch_reduce")
        assert fired == 1 and ops.count("reduce_batch:mean") == 1
        call = next(s for s in flat(ir.body)
                    if isinstance(s, RTCall) and s.op == "reduce_batch:mean")
        assert [repr(a) for a in call.args] == ["x", "y", "z"]
        assert [repr(d) for d in (call.dest, *call.extra_dests)] \
            == ["cx", "cy", "cz"]
        assert call.nargout == 3 and call.line == 2

    @pytest.mark.parametrize("op", ["sum", "mean", "max", "min", "prod"])
    def test_every_op_of_the_set_batches(self, op):
        fired, ops, _ = rewritten(
            f"x = rand(9, 1); y = rand(1, 9);\na = {op}(x);\nb = {op}(y);",
            "batch_reduce")
        assert fired == 1 and f"builtin:{op}" not in ops

    @pytest.mark.parametrize("body", [
        "a = sum(x);\nb = sum(a * y);",         # b's operand needs a
        "a = sum(x);\nb = mean(y);",            # two ops
        "a = sum(x);\nc = x + 1;\nb = sum(y);",   # not adjacent
        "a = sum(x);\nb = sum(y, 1);",          # a dim argument
        "a = max(x);\n[b, i] = max(y);",        # two outputs
        "a = max(x);\nb = max(x, y);",          # elementwise max
        "a = any(x);\nb = any(y);",             # not in the set
        "a = sum(M);\nb = sum(N);",             # column reductions
        "a = sum(x);",
    ])
    def test_a_broken_run_is_left_alone(self, body):
        fired, ops, _ = rewritten(
            "x = rand(9, 1); y = rand(9, 1); M = rand(4, 4); N = rand(4, 4);"
            f"\n{body}", "batch_reduce")
        assert fired == 0 and not any(o.startswith("reduce_batch")
                                      for o in ops)

    def test_a_dependent_operand_ends_the_run_not_the_rewrite(self):
        fired, ops, _ = rewritten(
            "x = rand(9, 1); y = rand(9, 1);\n"
            "a = sum(x);\nb = sum(y);\nc = sum(a * y);", "batch_reduce")
        assert fired == 1
        assert ops[-2:] == ["reduce_batch:sum", "builtin:sum"]

    def test_rebinding_an_operand_of_the_run_is_not_a_dependence(self):
        """``x = sum(y)`` after ``a = sum(x)`` reads nothing the run
        wrote: every operand is evaluated before any result is bound."""
        fired, _, ir = rewritten(
            "x = rand(9, 1); y = rand(9, 1);\na = sum(x);\nx = sum(y);",
            "batch_reduce")
        assert fired == 1


# ---------------------------------------------------------------------- #
# one answer per statement kind: defs / uses / blocks
# ---------------------------------------------------------------------- #

a, b, c, k = Var("a"), Var("b"), Var("c"), Var("k")
t1, t2, t3 = Temp(1), Temp(2), Temp(3)
one, two = Const(1.0), Const(2.0)
_then, _else, _cond, _body, _iter = ([Copy(a, b)], [Copy(b, a)],
                                     [Copy(t1, a)], [Copy(c, k)],
                                     [Copy(t2, b)])

#: (statement, what it assigns, what it reads, the blocks under it)
ANSWERS = [
    (RTCall(dest=t1, op="matmul", args=[a, b]), [t1], [a, b], []),
    (RTCall(dest=a, op="literal", args=[[one, b], [t1, two]]),
     [a], [one, b, t1, two], []),
    (RTCall(dest=a, op="builtin:circshift", args=[b, [[one, two]]]),
     [a], [b, one, two], []),
    (RTCall(dest=a, op="reduce_batch:sum", args=[b, c], nargout=2,
            extra_dests=[t1]), [a, t1], [b, c], []),
    (RTCall(dest=None, op="builtin:disp", args=[a]), [], [a], []),
    (Elementwise(dest=a, expr=EwNode("+", (b, EwNode("u-", (t1,)), one))),
     [a], [b, t1, one], []),
    (Copy(dest=a, src=t1), [a], [t1], []),
    (SetElement(var=a, subs=[k, one], rhs=t1), [a], [k, one, t1, a], []),
    (IndexAssign(var=a, subs=[ColonSub(), t2], rhs=b),
     [a], [ColonSub(), t2, b, a], []),
    (CallUser(dests=[a, t1], func="f", args=[b, two]), [a, t1], [b, two], []),
    (Display(name="a", value=a), [], [a], []),
    (IRIf(branches=[(_cond, t1, _then), ([], b, [])], orelse=_else),
     [], [t1, b], [_cond, _then, [], [], _else]),
    (IRFor(var=k, range_triple=(one, one, t3), body=_body),
     [k], [one, one, t3], [[], _body]),
    (IRFor(var=k, iter_stmts=_iter, iter_operand=t2, body=_body),
     [k], [t2], [_iter, _body]),
    (IRWhile(cond_stmts=_cond, cond=t1, body=_body),
     [], [t1], [_cond, _body]),
    (IRBreak(), [], [], []),
    (IRContinue(), [], [], []),
    (IRReturn(), [], [], []),
    (IRGlobal(names=["a"]), [], [], []),
]


class TestAccessors:
    def test_every_kind_is_pinned(self):
        """A new statement kind has to say what it assigns, reads and
        nests (and be added to the table above) before this passes."""
        assert {type(stmt) for stmt, *_ in ANSWERS} \
            == set(IRStmt.__subclasses__())
        for kind in IRStmt.__subclasses__():
            assert not kind.__subclasses__()    # the enumeration is flat

    @pytest.mark.parametrize("stmt,defs,uses,blocks", ANSWERS,
                             ids=lambda v: type(v).__name__
                             if isinstance(v, IRStmt) else "")
    def test_answers(self, stmt, defs, uses, blocks):
        assert list(stmt.defs()) == defs
        assert list(stmt.uses()) == uses
        nested = list(stmt.blocks())
        assert len(nested) == len(blocks)
        # the very lists: a pass edits the program through them
        for got, want in zip(nested, blocks):
            assert got == want and (not want or got is want)

    def test_derived_helpers(self):
        loop = IRFor(var=k, range_triple=(one, one, t3), body=[
            Copy(a, b), IRIf(branches=[([Copy(t1, c)], t1, [Copy(a, t1)])])])
        assert [len(block) for block in walk_blocks([loop])] \
            == [1, 2, 0, 1, 1, 0]   # a block, then the blocks under it
        assert sorted(map(repr, defs_under([loop]))) \
            == ["ML_tmp1", "a", "a", "k"]
        assert read_under([loop], c) and read_under([loop], t3)
        assert not read_under([loop], a) and not read_under(loop.body, t3)

    def test_walk_yields_the_blocks_it_always_did(self):
        """``ir.walk()`` (``benchmarks/e2e/layers.py`` counts statements
        through it) against the per-kind walk it replaced."""
        from repro.compiler import compile_source
        from tests.corpus import shipped_programs

        def reference(body):
            stack = [body]
            while stack:
                block = stack.pop()
                yield block
                for stmt in block:
                    if isinstance(stmt, IRIf):
                        for cond_stmts, _c, branch in stmt.branches:
                            stack += [cond_stmts, branch]
                        stack.append(stmt.orelse)
                    elif isinstance(stmt, IRFor):
                        stack += [stmt.iter_stmts, stmt.body]
                    elif isinstance(stmt, IRWhile):
                        stack += [stmt.cond_stmts, stmt.body]

        programs = shipped_programs()
        assert len(programs) == 20
        for label, (source, mfiles) in programs.items():
            ir = compile_source(source, DictProvider(mfiles)).ir
            got = list(ir.walk())
            want = [block for unit in ir.units()
                    for block in reference(unit.body)]
            assert len(got) == len(want), label
            assert all(g is w for g, w in zip(got, want)), label


def test_pretty_ir_is_textual():
    ir, _ = lower("a = ones(2, 2);\nb = a * a;")
    from repro.ir.pretty import pretty_ir

    text = pretty_ir(ir)
    assert "ML_matmul" in text or "matmul" in text
