"""Pass 7 (C backend): emit loosely synchronous SPMD C text.

This backend reproduces the *form* of the paper's generated code — MATRIX
descriptors, ``ML_*`` run-time calls, fused elementwise ``for`` loops over
``ML_local_els``, and ``ML_owner`` guards:

    ML_matrix_multiply(b, c, ML_tmp1);
    ML_broadcast(&ML_tmp2, d, i-1, j-1);
    for (ML_i = ML_local_els(a)-1; ML_i >= 0; ML_i--) {
        a->realbase[ML_i] = ML_tmp1->realbase[ML_i] + ML_tmp2;
    }

We have no 1997 MPI installation to build a whole program against (see
DESIGN.md), so the ``ML_*`` run-time calls are verified structurally by
golden tests while the Python backend provides execution.  The loop
bodies and scalar expressions are not only text: they are the C column
of :data:`repro.ewops.OPS`, the templates the native kernel tier
compiles, probes and differential-tests bit for bit.
"""

from __future__ import annotations

from ..analysis.lattice import BaseType, Rank, VarType
from ..errors import CodegenError
from ..ewops import CONSTANTS, TAP, c_literal, spec_to_c
from ..ir.nodes import (
    CallUser,
    ColonSub,
    Const,
    Copy,
    Display,
    Elementwise,
    EwGroup,
    IndexAssign,
    IRBreak,
    IRContinue,
    IRFor,
    IRFunction,
    IRGlobal,
    IRIf,
    IRProgram,
    IRReturn,
    IRStmt,
    IRWhile,
    Operand,
    RTCall,
    SetElement,
    StrConst,
    Temp,
    Var,
    defs_under,
    ew_spec,
    group_spec,
    walk_blocks,
)

_HEADER = """\
/* Generated by the Otter reproduction compiler. Do not edit. */
#include <float.h>
#include <math.h>
#include <mpi.h>
#include "otter_runtime.h"
"""


def _is_scalar_type(vtype: VarType | None) -> bool:
    return vtype is not None and vtype.rank is Rank.SCALAR


def _ew_members(group: EwGroup) -> int:
    """How many members of a group are loops of their own outside it."""
    return sum(stmt.__class__ is Elementwise for stmt in group.members)


class CEmitter:
    def __init__(self, ir: IRProgram):
        self.ir = ir
        self.lines: list[str] = []
        self._indent = 0
        self._loop_counter = 0
        self._temp_types: dict[Operand, VarType] = {}
        self._var_types: dict[str, VarType] = {}

    # ------------------------------------------------------------------ #

    def emit(self) -> str:
        self.lines = [_HEADER]
        for func in self.ir.functions.values():
            self._emit_function(func)
        self._emit_main()
        return "\n".join(self.lines) + "\n"

    def _line(self, text: str = "") -> None:
        self.lines.append(("    " * self._indent) + text if text else "")

    # ------------------------------------------------------------------ #
    # typing helpers
    # ------------------------------------------------------------------ #

    def _collect_temp_types(self, body: list[IRStmt]) -> None:
        for block in walk_blocks(body):
            for stmt in block:
                if stmt.vtype is not None:
                    for dest in stmt.defs():
                        self._temp_types.setdefault(dest, stmt.vtype)

    def _type_of(self, op: Operand) -> VarType | None:
        if isinstance(op, Var):
            return self._var_types.get(op.name)
        if isinstance(op, Temp):
            return self._temp_types.get(op)
        if isinstance(op, Const):
            return VarType(BaseType.REAL, Rank.SCALAR)
        return None

    def _is_scalar(self, op: Operand) -> bool:
        if isinstance(op, (Const, StrConst)):
            return True
        return _is_scalar_type(self._type_of(op))

    def _c_decl(self, name: str, vtype: VarType | None) -> str:
        if vtype is None or vtype.rank is not Rank.SCALAR:
            return f"MATRIX *{name} = NULL;"
        if vtype.base is BaseType.INTEGER:
            return f"int {name} = 0;"
        if vtype.base is BaseType.COMPLEX:
            return f"ML_COMPLEX {name} = {{0.0, 0.0}};"
        return f"double {name} = 0.0;"

    # ------------------------------------------------------------------ #
    # operands and scalar expressions
    # ------------------------------------------------------------------ #

    def _c_const(self, v: complex, integral: bool = False) -> str:
        """A numeric literal: a ``double`` inside an expression; where
        the run-time call wants an ``int`` argument (``integral``), a
        whole number drops its ``.0``."""
        if isinstance(v, complex) and v.imag != 0:
            return f"ML_complex({c_literal(v.real)}, {c_literal(v.imag)})"
        text = c_literal(v)
        return text.removesuffix(".0") if integral else text

    def _c_op(self, op: Operand) -> str:
        """An operand as a statement or call argument."""
        if isinstance(op, (Var, Temp)):
            return op.name
        if isinstance(op, Const):
            return self._c_const(op.value, integral=True)
        if isinstance(op, StrConst):
            return f"\"{op.value}\""
        if isinstance(op, ColonSub):
            return "ML_COLON"
        raise CodegenError(f"cannot emit C operand {op!r}")

    def _expr(self, spec, operands: list[Operand], loop_var: str = "") -> str:
        """C expression of a fused tree, from the op table's templates:
        matrix operands read ``x->realbase[<loop_var>]``, scalars stay
        scalar (an ``int`` one cast, so that ``1 / n`` divides doubles).
        The templates are real-only; once a complex leaf has been seen,
        ``real``/``imag``/``conj``/``angle`` are run-time calls."""
        seen_complex = False

        def leaf(node) -> str:
            nonlocal seen_complex
            if not isinstance(node, str):
                seen_complex = seen_complex or (
                    isinstance(node, complex) and node.imag != 0)
                return self._c_const(node)
            op = operands[int(node[1:])]
            vtype = self._type_of(op)
            if vtype is not None and vtype.base is BaseType.COMPLEX:
                seen_complex = True
            if not self._is_scalar(op):
                return f"{op.name}->realbase[{loop_var}]"
            if vtype.base is BaseType.INTEGER:
                return f"(double){op.name}"
            return op.name

        def bind(op, row, args) -> str:
            if seen_complex and op in ("fn:real", "fn:imag", "fn:conj",
                                       "fn:angle"):
                return f"ML_{op[3:]}({args[0]})"
            return row.c.format(*args)

        return spec_to_c(spec, leaf, bind)

    # ------------------------------------------------------------------ #
    # program units
    # ------------------------------------------------------------------ #

    def _emit_unit_body(self, body: list[IRStmt],
                        skip_decls: set[str] = frozenset()) -> None:
        names = {dest.name: self._type_of(dest) for dest in defs_under(body)}
        for name in sorted(set(names) - set(skip_decls)):
            self._line(self._c_decl(name, names[name]))
        # one counter per fused loop over local elements (a group has
        # its members' counters: see _emit_group)
        loops = sum(stmt.__class__ is Elementwise
                    and not _is_scalar_type(stmt.vtype)
                    or stmt.__class__ is EwGroup and not _ew_members(stmt)
                    for block in walk_blocks(body) for stmt in block)
        for k in range(loops):
            self._line(f"int ML_i{k};")
        self._loop_counter = 0
        self._line("")
        for stmt in body:
            self._emit_stmt(stmt)

    def _emit_function(self, func: IRFunction) -> None:
        self._var_types = dict(func.var_types)
        self._temp_types = {}
        self._collect_temp_types(func.body)
        params = []
        for p in func.params:
            vtype = func.var_types.get(p)
            if _is_scalar_type(vtype):
                ctype = "int" if vtype.base is BaseType.INTEGER else "double"
                params.append(f"{ctype} {p}")
            else:
                params.append(f"MATRIX *{p}")
        outs = []
        for r in func.returns:
            vtype = func.var_types.get(r)
            if _is_scalar_type(vtype):
                ctype = "int" if vtype.base is BaseType.INTEGER else "double"
                outs.append(f"{ctype} *ML_out_{r}")
            else:
                outs.append(f"MATRIX **ML_out_{r}")
        sig = ", ".join(params + outs) or "void"
        self._line(f"static void otter_{func.name}({sig})")
        self._line("{")
        self._indent += 1
        self._emit_unit_body(func.body,
                             skip_decls=set(func.params))
        for r in func.returns:
            self._line(f"*ML_out_{r} = {r};")
        self._indent -= 1
        self._line("}")
        self._line("")

    def _emit_main(self) -> None:
        self._var_types = dict(self.ir.var_types)
        self._temp_types = {}
        self._collect_temp_types(self.ir.body)
        self._line("int main(int argc, char *argv[])")
        self._line("{")
        self._indent += 1
        self._line("ML_init_runtime(&argc, &argv);")
        self._emit_unit_body(self.ir.body)
        self._line("")
        self._line("ML_finalize_runtime();")
        self._line("return 0;")
        self._indent -= 1
        self._line("}")

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _emit_stmt(self, stmt: IRStmt) -> None:
        if isinstance(stmt, Elementwise):
            self._emit_elementwise(stmt)
        elif isinstance(stmt, EwGroup):
            self._emit_group(stmt)
        elif isinstance(stmt, Copy):
            if self._is_scalar(stmt.dest) or self._is_scalar(stmt.src):
                self._line(f"{self._c_op(stmt.dest)} = {self._c_op(stmt.src)};")
            else:
                self._line(f"ML_copy({self._c_op(stmt.src)}, "
                           f"&{self._c_op(stmt.dest)});")
        elif isinstance(stmt, RTCall):
            self._emit_rtcall(stmt)
        elif isinstance(stmt, SetElement):
            self._emit_set_element(stmt)
        elif isinstance(stmt, IndexAssign):
            subs = ", ".join(self._c_sub(s) for s in stmt.subs)
            self._line(f"ML_index_assign(&{stmt.var.name}, "
                       f"{self._c_op(stmt.rhs)}, {len(stmt.subs)}, {subs});")
        elif isinstance(stmt, CallUser):
            args = [self._c_op(a) for a in stmt.args]
            outs = [f"&{self._c_op(d)}" for d in stmt.dests]
            self._line(f"otter_{stmt.func}({', '.join(args + outs)});")
        elif isinstance(stmt, Display):
            if self._is_scalar(stmt.value):
                self._line(f"ML_print_scalar(\"{stmt.name}\", "
                           f"{self._c_op(stmt.value)});")
            else:
                self._line(f"ML_print_matrix(\"{stmt.name}\", "
                           f"{self._c_op(stmt.value)});")
        elif isinstance(stmt, IRIf):
            self._emit_if(stmt)
        elif isinstance(stmt, IRFor):
            self._emit_for(stmt)
        elif isinstance(stmt, IRWhile):
            self._emit_while(stmt)
        elif isinstance(stmt, IRBreak):
            self._line("break;")
        elif isinstance(stmt, IRContinue):
            self._line("continue;")
        elif isinstance(stmt, IRReturn):
            self._line("return 0;" if self._var_types is self.ir.var_types
                       else "return;")
        elif isinstance(stmt, IRGlobal):
            self._line(f"/* global {', '.join(stmt.names)} */")
        else:
            raise CodegenError(f"cannot emit {type(stmt).__name__}")

    def _cond_expr(self, cond: Operand) -> str:
        if self._is_scalar(cond):
            return self._c_op(cond)
        return f"ML_truthy({self._c_op(cond)})"

    def _emit_elementwise(self, stmt: Elementwise) -> None:
        dest = self._c_op(stmt.dest)
        spec, operands = ew_spec(stmt.expr)
        # pick a template operand to size the result
        template = next((op for op in operands
                         if not self._is_scalar(op)), None)
        if template is None:
            self._line(f"{dest} = {self._expr(spec, operands)};")
            return
        loop = f"ML_i{self._loop_counter}"
        self._loop_counter += 1
        self._line(f"ML_init_like(&{dest}, {self._c_op(template)});")
        self._line(f"for ({loop} = ML_local_els({dest})-1; {loop} >= 0; "
                   f"{loop}--) {{")
        self._indent += 1
        self._line(f"{dest}->realbase[{loop}] = "
                   f"{self._expr(spec, operands, loop)};")
        self._indent -= 1
        self._line("}")

    def _emit_group(self, group: EwGroup) -> None:
        """The one loop a group runs as: every member's result shaped
        before it, then each member's statement in the loop body, in
        order — the native kernel's loop, which keeps a value a later
        member reads in a register instead of reading it back."""
        members, _operands = group_spec(group)
        # a halo tap is the library's shift here: the loop reads its value
        taps = [stmt for stmt, (spec, *_) in zip(group.members, members)
                if spec[0] == TAP]
        for stmt in taps:
            self._emit_rtcall(stmt)
        members = [(stmt, member) for stmt, member in zip(group.members,
                                                          members)
                   if member[0][0] != TAP]
        first = self._c_op(members[0][0].dest)
        for stmt, (_spec, reads, _slots, _) in members:
            template = next((op for op in reads if not self._is_scalar(op)),
                            group.members[0].dest)
            self._line(f"ML_init_like(&{self._c_op(stmt.dest)}, "
                       f"{self._c_op(template)});")
        # the counter of its first loop: the others' stay unused, so the
        # loops after a group keep their numbers
        loop = f"ML_i{self._loop_counter}"
        self._loop_counter += max(_ew_members(group), 1)
        self._line(f"for ({loop} = ML_local_els({first})-1; {loop} >= 0; "
                   f"{loop}--) {{")
        self._indent += 1
        for stmt, (spec, reads, _slots, _) in members:
            self._line(f"{self._c_op(stmt.dest)}->realbase[{loop}] = "
                       f"{self._expr(spec, reads, loop)};")
        self._indent -= 1
        self._line("}")

    def _c_sub(self, sub: Operand) -> str:
        if isinstance(sub, ColonSub):
            return "ML_COLON"
        if isinstance(sub, Const):
            v = float(sub.value.real)
            return str(int(v) - 1) if v.is_integer() \
                else f"({c_literal(v)} - 1)"
        return f"{self._c_op(sub)} - 1"

    def _emit_set_element(self, stmt: SetElement) -> None:
        subs = [self._c_sub(s) for s in stmt.subs]
        var = stmt.var.name
        self._line(f"if (ML_owner({var}, {', '.join(subs)})) {{")
        self._indent += 1
        addr = "ML_realaddr2" if len(subs) == 2 else "ML_realaddr1"
        self._line(f"*{addr}({var}, {', '.join(subs)}) = "
                   f"{self._c_op(stmt.rhs)};")
        self._indent -= 1
        self._line("}")

    def _emit_rtcall(self, stmt: RTCall) -> None:
        op = stmt.op
        dest = self._c_op(stmt.dest) if stmt.dest is not None else None
        args = [a for a in stmt.args]

        if op == "matmul":
            self._line(f"ML_matrix_multiply({self._c_op(args[0])}, "
                       f"{self._c_op(args[1])}, &{dest});")
        elif op in ("matmul_t", "matmul_tnc"):
            if _is_scalar_type(stmt.vtype):
                self._line(f"{dest} = ML_dot({self._c_op(args[0])}, "
                           f"{self._c_op(args[1])});")
            else:
                self._line(f"ML_matrix_multiply_at({self._c_op(args[0])}, "
                           f"{self._c_op(args[1])}, &{dest});")
        elif op in ("transpose", "transpose_nc"):
            self._line(f"ML_transpose({self._c_op(args[0])}, &{dest});")
        elif op == "solve_left":
            self._line(f"ML_solve({self._c_op(args[0])}, "
                       f"{self._c_op(args[1])}, &{dest});")
        elif op == "solve_right":
            self._line(f"ML_solve_right({self._c_op(args[0])}, "
                       f"{self._c_op(args[1])}, &{dest});")
        elif op == "matrix_power":
            self._line(f"ML_matrix_power({self._c_op(args[0])}, "
                       f"{self._c_op(args[1])}, &{dest});")
        elif op == "broadcast_element":
            subs = ", ".join(self._c_sub(s) for s in args[1:])
            self._line(f"ML_broadcast(&{dest}, {self._c_op(args[0])}, "
                       f"{subs});")
        elif op == "index_read":
            subs = ", ".join(self._c_sub(s) for s in args[1:])
            self._line(f"ML_index_read({self._c_op(args[0])}, &{dest}, "
                       f"{len(args) - 1}, {subs});")
        elif op == "range":
            self._line(f"ML_range({self._c_op(args[0])}, "
                       f"{self._c_op(args[1])}, {self._c_op(args[2])}, "
                       f"&{dest});")
        elif op == "literal":
            rows = len(stmt.args)
            cols = len(stmt.args[0]) if rows else 0
            flat = ", ".join(self._c_op(c) for row in stmt.args for c in row)
            self._line(f"ML_literal(&{dest}, {rows}, {cols}, {flat});")
        elif op == "dim":
            axis = int(float(args[1].value.real))  # type: ignore[union-attr]
            nargs = int(float(args[2].value.real))  # type: ignore[union-attr]
            if nargs <= 1:
                self._line(f"{dest} = ML_numel({self._c_op(args[0])});")
            elif axis == 0:
                self._line(f"{dest} = ML_rows({self._c_op(args[0])});")
            else:
                self._line(f"{dest} = ML_cols({self._c_op(args[0])});")
        elif op == "switch_match":
            self._line(f"{dest} = ML_switch_match({self._c_op(args[0])}, "
                       f"{self._c_op(args[1])});")
        elif op.startswith("reduce2:"):
            self._line(f"ML_reduce2(ML_OP_{op[len('reduce2:'):].upper()}, "
                       f"{self._c_op(args[0])}, &{dest});")
        elif op.startswith("reduce_batch:"):
            outs = [stmt.dest, *stmt.extra_dests]
            self._line(
                f"ML_reduce_batch(ML_OP_{op[len('reduce_batch:'):].upper()}, "
                f"{len(args)}, {', '.join(self._c_op(a) for a in args)}, "
                f"{', '.join('&' + self._c_op(d) for d in outs)});")
        elif op.startswith("builtin:"):
            name = op[len("builtin:"):]
            if any(a.__class__ is list for a in args):
                self._emit_by_value(stmt, name)
                return
            if name in CONSTANTS and not args:
                if dest is not None:
                    self._line(f"{dest} = {CONSTANTS[name][1]};")
                return
            call_args = ", ".join(self._c_op(a) for a in args)
            outs = []
            if stmt.dest is not None:
                outs = [f"&{dest}"] + [f"&{self._c_op(d)}"
                                       for d in stmt.extra_dests]
            all_args = ", ".join([call_args] + outs if call_args
                                 else outs)
            self._line(f"ML_{name}({all_args});")
        else:
            raise CodegenError(f"unknown runtime op {op!r}")

    def _emit_by_value(self, stmt: RTCall, name: str) -> None:
        """A builtin call with immediate arguments (pass 6's
        ``const_args``): each constant matrix is a static initialiser in
        a block around the ``ML_<name>_const`` call — control data every
        rank holds, never a distributed MATRIX."""
        call_args = []
        self._line("{")
        self._indent += 1
        for k, arg in enumerate(stmt.args):
            if arg.__class__ is not list:
                call_args.append(self._c_op(arg))
                continue
            rows = ", ".join(
                "{" + ", ".join(self._c_op(cell) for cell in row) + "}"
                for row in arg)
            self._line(f"static const int ML_imm{k}[{len(arg)}]"
                       f"[{len(arg[0])}] = {{{rows}}};")
            call_args.append(f"&ML_imm{k}[0][0]")
        self._line(f"ML_{name}_const({', '.join(call_args)}, "
                   f"&{self._c_op(stmt.dest)});")
        self._indent -= 1
        self._line("}")

    def _emit_if(self, stmt: IRIf) -> None:
        def chain(index: int) -> None:
            if index >= len(stmt.branches):
                for s in stmt.orelse:
                    self._emit_stmt(s)
                return
            cond_stmts, cond, branch = stmt.branches[index]
            for s in cond_stmts:
                self._emit_stmt(s)
            self._line(f"if ({self._cond_expr(cond)}) {{")
            self._indent += 1
            for s in branch:
                self._emit_stmt(s)
            self._indent -= 1
            if index + 1 < len(stmt.branches) or stmt.orelse:
                self._line("} else {")
                self._indent += 1
                chain(index + 1)
                self._indent -= 1
                self._line("}")
            else:
                self._line("}")

        chain(0)

    def _emit_for(self, stmt: IRFor) -> None:
        for s in stmt.iter_stmts:
            self._emit_stmt(s)
        var = stmt.var.name
        if stmt.range_triple is not None:
            start, step, stop = stmt.range_triple
            s0, s1, s2 = (self._c_op(start), self._c_op(step),
                          self._c_op(stop))
            cond = (f"{var} <= {s2}"
                    if isinstance(step, Const) and step.value.real > 0
                    else f"({s1}) > 0 ? {var} <= ({s2}) : {var} >= ({s2})")
            self._line(f"for ({var} = {s0}; {cond}; {var} += {s1}) {{")
        else:
            self._line(f"for (ML_loop_begin({self._c_op(stmt.iter_operand)}, "
                       f"&{var}); ML_loop_next(&{var}); ) {{")
        self._indent += 1
        for s in stmt.body:
            self._emit_stmt(s)
        self._indent -= 1
        self._line("}")

    def _emit_while(self, stmt: IRWhile) -> None:
        self._line("while (1) {")
        self._indent += 1
        for s in stmt.cond_stmts:
            self._emit_stmt(s)
        self._line(f"if (!({self._cond_expr(stmt.cond)})) break;")
        for s in stmt.body:
            self._emit_stmt(s)
        self._indent -= 1
        self._line("}")


def emit_c(ir: IRProgram) -> str:
    """Emit SPMD C source text for an IR program."""
    return CEmitter(ir).emit()
