"""Pass 4 — expression rewriting.

"The compiler is able to determine which terms and subexpressions may
involve interprocessor communication.  The compiler must modify the AST to
bring these terms and subexpressions to the statement level, where they
can be translated into calls to the run-time library.  After this has been
done, some element-wise matrix operations may remain [and become] for
loops" (paper, Section 3).

Concretely: the lowering walks each typed expression and classifies every
node.

* *fusable* nodes — elementwise operators, comparisons, unary ops,
  elementwise builtins, and any operator whose matrix operands reduce to
  elementwise semantics because the other side is a scalar — stay in one
  :class:`~repro.ir.nodes.Elementwise` tree (the single generated loop).
* everything else — matrix products, transposes, solves, reductions,
  generators, indexing, ranges, literals, user-function calls — is hoisted
  into an :class:`~repro.ir.nodes.RTCall` defining a fresh ``ML_tmp``.

The decisions use pass 3's types; wherever rank is unknown the lowering is
conservative (hoists), which is always correct because the run-time
library dispatches on actual shapes.
"""

from __future__ import annotations

from ..analysis.infer import ProgramTypes, UnitTypes
from ..analysis.lattice import BaseType, Rank, UNKNOWN, VarType, scalar
from ..analysis.resolve import ResolvedProgram
from ..analysis.builtin_sigs import REGISTRY, get_sig
from ..errors import NESTED_TOO_DEEPLY, LoweringError
from ..frontend import ast_nodes as A
from .nodes import (
    CallUser,
    ColonSub,
    Const,
    Copy,
    Display,
    Elementwise,
    EwExpr,
    EwNode,
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
    StrConst,
    Temp,
    Var,
)

#: operators that are always elementwise
_EW_BINOPS = {"+", "-", ".*", "./", ".\\", ".^",
              "==", "~=", "<", ">", "<=", ">=", "&", "|"}
#: builtins fusable into the elementwise loop (pure, shape-preserving)
_EW_BUILTINS = {name for name, sig in REGISTRY.items()
                if sig.kind in ("elementwise", "ewbinary")}


def _stamp_block(stmts: list[IRStmt], line: int) -> None:
    """Attribute every not-yet-stamped statement (recursively) to a
    source line.  Statements lowered from nested AST blocks were already
    stamped with their own lines and keep them; hoisted helpers (RT
    calls computing a condition or iterable) inherit the enclosing
    statement's line."""
    for s in stmts:
        if s.line == 0:
            s.line = line
        for nested in s.blocks():
            _stamp_block(nested, s.line)


def _matrix_consts(ut: UnitTypes) -> dict[str, tuple]:
    """The unit's matrix-valued constants (pass 6 reads nothing else of
    pass 3's constants: the scalars already shaped the types)."""
    return {name: const for name, const in ut.var_consts.items()
            if const.__class__ is tuple}


class Lowerer:
    def __init__(self, program: ResolvedProgram, types: ProgramTypes):
        self.program = program
        self.types = types
        self._temp_counter = 0

    # ------------------------------------------------------------------ #

    def lower(self) -> IRProgram:
        script = self.program.script
        ir = IRProgram(script_name=script.name)
        ir.var_types = dict(self.types.script.var_types)
        ir.var_consts = _matrix_consts(self.types.script)
        ir.body = self._lower_body(script.body, self.types.script)
        for name, unit in self.program.functions.items():
            func = unit.node
            ut = self.types.functions[name]
            ir.functions[name] = IRFunction(
                name=name,
                params=list(func.params),
                returns=list(func.returns),
                body=self._lower_body(func.body, ut),
                var_types=dict(ut.var_types),
                var_consts=_matrix_consts(ut),
            )
        return ir

    def _temp(self) -> Temp:
        self._temp_counter += 1
        return Temp(self._temp_counter)

    # ------------------------------------------------------------------ #
    # types
    # ------------------------------------------------------------------ #

    def _etype(self, ut: UnitTypes, expr: A.Expr) -> VarType:
        return ut.expr_types.get(id(expr), UNKNOWN)

    def _is_scalar(self, ut: UnitTypes, expr: A.Expr) -> bool:
        return self._etype(ut, expr).rank is Rank.SCALAR

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _lower_body(self, body: list[A.Stmt], ut: UnitTypes) -> list[IRStmt]:
        out: list[IRStmt] = []
        for stmt in body:
            start = len(out)
            self._lower_stmt(stmt, ut, out)
            line = stmt.loc.line
            if line:
                _stamp_block(out[start:], line)
        return out

    def _lower_stmt(self, stmt: A.Stmt, ut: UnitTypes,
                    out: list[IRStmt]) -> None:
        kind = type(stmt)
        if kind is A.Assign:
            self._lower_assign(stmt, ut, out)
        elif kind is A.ExprStmt:
            self._lower_expr_stmt(stmt, ut, out)
        elif kind is A.MultiAssign:
            self._lower_multi_assign(stmt, ut, out)
        elif kind is A.If:
            branches = []
            for cond, body in stmt.branches:
                cond_stmts: list[IRStmt] = []
                cond_op = self._as_operand(cond, ut, cond_stmts)
                # elseif conditions live on their own source lines
                _stamp_block(cond_stmts, cond.loc.line or stmt.loc.line)
                branches.append((cond_stmts, cond_op,
                                 self._lower_body(body, ut)))
            out.append(IRIf(branches=branches,
                            orelse=self._lower_body(stmt.orelse, ut)))
        elif kind is A.For:
            out.append(self._lower_for(stmt, ut))
        elif kind is A.While:
            cond_stmts: list[IRStmt] = []
            cond_op = self._as_operand(stmt.cond, ut, cond_stmts)
            _stamp_block(cond_stmts, stmt.cond.loc.line or stmt.loc.line)
            out.append(IRWhile(cond_stmts=cond_stmts, cond=cond_op,
                               body=self._lower_body(stmt.body, ut)))
        elif kind is A.Switch:
            self._lower_switch(stmt, ut, out)
        elif kind is A.Break:
            out.append(IRBreak())
        elif kind is A.Continue:
            out.append(IRContinue())
        elif kind is A.Return:
            out.append(IRReturn())
        elif kind is A.Global:
            out.append(IRGlobal(names=list(stmt.names)))
        else:
            raise LoweringError(f"cannot lower {kind.__name__}", stmt.loc)

    def _lower_assign(self, stmt: A.Assign, ut: UnitTypes,
                      out: list[IRStmt]) -> None:
        if type(stmt.target) is A.NameLValue:
            dest = Var(stmt.target.name)
            self._lower_value_into(stmt.value, ut, dest, out)
        else:
            target = stmt.target
            subs = [self._lower_subscript(arg, ut, out)
                    for arg in target.args]
            rhs = self._as_operand(stmt.value, ut, out)
            out.append(IndexAssign(var=Var(target.name), subs=subs, rhs=rhs))
        if stmt.display:
            out.append(Display(name=stmt.target.name,
                               value=Var(stmt.target.name)))

    def _lower_multi_assign(self, stmt: A.MultiAssign, ut: UnitTypes,
                            out: list[IRStmt]) -> None:
        call = stmt.call
        nargout = len(stmt.targets)
        # compute results into temporaries first
        result_ops: list[Operand] = []
        if call.resolved == "builtin":
            args = [self._as_operand(a, ut, out) for a in call.args]
            dests = [self._temp() for _ in range(nargout)]
            out.append(RTCall(dest=dests[0], op=f"builtin:{call.name}",
                              args=args, nargout=nargout,
                              extra_dests=list(dests[1:])))
            result_ops = list(dests)
        else:
            args = [self._as_operand(a, ut, out) for a in call.args]
            dests = [self._temp() for _ in range(nargout)]
            out.append(CallUser(dests=list(dests), func=call.name, args=args))
            result_ops = list(dests)
        for target, op in zip(stmt.targets, result_ops):
            if type(target) is A.NameLValue:
                out.append(Copy(dest=Var(target.name), src=op))
            else:
                subs = [self._lower_subscript(a, ut, out)
                        for a in target.args]
                out.append(IndexAssign(var=Var(target.name), subs=subs,
                                       rhs=op))
        if stmt.display:
            for target in stmt.targets:
                out.append(Display(name=target.name, value=Var(target.name)))

    def _lower_expr_stmt(self, stmt: A.ExprStmt, ut: UnitTypes,
                         out: list[IRStmt]) -> None:
        value = stmt.value
        # void builtin calls (disp, fprintf, ...) have no result
        is_apply = type(value) is A.Apply
        if is_apply and value.resolved == "builtin":
            sig = get_sig(value.name)
            if sig is not None and sig.nargout == 0:
                args = [self._as_operand(a, ut, out) for a in value.args]
                out.append(RTCall(dest=None, op=f"builtin:{value.name}",
                                  args=args, nargout=0))
                return
        # user functions with no return values are statements, not values
        if is_apply and value.resolved == "call":
            unit_ = self.program.functions.get(value.name)
            if unit_ is not None and not unit_.node.returns:
                args = [self._as_operand(a, ut, out) for a in value.args]
                out.append(CallUser(dests=[], func=value.name, args=args))
                return
        dest = Var("ans")
        self._lower_value_into(value, ut, dest, out)
        if stmt.display:
            out.append(Display(name="ans", value=Var("ans")))

    def _lower_for(self, stmt: A.For, ut: UnitTypes) -> IRFor:
        var = Var(stmt.var)
        body: list[IRStmt] = []
        if type(stmt.iterable) is A.Range:
            pre: list[IRStmt] = []
            rng = stmt.iterable
            start = self._as_operand(rng.start, ut, pre)
            step = self._as_operand(rng.step, ut, pre) \
                if rng.step is not None else Const(1.0)
            stop = self._as_operand(rng.stop, ut, pre)
            body = self._lower_body(stmt.body, ut)
            return IRFor(var=var, range_triple=(start, step, stop),
                         iter_stmts=pre, body=body)
        pre = []
        iter_op = self._as_operand(stmt.iterable, ut, pre)
        body = self._lower_body(stmt.body, ut)
        return IRFor(var=var, range_triple=None, iter_stmts=pre,
                     iter_operand=iter_op, body=body)

    def _lower_switch(self, stmt: A.Switch, ut: UnitTypes,
                      out: list[IRStmt]) -> None:
        """Desugar switch into an if/elseif chain on equality tests."""
        subject_op = self._as_operand(stmt.subject, ut, out)
        branches = []
        for values, body in stmt.cases:
            cond_stmts: list[IRStmt] = []
            cond_ops = []
            for value in values:
                vop = self._as_operand(value, ut, cond_stmts)
                t = self._temp()
                cond_stmts.append(RTCall(dest=t, op="switch_match",
                                         args=[subject_op, vop],
                                         vtype=scalar(BaseType.INTEGER)))
                cond_ops.append(t)
            cond = cond_ops[0]
            for other in cond_ops[1:]:
                t = self._temp()
                cond_stmts.append(Elementwise(
                    dest=t, expr=EwNode("|", (cond, other)),
                    vtype=scalar(BaseType.INTEGER)))
                cond = t
            branches.append((cond_stmts, cond, self._lower_body(body, ut)))
        out.append(IRIf(branches=branches,
                        orelse=self._lower_body(stmt.otherwise, ut)))

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #

    def _lower_value_into(self, expr: A.Expr, ut: UnitTypes, dest: Operand,
                          out: list[IRStmt]) -> None:
        """Lower ``dest = expr`` choosing the best statement form."""
        tree = self._lower_expr(expr, ut, out)
        vtype = self._etype(ut, expr)
        if type(tree) is not EwNode:
            # a bare operand: retarget the defining call when possible
            last = out[-1] if out else None
            if (type(tree) is Temp
                    and (type(last) is RTCall or type(last) is Elementwise)
                    and last.dest == tree):
                last.dest = dest
                last.vtype = vtype
            else:
                out.append(Copy(dest=dest, src=tree, vtype=vtype))
        else:
            out.append(Elementwise(dest=dest, expr=tree, vtype=vtype))

    def _as_operand(self, expr: A.Expr, ut: UnitTypes,
                    out: list[IRStmt]) -> Operand:
        tree = self._lower_expr(expr, ut, out)
        if type(tree) is not EwNode:
            return tree
        temp = self._temp()
        out.append(Elementwise(dest=temp, expr=tree,
                               vtype=self._etype(ut, expr)))
        return temp

    def _lower_subscript(self, arg: A.Expr, ut: UnitTypes,
                         out: list[IRStmt]) -> Operand:
        if type(arg) is A.Colon:
            return ColonSub()
        return self._as_operand(arg, ut, out)

    def _lower_expr(self, expr: A.Expr, ut: UnitTypes,
                    out: list[IRStmt]) -> EwExpr:
        """Lower an expression, returning either an Operand or a fused
        elementwise tree whose leaves are Operands."""
        kind = type(expr)   # node classes are leaves: identity, not isinstance
        if kind is A.Ident:
            return Var(expr.name)
        if kind is A.BinOp:
            return self._lower_binop(expr, ut, out)
        if kind is A.Apply:
            return self._lower_apply(expr, ut, out)
        if kind is A.Num:
            return Const(complex(expr.value))
        if kind is A.ImagNum:
            return Const(complex(0.0, expr.value))
        if kind is A.Str:
            return StrConst(expr.value)
        if kind is A.EndRef:
            temp = self._temp()
            out.append(RTCall(dest=temp, op="dim",
                              args=[Var(expr.var), Const(float(expr.axis)),
                                    Const(float(expr.nargs))],
                              vtype=scalar(BaseType.INTEGER)))
            return temp
        if kind is A.UnaryOp:
            inner = self._lower_expr(expr.operand, ut, out)
            if type(inner) is Const and expr.op != "~":
                # a signed literal, not an operation on one
                return Const(-inner.value) if expr.op == "-" else inner
            op = {"-": "u-", "+": "u+", "~": "u~"}[expr.op]
            return EwNode(op, (inner,), scalar=self._is_scalar(ut, expr))
        if kind is A.Transpose:
            return self._lower_transpose(expr, ut, out)
        if kind is A.Range:
            start = self._as_operand(expr.start, ut, out)
            step = self._as_operand(expr.step, ut, out) \
                if expr.step is not None else Const(1.0)
            stop = self._as_operand(expr.stop, ut, out)
            temp = self._temp()
            out.append(RTCall(dest=temp, op="range",
                              args=[start, step, stop],
                              vtype=self._etype(ut, expr)))
            return temp
        if kind is A.MatrixLit:
            rows = [[self._as_operand(e, ut, out) for e in row]
                    for row in expr.rows]
            temp = self._temp()
            out.append(RTCall(dest=temp, op="literal", args=rows,
                              vtype=self._etype(ut, expr)))
            return temp
        if kind is A.Colon:
            raise LoweringError("':' outside a subscript", expr.loc)
        raise LoweringError(f"cannot lower {kind.__name__}", expr.loc)

    def _lower_binop(self, expr: A.BinOp, ut: UnitTypes,
                     out: list[IRStmt]) -> EwExpr:
        op = expr.op
        lt = self._etype(ut, expr.lhs)
        rt = self._etype(ut, expr.rhs)
        l_scalar = lt.rank is Rank.SCALAR
        r_scalar = rt.rank is Rank.SCALAR

        if op in _EW_BINOPS:
            return EwNode(op, (self._lower_expr(expr.lhs, ut, out),
                               self._lower_expr(expr.rhs, ut, out)),
                          scalar=self._is_scalar(ut, expr))
        if op in ("&&", "||"):
            # short-circuit, scalar-only: both sides must be operands so
            # the backend can emit lazy evaluation; hoisting the RHS is a
            # (sound) eagerness the paper's compiler shares.
            lhs = self._lower_expr(expr.lhs, ut, out)
            rhs = self._lower_expr(expr.rhs, ut, out)
            return EwNode(op, (lhs, rhs), scalar=True)
        if op == "*":
            if l_scalar or r_scalar:
                return EwNode(".*", (self._lower_expr(expr.lhs, ut, out),
                                     self._lower_expr(expr.rhs, ut, out)),
                              scalar=self._is_scalar(ut, expr))
            lhs = self._as_operand(expr.lhs, ut, out)
            rhs = self._as_operand(expr.rhs, ut, out)
            temp = self._temp()
            out.append(RTCall(dest=temp, op="matmul", args=[lhs, rhs],
                              vtype=self._etype(ut, expr)))
            return temp
        if op == "/":
            if r_scalar:
                return EwNode("./", (self._lower_expr(expr.lhs, ut, out),
                                     self._lower_expr(expr.rhs, ut, out)),
                              scalar=self._is_scalar(ut, expr))
            lhs = self._as_operand(expr.lhs, ut, out)
            rhs = self._as_operand(expr.rhs, ut, out)
            temp = self._temp()
            out.append(RTCall(dest=temp, op="solve_right", args=[lhs, rhs],
                              vtype=self._etype(ut, expr)))
            return temp
        if op == "\\":
            if l_scalar:
                return EwNode(".\\", (self._lower_expr(expr.lhs, ut, out),
                                      self._lower_expr(expr.rhs, ut, out)),
                              scalar=self._is_scalar(ut, expr))
            lhs = self._as_operand(expr.lhs, ut, out)
            rhs = self._as_operand(expr.rhs, ut, out)
            temp = self._temp()
            out.append(RTCall(dest=temp, op="solve_left", args=[lhs, rhs],
                              vtype=self._etype(ut, expr)))
            return temp
        if op == "^":
            if l_scalar and r_scalar:
                return EwNode(".^", (self._lower_expr(expr.lhs, ut, out),
                                     self._lower_expr(expr.rhs, ut, out)),
                              scalar=True)
            lhs = self._as_operand(expr.lhs, ut, out)
            rhs = self._as_operand(expr.rhs, ut, out)
            temp = self._temp()
            out.append(RTCall(dest=temp, op="matrix_power",
                              args=[lhs, rhs],
                              vtype=self._etype(ut, expr)))
            return temp
        raise LoweringError(f"unknown operator {op!r}", expr.loc)

    def _lower_transpose(self, expr: A.Transpose, ut: UnitTypes,
                         out: list[IRStmt]) -> EwExpr:
        otype = self._etype(ut, expr.operand)
        if otype.rank is Rank.SCALAR:
            inner = self._lower_expr(expr.operand, ut, out)
            if otype.base is BaseType.COMPLEX and expr.conjugate:
                return EwNode("fn:conj", (inner,), scalar=True)
            return inner
        operand = self._as_operand(expr.operand, ut, out)
        temp = self._temp()
        op = "transpose" if expr.conjugate else "transpose_nc"
        out.append(RTCall(dest=temp, op=op, args=[operand],
                          vtype=self._etype(ut, expr)))
        return temp

    def _lower_apply(self, expr: A.Apply, ut: UnitTypes,
                     out: list[IRStmt]) -> EwExpr:
        if expr.resolved == "index":
            subs = [self._lower_subscript(a, ut, out) for a in expr.args]
            temp = self._temp()
            vtype = self._etype(ut, expr)
            # A statically-scalar result of scalar subscripts becomes the
            # paper's ML_broadcast; everything else goes through the
            # general indexed read (which still fast-paths scalars found
            # only at run time).
            op = "broadcast_element" if (
                vtype.rank is Rank.SCALAR and len(subs) in (1, 2)
                and not any(type(s) is ColonSub for s in subs)) \
                else "index_read"
            out.append(RTCall(dest=temp, op=op,
                              args=[Var(expr.name), *subs], vtype=vtype))
            return temp
        if expr.resolved == "builtin":
            if expr.name in _EW_BUILTINS:
                args = tuple(self._lower_expr(a, ut, out) for a in expr.args)
                return EwNode(f"fn:{expr.name}", args,
                              scalar=self._is_scalar(ut, expr))
            args = [self._as_operand(a, ut, out) for a in expr.args]
            temp = self._temp()
            out.append(RTCall(dest=temp, op=f"builtin:{expr.name}",
                              args=args, vtype=self._etype(ut, expr)))
            return temp
        if expr.resolved == "call":
            args = [self._as_operand(a, ut, out) for a in expr.args]
            temp = self._temp()
            out.append(CallUser(dests=[temp], func=expr.name, args=args))
            return temp
        raise LoweringError(f"unresolved apply {expr.name!r}", expr.loc)


def lower_program(program: ResolvedProgram, types: ProgramTypes) -> IRProgram:
    """Run pass 4."""
    try:
        return Lowerer(program, types).lower()
    except RecursionError:
        raise LoweringError(NESTED_TOO_DEEPLY) from None
