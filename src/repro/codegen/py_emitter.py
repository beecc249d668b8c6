"""Pass 7 (Python backend): emit an executable SPMD Python program.

The generated module defines ``main(rt)`` (plus one ``fn_<name>(rt, ...)``
per user M-file function).  It is loosely synchronous SPMD code in exactly
the paper's sense: every rank executes the same statements; distributed
values are :class:`~repro.runtime.matrix.DMatrix`; fused elementwise
statements become single ``rt.ew`` kernels (the generated ``for`` loop);
everything that may communicate is a run-time-library call.

This is the substitution for the paper's C backend (see DESIGN.md): the
C emitter produces the same shape of code as text, while this backend
actually runs on the simulated MPI substrate.
"""

from __future__ import annotations

from ..errors import NESTED_TOO_DEEPLY, CodegenError
from ..ewops import py_literal, spec_to_py
from ..ir.nodes import (
    DEAD,
    GROUP_BUILTINS,
    LAST,
    LIVE,
    CallUser,
    ColonSub,
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
    Var,
    ew_op_count,
    ew_spec,
    group_spec,
    walk_blocks,
)
from .names import func_name, operand_py, var_name

_JOINS = (IRIf, IRFor, IRWhile, CallUser)

_HEADER = '''\
"""Generated by the Otter reproduction compiler. Do not edit."""
import numpy as np

from repro.codegen import kernels as K
from repro.runtime.builtins import TABLE as _B
from repro.runtime.context import COLON
'''


class PyEmitter:
    def __init__(self, ir: IRProgram):
        self.ir = ir
        self.lines: list[str] = []
        self._indent = 0
        self._globals: set[str] = set()
        self._current_returns: list[str] | None = None
        #: source line the emitted code has marked on ``_c.line`` at the
        #: current program point (None: unknown — e.g. a join point after
        #: control flow — so the next statement re-marks).  The markers
        #: let the trace layer attribute every communication/compute
        #: charge back to the originating MATLAB statement; with tracing
        #: off they cost one attribute store.
        self._mark: int | tuple | None = None
        #: the M-file function being emitted (``None``: the script),
        #: whose statements mark ``(name, line)``: its line numbers are
        #: its own file's, which the script's must not absorb
        self._unit: str | None = None
        #: what a group member's assignment tries before its own call
        self._head = ""
        #: the name of the flag the loop whose body is being emitted
        #: sets on its last iteration (``None``: it sets none)
        self._last: str | None = None
        self._loops = 0
        #: module-level bindings in order of first use: right side -> name
        self._bound: dict[str, str] = {}

    # ------------------------------------------------------------------ #

    def emit(self) -> str:
        self.lines = []
        for func in self.ir.functions.values():
            self._emit_function(func)
        self._emit_main()
        bindings = [f"{name} = {text}" for text, name in self._bound.items()]
        return "\n".join([_HEADER, *bindings, *self.lines]) + "\n"

    def _line(self, text: str = "") -> None:
        self.lines.append(("    " * self._indent) + text if text else "")

    # ------------------------------------------------------------------ #

    def _collect_vars(self, body: list[IRStmt]) -> set[str]:
        """Every Var/Temp name assigned in a unit (for the None prologue);
        notes the unit's ``global`` names on the way."""
        assigned: set[Operand] = set()
        for block in walk_blocks(body):
            for stmt in block:
                if stmt.__class__ is IRGlobal:
                    self._globals.update(stmt.names)
                else:
                    assigned.update(stmt.defs())
        return {operand_py(dest) for dest in assigned}

    def _emit_function(self, func: IRFunction) -> None:
        self._globals = set()
        assigned = self._collect_vars(func.body)
        params = ", ".join(f"{var_name(p)}=None" for p in func.params)
        sep = ", " if params else ""
        self._line(f"def {func_name(func.name)}(rt{sep and ', '}{params}):")
        self._indent += 1
        self._line("_c = rt.comm")
        # the call itself, on the caller's line (still marked)
        self._line("_c.user_call()")
        self._mark = None
        prologue = sorted(assigned
                          - {var_name(p) for p in func.params}
                          - {var_name(g) for g in self._globals})
        for name in prologue:
            self._line(f"{name} = None")
        self._current_returns = list(func.returns)
        self._unit = func.name
        for stmt in func.body:
            self._emit_stmt(stmt)
        self._unit = None
        self._emit_return()
        self._current_returns = None
        self._indent -= 1
        self._line()
        self._line()

    def _emit_return(self) -> None:
        rets = self._current_returns or []
        tup = ", ".join(var_name(r) for r in rets)
        if len(rets) == 1:
            self._line(f"return ({tup},)")
        else:
            self._line(f"return ({tup})" if rets else "return ()")

    def _emit_main(self) -> None:
        self._globals = set()
        assigned = self._collect_vars(self.ir.body)
        self._line("def main(rt):")
        self._indent += 1
        self._line("_c = rt.comm")
        self._mark = None
        user_vars = sorted(assigned - {var_name(g) for g in self._globals})
        for name in user_vars:
            self._line(f"{name} = None")
        self._current_returns = None
        for stmt in self.ir.body:
            self._emit_stmt(stmt)
        # final workspace (for differential testing against the oracle)
        pairs = ", ".join(
            f"{name[2:]!r}: {name}" for name in user_vars
            if name.startswith("v_"))
        self._line(f"return {{{pairs}}}")
        self._indent -= 1
        self._line()

    # ------------------------------------------------------------------ #
    # operands / trees
    # ------------------------------------------------------------------ #

    def _op(self, op: Operand) -> str:
        if type(op) is ColonSub:
            return "COLON"
        return operand_py(op, self._globals)

    @staticmethod
    def _immediate(rows: list) -> str:
        """A builtin argument pass 6 made an immediate: the matrix (rows
        of constants) as a tuple of row tuples."""
        return py_literal(tuple(tuple(cell.value for cell in row)
                                for row in rows))

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _dest(self, op: Operand) -> str:
        if type(op) is Var and op.name in self._globals:
            return f"rt.globals[{op.name!r}]"
        return self._op(op)

    def _marker(self, stmt: IRStmt) -> None:
        """Mark ``stmt``'s source line on ``_c.line`` unless it is
        marked already."""
        line = stmt.line
        if line:
            if self._unit is not None:
                line = (self._unit, line)
            if line != self._mark:
                self._line(f"_c.line = {line!r}")
                self._mark = line

    def _emit_stmt(self, stmt: IRStmt) -> None:
        self._marker(stmt)
        self._dispatch_stmt(stmt)
        if type(stmt) in _JOINS:
            # control flow joins (and callees, which re-mark _c.line for
            # their own statements) leave the dynamic marker unknown
            self._mark = None

    def _dispatch_stmt(self, stmt: IRStmt) -> None:
        kind = type(stmt)   # IR statement classes are leaves
        if kind is Elementwise:
            spec, operands = ew_spec(stmt.expr)
            self._emit_ew(stmt, spec, operands, py_literal(spec)
                          if spec.__class__ is tuple else None,
                          max(ew_op_count(stmt.expr), 1))
        elif kind is Copy:
            self._line(f"{self._dest(stmt.dest)} = {self._op(stmt.src)}")
        elif kind is RTCall:
            self._emit_rtcall(stmt)
        elif kind is SetElement:
            var = self._dest(stmt.var)
            subs = ", ".join(self._op(s) for s in stmt.subs)
            # reuse=True is sound here and only here: the store rebinds
            # the same variable, so the old descriptor dies on return and
            # the runtime may write its local block in place when unaliased
            self._line(f"{var} = rt.set_element({var}, [{subs}], "
                       f"{self._op(stmt.rhs)}, reuse=True)")
        elif kind is IndexAssign:
            var = self._dest(stmt.var)
            subs = ", ".join(self._op(s) for s in stmt.subs)
            self._line(f"{var} = rt.index_assign({var}, [{subs}], "
                       f"{self._op(stmt.rhs)})")
        elif kind is CallUser:
            call = f"{func_name(stmt.func)}(rt" + \
                "".join(f", {self._op(a)}" for a in stmt.args) + ")"
            if not stmt.dests:
                self._line(call)
            elif len(stmt.dests) == 1:
                self._line(f"{self._dest(stmt.dests[0])} = {call}[0]")
            else:
                self._line(f"_r = {call}")
                for i, dest in enumerate(stmt.dests):
                    self._line(f"{self._dest(dest)} = _r[{i}]")
        elif kind is Display:
            self._line(f"rt.display({stmt.name!r}, {self._op(stmt.value)})")
        elif kind is EwGroup:
            self._emit_group(stmt)
        elif kind is IRIf:
            self._emit_if(stmt)
        elif kind is IRFor:
            self._emit_for(stmt)
        elif kind is IRWhile:
            self._emit_while(stmt)
        elif kind is IRBreak:
            self._line("break")
        elif kind is IRContinue:
            self._line("continue")
        elif kind is IRReturn:
            if self._current_returns is not None:
                self._emit_return()
            else:
                self._line("return {}")
        elif kind is IRGlobal:
            for name in stmt.names:
                self._line(f"rt.globals.setdefault({name!r}, None)")
        else:
            raise CodegenError(f"cannot emit {kind.__name__}")

    def _emit_ew(self, stmt: Elementwise, spec, operands: list,
                 text: str | None, nops: int) -> None:
        """The fused kernel as a lambda and, for the native tier (which
        compiles the whole chain into one C loop), as the same tree's
        spec (``text``); a bare operand copy has no tree."""
        args = "".join([f", {self._op(o)}" for o in operands])
        tail = f", spec={text}" if text is not None else ""
        fn = self._bound.setdefault(spec_to_py(spec), f"_ew{len(self._bound)}")
        self._line(f"{self._dest(stmt.dest)} = {self._head}rt.ew("
                   f"{fn}, {nops}{args}{tail})")

    def _live(self, group: EwGroup) -> list | None:
        """The group's ``live`` marks as the emitted code honours them:
        a global's value is always an array (another frame may read
        it), and a member needs one on every iteration outside a loop
        that says which is its last."""
        if group.live is None:
            return None
        return [LIVE if (mark == LAST and self._last is None)
                or (mark != LIVE and stmt.dest.__class__ is Var
                    and stmt.dest.name in self._globals) else mark
                for stmt, mark in zip(group.members, group.live)]

    def _batched(self, group: EwGroup) -> bool:
        """May the run time compute the iterations before the last of
        the loop whose body is ``group`` in one call (pass 6's
        ``loop_group``)?  Not when a member's value is a global's, which
        needs an array on every iteration."""
        return group.carry is not None and self._live(group) == \
            list(group.live)

    def _emit_group(self, group: EwGroup) -> None:
        """``_gs``, the group spec, and ``_g``, the group's outputs from
        one native kernel — asked for only where ``rt.grouped`` says one
        can run — then each member's own statement, which takes its
        value from ``_g`` or, without one, computes it just as it would
        outside a group.  The members that get an array are every one
        not marked :data:`DEAD`, and before a loop's last iteration only
        the :data:`LIVE` ones."""
        members, operands = group_spec(group)
        gspec = ", ".join([f"({py_literal(spec)}, {slots!r})"
                           for spec, _, slots, _ in members])
        ops = ", ".join([self._op(o) for o in operands])
        if len(operands) == 1:
            ops += ","
        live = self._live(group) or [LIVE] * len(members)
        # an output may go into the old value's array when no member
        # reads that value (and it is not a global's, which another
        # frame may hold)
        olds = ", ".join([
            self._op(stmt.dest) if fresh and mark != DEAD and not (
                stmt.dest.__class__ is Var and stmt.dest.name in self._globals)
            else "None"
            for stmt, (_, _, _, fresh), mark in zip(group.members, members,
                                                     live)])
        full = tuple([k for k, mark in enumerate(live) if mark != DEAD])
        lean = tuple([k for k, mark in enumerate(live) if mark == LIVE])
        outs = "" if len(lean) == len(live) else f", ({lean!r}, {full!r})"
        if self._batched(group):
            outs += f", {self._last}, {group.carry!r}"
        elif lean != full:
            outs += f", {self._last}"
        self._line(f"_gs = ({gspec})")
        self._line(f"_g = rt.grouped and rt.ew_group(_gs, ({ops}), "
                   f"({olds}){outs})")
        for k, (stmt, (spec, reads, _, _)) in enumerate(zip(group.members,
                                                            members)):
            self._marker(stmt)
            if stmt.__class__ is Elementwise:
                nops = max(ew_op_count(stmt.expr), 1)
                self._head = f"_g.result({nops}) if _g else "
                # the member's spec is the group spec's: one literal
                self._emit_ew(stmt, spec, reads, f"_gs[{k}][0]", nops)
            else:
                self._head = "_g.result(1) if _g else " \
                    if stmt.op in GROUP_BUILTINS else "_g.tap() if _g else "
                self._emit_rtcall(stmt)
        self._head = ""

    #: ops that allocate a fresh distributed array — the emitter names the
    #: destination just before the call so per-array distribution plans
    #: (rt.dist_plan) can choose the scheme at the creation site
    _CREATION_OPS = {"range", "literal"}
    _CREATION_BUILTINS = {"zeros", "ones", "eye", "rand", "randn", "linspace"}

    def _emit_rtcall(self, stmt: RTCall) -> None:
        op = stmt.op
        dest = self._dest(stmt.dest) if stmt.dest is not None else None
        creation = (op in self._CREATION_OPS
                    or (op.startswith("builtin:")
                        and op[len("builtin:"):] in self._CREATION_BUILTINS))
        if creation:
            hint = stmt.dest.name if type(stmt.dest) is Var else None
            self._line(f"rt.dest_hint = {hint!r}")

        def assign(expr: str) -> None:
            if dest is None:
                self._line(expr)
            else:
                self._line(f"{dest} = {self._head}{expr}")

        if op == "matmul":
            assign(f"rt.matmul({self._op(stmt.args[0])}, "
                   f"{self._op(stmt.args[1])})")
        elif op in ("matmul_t", "matmul_tnc"):
            conj = op == "matmul_t"
            assign(f"rt.matmul_t({self._op(stmt.args[0])}, "
                   f"{self._op(stmt.args[1])}, conjugate={conj})")
        elif op in ("transpose", "transpose_nc"):
            conj = op == "transpose"
            assign(f"rt.transpose({self._op(stmt.args[0])}, "
                   f"conjugate={conj})")
        elif op in ("solve_left", "solve_right"):
            left = op == "solve_left"
            assign(f"rt.solve({self._op(stmt.args[0])}, "
                   f"{self._op(stmt.args[1])}, left={left})")
        elif op == "matrix_power":
            assign(f"rt.matrix_power({self._op(stmt.args[0])}, "
                   f"{self._op(stmt.args[1])})")
        elif op == "broadcast_element":
            subs = [f"K.idx({self._op(s)}) - 1" for s in stmt.args[1:]]
            assign(f"rt.element({self._op(stmt.args[0])}, "
                   + ", ".join(subs) + ")")
        elif op == "index_read":
            subs = ", ".join(self._op(s) for s in stmt.args[1:])
            assign(f"rt.index_read({self._op(stmt.args[0])}, [{subs}])")
        elif op == "range":
            assign(f"rt.range_vector({self._op(stmt.args[0])}, "
                   f"{self._op(stmt.args[1])}, {self._op(stmt.args[2])})")
        elif op == "literal":
            rows = ", ".join(
                "[" + ", ".join(self._op(c) for c in row) + "]"
                for row in stmt.args)
            assign(f"rt.from_literal([{rows}])")
        elif op == "dim":
            assign(f"rt.end_extent({self._op(stmt.args[0])}, "
                   f"{self._op(stmt.args[1])}, {self._op(stmt.args[2])})")
        elif op == "switch_match":
            assign(f"rt.switch_match({self._op(stmt.args[0])}, "
                   f"{self._op(stmt.args[1])})")
        elif op.startswith("reduce2:"):
            assign(f"rt.reduce2({op[len('reduce2:'):]!r}, "
                   f"{self._op(stmt.args[0])})")
        elif op.startswith(("builtin:", "reduce_batch:")):
            head, _, name = op.partition(":")
            args = ", ".join(self._immediate(a) if a.__class__ is list
                             else self._op(a) for a in stmt.args)
            if head == "builtin":
                fn = self._bound.setdefault(f"_B[{name!r}]", f"_bi_{name}")
                call = f"{fn}(rt, [{args}], {stmt.nargout})"
            else:
                call = f"rt.reduce_batch({name!r}, [{args}])"
            if stmt.extra_dests:
                self._line(f"_r = {call}")
                for i, d in enumerate([stmt.dest, *stmt.extra_dests]):
                    self._line(f"{self._dest(d)} = _r[{i}]")
            else:
                assign(call)
        else:
            raise CodegenError(f"unknown runtime op {op!r}")

    def _emit_if(self, stmt: IRIf) -> None:
        def chain(index: int) -> None:
            if index > 0:
                self._mark = None  # inside an else: block now
            if index >= len(stmt.branches):
                for s in stmt.orelse:
                    self._emit_stmt(s)
                return
            cond_stmts, cond, branch = stmt.branches[index]
            for s in cond_stmts:
                self._emit_stmt(s)
            self._line(f"if rt.truthy({self._op(cond)}):")
            self._indent += 1
            self._mark = None
            if branch:
                for s in branch:
                    self._emit_stmt(s)
            else:
                self._line("pass")
            self._indent -= 1
            self._mark = None
            if index + 1 < len(stmt.branches) or stmt.orelse:
                self._line("else:")
                self._indent += 1
                chain(index + 1)
                self._indent -= 1

        chain(0)

    def _emit_for(self, stmt: IRFor) -> None:
        for s in stmt.iter_stmts:
            self._emit_stmt(s)
        var = self._dest(stmt.var)
        outer = self._last
        self._last = None
        if stmt.range_triple is not None:
            start, step, stop = stmt.range_triple
            head = f"rt.loop_range({self._op(start)}, {self._op(step)}, " \
                   f"{self._op(stop)}"
            self._last = f"_l{self._loops}"     # (``_live`` keeps LAST)
            for s in stmt.body:
                if s.__class__ is EwGroup and s.live is not None:
                    batch = self._batched(s)
                    if not (batch or LAST in self._live(s)):
                        continue
                    # its groups compute less before the last iteration
                    self._loops += 1
                    self._line(f"for {self._last}, {var} in {head}, True"
                               f"{', True' if batch else ''}):")
                    break
            else:
                self._last = None
                self._line(f"for {var} in {head}):")
        else:
            self._line(f"for {var} in rt.loop_values("
                       f"{self._op(stmt.iter_operand)}):")
        self._indent += 1
        self._mark = None  # the back edge re-enters here
        if stmt.body:
            for s in stmt.body:
                self._emit_stmt(s)
        else:
            self._line("pass")
        self._indent -= 1
        self._last = outer

    def _emit_while(self, stmt: IRWhile) -> None:
        self._line("while True:")
        self._indent += 1
        self._mark = None  # the back edge re-enters here
        for s in stmt.cond_stmts:
            self._emit_stmt(s)
        self._line(f"if not rt.truthy({self._op(stmt.cond)}):")
        self._line("    break")
        for s in stmt.body:
            self._emit_stmt(s)
        self._indent -= 1


def builtin_binding(name: str) -> str:
    """The module-level line that binds builtin ``name`` in an emitted
    module: the module has it exactly when the program, or an M-file
    function it calls, calls ``name``."""
    return f"_bi_{name} = _B[{name!r}]"


def emit_python(ir: IRProgram) -> str:
    """Emit the SPMD Python module source for an IR program."""
    try:
        return PyEmitter(ir).emit()
    except RecursionError:
        raise CodegenError(NESTED_TOO_DEEPLY) from None
