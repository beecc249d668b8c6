"""Pass 2 — identifier resolution.

Beginning with the original script, determine which identifiers are
variables and which are functions.  User M-file functions discovered here
are scanned, parsed, and resolved in turn, and every reachable function is
attached to the resulting :class:`Program` (we do *not* inline them,
matching the paper).

MATLAB's grammar leaves ``x(e)`` ambiguous between indexing and a call;
the rule applied here (the standard static approximation, also used by
FALCON) is: a name assigned anywhere in the unit — including as a loop
variable, parameter, or return value — is a *variable*; otherwise it must
name a user M-file function or a builtin.

This pass also binds every ``end`` subscript to the variable and axis it
measures.
"""

from __future__ import annotations

from ..errors import NESTED_TOO_DEEPLY, ResolutionError
from ..frontend import ast_nodes as A
from ..frontend.mfile import EMPTY_PROVIDER, MFileProvider
from .builtin_sigs import get_sig, is_builtin
from .symtab import SymbolTable


class ResolvedUnit:
    """A program unit (script or function) with its symbol table."""

    def __init__(self, name: str, node: A.Script | A.FunctionDef,
                 symtab: SymbolTable):
        self.name = name
        self.node = node
        self.symtab = symtab

    @property
    def body(self) -> list[A.Stmt]:
        return self.node.body


class ResolvedProgram:
    """Output of pass 2: the script unit, all function units, symbol tables."""

    def __init__(self, script: ResolvedUnit, provider: MFileProvider):
        self.script = script
        self.functions: dict[str, ResolvedUnit] = {}
        self.provider = provider

    def unit(self, name: str) -> ResolvedUnit:
        if name == self.script.name:
            return self.script
        return self.functions[name]

    def all_units(self) -> list[ResolvedUnit]:
        return [self.script, *self.functions.values()]


class Resolver:
    def __init__(self, provider: MFileProvider | None = None,
                 predefined: set[str] | None = None):
        self.provider = provider or EMPTY_PROVIDER
        self.predefined = set(predefined or ())
        self._in_progress: set[str] = set()

    # ------------------------------------------------------------------ #

    def resolve(self, script: A.Script) -> ResolvedProgram:
        symtab = SymbolTable(script.name)
        for name in sorted(self.predefined):
            symtab.define(name, "variable")  # e.g. a REPL workspace
        self._collect_assigned(script.body, symtab)
        program = ResolvedProgram(ResolvedUnit(script.name, script, symtab),
                                  self.provider)
        self._resolve_body(script.body, symtab, program, siblings={})
        return program

    # ------------------------------------------------------------------ #
    # collecting variable bindings
    # ------------------------------------------------------------------ #

    def _collect_assigned(self, body: list[A.Stmt], symtab: SymbolTable) -> None:
        for stmt in body:
            kind = type(stmt)
            if kind is A.Assign:
                symtab.define(stmt.target.name, "variable")
            elif kind is A.ExprStmt:
                if stmt.display:
                    symtab.define("ans", "variable")
            elif kind is A.MultiAssign:
                for target in stmt.targets:
                    symtab.define(target.name, "variable")
            elif kind is A.For:
                symtab.define(stmt.var, "loopvar")
                self._collect_assigned(stmt.body, symtab)
            elif kind is A.While:
                self._collect_assigned(stmt.body, symtab)
            elif kind is A.If:
                for _cond, branch in stmt.branches:
                    self._collect_assigned(branch, symtab)
                self._collect_assigned(stmt.orelse, symtab)
            elif kind is A.Switch:
                for _values, branch in stmt.cases:
                    self._collect_assigned(branch, symtab)
                self._collect_assigned(stmt.otherwise, symtab)
            elif kind is A.Global:
                for name in stmt.names:
                    symtab.define(name, "global")

    # ------------------------------------------------------------------ #
    # resolving references
    # ------------------------------------------------------------------ #

    def _resolve_body(self, body: list[A.Stmt], symtab: SymbolTable,
                      program: ResolvedProgram,
                      siblings: dict[str, A.FunctionDef]) -> None:
        for stmt in body:
            self._resolve_stmt(stmt, symtab, program, siblings)

    def _resolve_stmt(self, stmt: A.Stmt, symtab: SymbolTable,
                      program: ResolvedProgram,
                      siblings: dict[str, A.FunctionDef]) -> None:
        kind = type(stmt)
        rw = self._resolve_expr
        if kind is A.Assign:
            stmt.value = rw(stmt.value, symtab, program, siblings)
            target = stmt.target
            if type(target) is A.IndexLValue:
                target.args = [rw(a, symtab, program, siblings)
                               for a in target.args]
                self._bind_end_refs(target.name, target.args)
        elif kind is A.ExprStmt:
            stmt.value = rw(stmt.value, symtab, program, siblings)
        elif kind is A.MultiAssign:
            call = rw(stmt.call, symtab, program, siblings)
            if not (type(call) is A.Apply
                    and call.resolved in ("call", "builtin")):
                raise ResolutionError(
                    "[..] = requires a function call on the right-hand side",
                    stmt.loc)
            stmt.call = call
            for target in stmt.targets:
                if type(target) is A.IndexLValue:
                    target.args = [rw(a, symtab, program, siblings)
                                   for a in target.args]
                    self._bind_end_refs(target.name, target.args)
        elif kind is A.If:
            stmt.branches = [
                (rw(cond, symtab, program, siblings), branch)
                for cond, branch in stmt.branches
            ]
            for _cond, branch in stmt.branches:
                self._resolve_body(branch, symtab, program, siblings)
            self._resolve_body(stmt.orelse, symtab, program, siblings)
        elif kind is A.For:
            stmt.iterable = rw(stmt.iterable, symtab, program, siblings)
            self._resolve_body(stmt.body, symtab, program, siblings)
        elif kind is A.While:
            stmt.cond = rw(stmt.cond, symtab, program, siblings)
            self._resolve_body(stmt.body, symtab, program, siblings)
        elif kind is A.Switch:
            stmt.subject = rw(stmt.subject, symtab, program, siblings)
            stmt.cases = [([rw(v, symtab, program, siblings)
                            for v in values], branch)
                          for values, branch in stmt.cases]
            for _values, branch in stmt.cases:
                self._resolve_body(branch, symtab, program, siblings)
            self._resolve_body(stmt.otherwise, symtab, program, siblings)
        # Break/Continue/Return/Global carry no expressions.

    def _resolve_expr(self, expr: A.Expr, symtab: SymbolTable,
                      program: ResolvedProgram,
                      siblings: dict[str, A.FunctionDef]) -> A.Expr:
        kind = type(expr)   # node classes are leaves: identity, not isinstance
        if kind is A.Num or kind is A.Str or kind is A.Colon \
                or kind is A.ImagNum or kind is A.EndRef:
            return expr
        rw = self._resolve_expr
        if kind is A.Ident:
            name = expr.name
            if symtab.is_variable(name):
                return expr
            if self._find_function(name, program, siblings):
                return A.Apply(loc=expr.loc, name=name, args=[], resolved="call")
            if is_builtin(name):
                return A.Apply(loc=expr.loc, name=name, args=[], resolved="builtin")
            raise ResolutionError(f"undefined identifier {name!r}", expr.loc)
        if kind is A.Apply:
            expr.args = [rw(a, symtab, program, siblings) for a in expr.args]
            name = expr.name
            if symtab.is_variable(name):
                expr.resolved = "index"
                self._bind_end_refs(name, expr.args)
            elif self._find_function(name, program, siblings):
                expr.resolved = "call"
                self._check_no_colon(expr)
            elif is_builtin(name):
                expr.resolved = "builtin"
                sig = get_sig(name)
                assert sig is not None
                if not sig.accepts(len(expr.args)):
                    raise ResolutionError(
                        f"builtin {name!r} does not accept {len(expr.args)} "
                        "argument(s)", expr.loc)
                self._check_no_colon(expr)
            else:
                raise ResolutionError(
                    f"undefined function or variable {name!r}", expr.loc)
            return expr
        if kind is A.BinOp:
            expr.lhs = rw(expr.lhs, symtab, program, siblings)
            expr.rhs = rw(expr.rhs, symtab, program, siblings)
            return expr
        if kind is A.UnaryOp or kind is A.Transpose:
            expr.operand = rw(expr.operand, symtab, program, siblings)
            return expr
        if kind is A.Range:
            expr.start = rw(expr.start, symtab, program, siblings)
            expr.stop = rw(expr.stop, symtab, program, siblings)
            if expr.step is not None:
                expr.step = rw(expr.step, symtab, program, siblings)
            return expr
        if kind is A.MatrixLit:
            expr.rows = [[rw(e, symtab, program, siblings) for e in row]
                         for row in expr.rows]
            return expr
        raise ResolutionError(f"cannot resolve node {kind.__name__}",
                              expr.loc)

    def _check_no_colon(self, call: A.Apply) -> None:
        for arg in call.args:
            if type(arg) is A.Colon:
                raise ResolutionError(
                    f"':' subscript passed to function {call.name!r}", call.loc)

    # ------------------------------------------------------------------ #
    # `end` binding
    # ------------------------------------------------------------------ #

    def _bind_end_refs(self, var: str, args: list[A.Expr]) -> None:
        nargs = len(args)
        for axis, arg in enumerate(args):
            for node in A.walk(arg):
                if type(node) is A.EndRef and not node.var:
                    node.var = var
                    node.axis = axis
                    node.nargs = nargs

    # ------------------------------------------------------------------ #
    # user functions
    # ------------------------------------------------------------------ #

    def _find_function(self, name: str, program: ResolvedProgram,
                       siblings: dict[str, A.FunctionDef]) -> bool:
        if name in program.functions or name in self._in_progress:
            return True
        func = siblings.get(name)
        file_funcs: list[A.FunctionDef] | None = None
        if func is None:
            file_funcs = self.provider.lookup(name)
            if file_funcs is None:
                return False
            by_name = {f.name: f for f in file_funcs}
            func = by_name.get(name, file_funcs[0])
        self._resolve_function(func, program,
                               {f.name: f for f in (file_funcs or [])})
        return True

    def _resolve_function(self, func: A.FunctionDef, program: ResolvedProgram,
                          siblings: dict[str, A.FunctionDef]) -> None:
        if func.name in program.functions or func.name in self._in_progress:
            return
        self._in_progress.add(func.name)
        try:
            symtab = SymbolTable(func.name)
            for param in func.params:
                symtab.define(param, "param")
            for ret in func.returns:
                symtab.define(ret, "retval")
            self._collect_assigned(func.body, symtab)
            unit = ResolvedUnit(func.name, func, symtab)
            program.functions[func.name] = unit
            self._resolve_body(func.body, symtab, program, siblings)
        finally:
            self._in_progress.discard(func.name)


def resolve_program(script: A.Script,
                    provider: MFileProvider | None = None,
                    predefined: set[str] | None = None) -> ResolvedProgram:
    """Run pass 2 on a parsed script.

    ``predefined`` names resolve as variables even without an assignment
    in the script — used by the REPL, whose workspace persists across
    inputs.
    """
    try:
        return Resolver(provider, predefined).resolve(script)
    except RecursionError:
        raise ResolutionError(NESTED_TOO_DEEPLY) from None
