"""Tree-walking reference interpreter for the MATLAB subset.

Plays two roles in the reproduction:

1. the *correctness oracle* — compiled programs must produce the same
   numerical results and printed output;
2. the performance stand-in for The MathWorks interpreter (the paper's
   baseline), via the cost meter in :mod:`repro.interp.costmodel`.

It interprets *resolved* ASTs (pass 2 output) so that variable/function
disambiguation matches the compiler exactly; unresolved scripts are
resolved on the fly for convenience.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import NESTED_TOO_DEEPLY, MatlabRuntimeError
from ..frontend import ast_nodes as A
from ..frontend.mfile import EMPTY_PROVIDER, MFileProvider
from ..frontend.parser import parse_script
from .builtins import TABLE as BUILTINS
from .costmodel import NULL_METER
from .values import (
    COLON,
    Value,
    as_matrix,
    colon_range,
    display,
    index_assign,
    index_read,
    is_scalar,
    numel,
    shape_of,
    simplify,
    truthy,
)


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    pass


class Interpreter:
    """Execute a resolved program.

    Parameters
    ----------
    program:
        A :class:`~repro.analysis.resolve.ResolvedProgram`.
    out:
        Callable receiving output text (default: collect into ``self.output``).
    meter:
        Cost meter (see :mod:`repro.interp.costmodel`); defaults to a no-op.
    seed:
        Seed for the MATLAB ``rand``/``randn`` stream — fixed so the
        interpreter and compiled runs see identical data.
    """

    def __init__(self, program, out: Optional[Callable[[str], None]] = None,
                 meter=None, seed: int = 0, profiler=None):
        from ..analysis.resolve import ResolvedProgram  # cycle-free import

        assert isinstance(program, ResolvedProgram)
        self.program = program
        self.provider: MFileProvider = program.provider
        self.meter = meter if meter is not None else NULL_METER
        self.output: list[str] = []
        self._out = out if out is not None else self.output.append
        self.workspace: dict[str, Value] = {}
        self.globals: dict[str, Value] = {}
        self._frame_globals: list[set[str]] = [set()]
        self.saved: dict[str, object] = {}
        self._seed = seed
        self.rng = np.random.default_rng(seed)
        self.tic_time = 0.0
        self.profiler = profiler

    # ------------------------------------------------------------------ #

    def write(self, text: str) -> None:
        self._out(text)

    def reseed(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def run(self) -> dict[str, Value]:
        """Execute the script; returns the final workspace."""
        self._frame_globals = [set()]
        try:
            self._exec_body(self.program.script.body, self.workspace,
                            global_names=self._frame_globals[-1])
        except RecursionError:
            raise MatlabRuntimeError(
                "maximum recursion depth exceeded (unbounded function "
                f"recursion, or a {NESTED_TOO_DEEPLY})") from None
        return self.workspace

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _exec_body(self, body: list[A.Stmt], env: dict[str, Value],
                   global_names: set[str]) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env, global_names)

    def _exec_stmt(self, stmt: A.Stmt, env: dict[str, Value],
                   global_names: set[str]) -> None:
        if self.profiler is not None:
            # Exclusive attribution: a compound statement (loop, if) is
            # charged its own dispatch/condition cost only — nested
            # statements recorded during its body are subtracted — so
            # per-line times sum exactly to the meter total.
            start = self.meter.time
            nested_before = self.profiler.total_time()
            try:
                self._exec_stmt_inner(stmt, env, global_names)
            finally:
                nested = self.profiler.total_time() - nested_before
                dt = self.meter.time - start - nested
                self.profiler.record(stmt.loc.filename, stmt.loc.line, dt)
            return
        self._exec_stmt_inner(stmt, env, global_names)

    def _exec_stmt_inner(self, stmt: A.Stmt, env: dict[str, Value],
                         global_names: set[str]) -> None:
        self.meter.charge_stmt()
        if isinstance(stmt, A.Assign):
            value = self._eval(stmt.value, env)
            if value is None:
                raise MatlabRuntimeError(
                    "cannot assign the result of a void function")
            self._store(stmt.target, value, env, global_names)
            if stmt.display:
                self.write(display(stmt.target.name,
                                   self._load(stmt.target.name, env,
                                              global_names)))
        elif isinstance(stmt, A.MultiAssign):
            results = self._eval_call(stmt.call, env,
                                      nargout=len(stmt.targets))
            if not isinstance(results, tuple):
                results = (results,)
            if len(results) < len(stmt.targets):
                raise MatlabRuntimeError(
                    f"{stmt.call.name}: too few output arguments")
            for target, value in zip(stmt.targets, results):
                self._store(target, value, env, global_names)
            if stmt.display:
                for target in stmt.targets:
                    self.write(display(target.name,
                                       self._load(target.name, env,
                                                  global_names)))
        elif isinstance(stmt, A.ExprStmt):
            value = self._eval(stmt.value, env)
            if value is not None:
                env["ans"] = value
                if stmt.display:
                    self.write(display("ans", value))
        elif isinstance(stmt, A.If):
            for cond, branch in stmt.branches:
                if truthy(self._eval_strict(cond, env)):
                    self._exec_body(branch, env, global_names)
                    return
            self._exec_body(stmt.orelse, env, global_names)
        elif isinstance(stmt, A.While):
            while truthy(self._eval_strict(stmt.cond, env)):
                try:
                    self._exec_body(stmt.body, env, global_names)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, A.For):
            self._exec_for(stmt, env, global_names)
        elif isinstance(stmt, A.Switch):
            self._exec_switch(stmt, env, global_names)
        elif isinstance(stmt, A.Break):
            raise _Break()
        elif isinstance(stmt, A.Continue):
            raise _Continue()
        elif isinstance(stmt, A.Return):
            raise _Return()
        elif isinstance(stmt, A.Global):
            for name in stmt.names:
                global_names.add(name)
                if name not in self.globals:
                    self.globals[name] = np.zeros((0, 0))
        else:
            raise MatlabRuntimeError(
                f"cannot execute {type(stmt).__name__}")

    def _exec_for(self, stmt: A.For, env: dict[str, Value],
                  global_names: set[str]) -> None:
        iterable = self._eval_strict(stmt.iterable, env)
        if isinstance(iterable, str):
            raise MatlabRuntimeError("for: cannot iterate a string")
        arr = as_matrix(iterable)
        if arr.shape[0] == 1:
            columns = (simplify(arr[0, c]) for c in range(arr.shape[1]))
        else:
            columns = (simplify(arr[:, c:c + 1]) for c in range(arr.shape[1]))
        for column in columns:
            env[stmt.var] = column
            try:
                self._exec_body(stmt.body, env, global_names)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_switch(self, stmt: A.Switch, env: dict[str, Value],
                     global_names: set[str]) -> None:
        subject = self._eval_strict(stmt.subject, env)
        for values, branch in stmt.cases:
            for candidate in values:
                if self._switch_match(subject,
                                      self._eval_strict(candidate, env)):
                    self._exec_body(branch, env, global_names)
                    return
        self._exec_body(stmt.otherwise, env, global_names)

    @staticmethod
    def _switch_match(subject: Value, candidate: Value) -> bool:
        if isinstance(subject, str) or isinstance(candidate, str):
            return isinstance(subject, str) and isinstance(candidate, str) \
                and subject == candidate
        return bool(np.all(as_matrix(subject) == as_matrix(candidate)))

    # ------------------------------------------------------------------ #
    # variable access
    # ------------------------------------------------------------------ #

    def _load(self, name: str, env: dict[str, Value],
              global_names: set[str]) -> Value:
        if name in global_names:
            return self.globals[name]
        if name not in env:
            raise MatlabRuntimeError(f"undefined variable {name!r}")
        return env[name]

    def _store(self, target: A.LValue, value: Value, env: dict[str, Value],
               global_names: set[str]) -> None:
        store = self.globals if target.name in global_names else env
        if isinstance(target, A.NameLValue):
            store[target.name] = value
            return
        assert isinstance(target, A.IndexLValue)
        subs = [self._eval_subscript(arg, env) for arg in target.args]
        old = store.get(target.name)
        if old is not None:
            self.meter.charge_copy(numel(old))
        self.meter.charge_index()
        store[target.name] = index_assign(old, subs, value)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #

    def _eval_strict(self, expr: A.Expr, env: dict[str, Value]) -> Value:
        value = self._eval(expr, env)
        if value is None:
            raise MatlabRuntimeError("expression produced no value")
        return value

    def _eval(self, expr: A.Expr, env: dict[str, Value]) -> Optional[Value]:
        if isinstance(expr, A.Num):
            return float(expr.value)
        if isinstance(expr, A.ImagNum):
            return complex(0.0, expr.value)
        if isinstance(expr, A.Str):
            return expr.value
        if isinstance(expr, A.Ident):
            return self._load(expr.name, env, self._globals_in(env))
        if isinstance(expr, A.EndRef):
            return self._eval_end(expr, env)
        if isinstance(expr, A.UnaryOp):
            return self._eval_unary(expr, env)
        if isinstance(expr, A.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, A.Transpose):
            operand = as_matrix(self._eval_strict(expr.operand, env))
            self.meter.charge_copy(operand.size)
            result = operand.conj().T if expr.conjugate else operand.T
            return simplify(np.ascontiguousarray(result))
        if isinstance(expr, A.Range):
            return self._eval_range(expr, env)
        if isinstance(expr, A.MatrixLit):
            return self._eval_matrix_lit(expr, env)
        if isinstance(expr, A.Apply):
            return self._eval_apply(expr, env)
        if isinstance(expr, A.Colon):
            raise MatlabRuntimeError("':' is only valid inside a subscript")
        raise MatlabRuntimeError(f"cannot evaluate {type(expr).__name__}")

    def _globals_in(self, env: dict[str, Value]) -> set[str]:
        """Names declared global in the *current* call frame."""
        return self._frame_globals[-1]

    def _eval_end(self, expr: A.EndRef, env: dict[str, Value]) -> float:
        value = self._load(expr.var, env, self._globals_in(env))
        r, c = shape_of(value)
        if expr.nargs <= 1:
            return float(r * c)
        return float(r if expr.axis == 0 else c)

    def _eval_unary(self, expr: A.UnaryOp, env: dict[str, Value]) -> Value:
        operand = self._eval_strict(expr.operand, env)
        arr = as_matrix(operand)
        self.meter.charge_elementwise(arr.size)
        if expr.op == "-":
            return simplify(-arr)
        if expr.op == "+":
            return simplify(+arr)
        if expr.op == "~":
            return simplify((arr == 0).astype(float))
        raise MatlabRuntimeError(f"unknown unary operator {expr.op!r}")

    def _eval_range(self, expr: A.Range, env: dict[str, Value]) -> Value:
        start = float(as_matrix(
            self._eval_strict(expr.start, env)).reshape(-1)[0].real)
        stop = float(as_matrix(
            self._eval_strict(expr.stop, env)).reshape(-1)[0].real)
        step = 1.0
        if expr.step is not None:
            step = float(as_matrix(
                self._eval_strict(expr.step, env)).reshape(-1)[0].real)
        result = colon_range(start, step, stop)
        self.meter.charge_alloc(result.size)
        return simplify(result)

    def _eval_matrix_lit(self, expr: A.MatrixLit,
                         env: dict[str, Value]) -> Value:
        if not expr.rows:
            return np.zeros((0, 0))
        row_blocks = []
        for row in expr.rows:
            cells = [as_matrix(self._eval_strict(e, env)) for e in row]
            heights = {c.shape[0] for c in cells if c.size}
            if len(heights) > 1:
                raise MatlabRuntimeError(
                    "matrix literal: inconsistent row heights")
            cells = [c for c in cells if c.size] or [np.zeros((0, 0))]
            row_blocks.append(np.hstack(cells))
        widths = {b.shape[1] for b in row_blocks if b.size}
        if len(widths) > 1:
            raise MatlabRuntimeError("matrix literal: inconsistent widths")
        blocks = [b for b in row_blocks if b.size]
        if not blocks:
            return np.zeros((0, 0))
        result = np.vstack(blocks)
        self.meter.charge_alloc(result.size)
        return simplify(result)

    # ------------------------------------------------------------------ #
    # operators
    # ------------------------------------------------------------------ #

    def _eval_binop(self, expr: A.BinOp, env: dict[str, Value]) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            lhs = truthy(self._eval_strict(expr.lhs, env))
            if op == "&&":
                if not lhs:
                    return 0.0
                return 1.0 if truthy(self._eval_strict(expr.rhs, env)) else 0.0
            if lhs:
                return 1.0
            return 1.0 if truthy(self._eval_strict(expr.rhs, env)) else 0.0
        lhs = self._eval_strict(expr.lhs, env)
        rhs = self._eval_strict(expr.rhs, env)
        return apply_binop(op, lhs, rhs, self.meter)

    # ------------------------------------------------------------------ #
    # calls and indexing
    # ------------------------------------------------------------------ #

    def _eval_subscript(self, arg: A.Expr, env: dict[str, Value]):
        if isinstance(arg, A.Colon):
            return COLON
        return self._eval_strict(arg, env)

    def _eval_apply(self, expr: A.Apply,
                    env: dict[str, Value]) -> Optional[Value]:
        if expr.resolved == "index":
            subject = self._load(expr.name, env, self._globals_in(env))
            subs = [self._eval_subscript(a, env) for a in expr.args]
            self.meter.charge_index()
            return index_read(subject, subs)
        return self._eval_call(expr, env, nargout=1)

    def _eval_call(self, call: A.Apply, env: dict[str, Value],
                   nargout: int) -> Optional[Value]:
        args = [self._eval_strict(a, env) for a in call.args]
        if call.resolved == "builtin":
            impl = BUILTINS.get(call.name)
            if impl is None:
                raise MatlabRuntimeError(
                    f"builtin {call.name!r} is not implemented")
            return impl(self, args, nargout)
        if call.resolved == "call":
            return self._call_function(call.name, args, nargout, call)
        raise MatlabRuntimeError(f"unresolved call to {call.name!r}")

    def _call_function(self, name: str, args: list[Value], nargout: int,
                       call: A.Apply) -> Optional[Value]:
        unit = self.program.functions.get(name)
        if unit is None:
            raise MatlabRuntimeError(f"undefined function {name!r}")
        func = unit.node
        assert isinstance(func, A.FunctionDef)
        if len(args) > len(func.params):
            raise MatlabRuntimeError(f"{name}: too many input arguments")
        local: dict[str, Value] = {}
        for param, value in zip(func.params, args):
            local[param] = value
        self.meter.charge_stmt()  # call overhead
        self._frame_globals.append(set())
        try:
            self._exec_body(func.body, local,
                            global_names=self._frame_globals[-1])
        except _Return:
            pass
        finally:
            self._frame_globals.pop()
        outs: list[Value] = []
        for i, ret in enumerate(func.returns[:max(nargout, 1)]):
            if ret not in local:
                if i == 0 and nargout <= 1:
                    raise MatlabRuntimeError(
                        f"{name}: output argument {ret!r} not assigned")
                break
            outs.append(local[ret])
        if not func.returns:
            return None
        if nargout <= 1:
            return outs[0] if outs else None
        return tuple(outs)


# --------------------------------------------------------------------------
# operator semantics (shared with the run-time library's local kernels)
# --------------------------------------------------------------------------


def apply_binop(op: str, lhs: Value, rhs: Value, meter=NULL_METER) -> Value:
    """Apply a MATLAB binary operator to two values."""
    a, b = as_matrix(lhs), as_matrix(rhs)

    def check_shapes() -> int:
        if a.size != 1 and b.size != 1 and a.shape != b.shape:
            raise MatlabRuntimeError(
                f"matrix dimensions must agree ({a.shape} vs {b.shape})")
        return max(a.size, b.size)

    if op == "+":
        meter.charge_elementwise(check_shapes())
        return simplify(a + b)
    if op == "-":
        meter.charge_elementwise(check_shapes())
        return simplify(a - b)
    if op == ".*":
        meter.charge_elementwise(check_shapes())
        return simplify(a * b)
    if op == "./":
        meter.charge_elementwise(check_shapes())
        with np.errstate(divide="ignore", invalid="ignore"):
            return simplify(a / b)
    if op == ".\\":
        meter.charge_elementwise(check_shapes())
        with np.errstate(divide="ignore", invalid="ignore"):
            return simplify(b / a)
    if op == ".^":
        meter.charge_elementwise(check_shapes(), 3)
        base = a
        if not np.iscomplexobj(a) and not np.iscomplexobj(b):
            if np.any((a < 0) & (np.asarray(b) != np.floor(b))):
                base = a.astype(complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return simplify(base ** b)
    if op == "*":
        if a.size == 1 or b.size == 1:
            meter.charge_elementwise(max(a.size, b.size))
            return simplify(a * b)
        if a.shape[1] != b.shape[0]:
            raise MatlabRuntimeError(
                f"inner matrix dimensions must agree "
                f"({a.shape} * {b.shape})")
        meter.charge_flops(2 * a.shape[0] * a.shape[1] * b.shape[1])
        return simplify(a @ b)
    if op == "/":
        if b.size == 1:
            meter.charge_elementwise(a.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                return simplify(a / b)
        if a.size == 1 and b.size == 1:
            return simplify(a / b)
        # X = A/B  <=>  X B = A  <=>  B' X' = A'
        meter.charge_flops(2 * b.shape[0] ** 3 // 3
                           + 2 * b.shape[0] ** 2 * a.shape[0])
        xt = _solve(b.conj().T if np.iscomplexobj(b) else b.T,
                    a.conj().T if np.iscomplexobj(a) else a.T)
        return simplify(xt.conj().T if np.iscomplexobj(xt) else xt.T)
    if op == "\\":
        if a.size == 1:
            meter.charge_elementwise(b.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                return simplify(b / a)
        meter.charge_flops(2 * a.shape[0] ** 3 // 3
                           + 2 * a.shape[0] ** 2 * b.shape[1])
        return simplify(_solve(a, b))
    if op == "^":
        if a.size == 1 and b.size == 1:
            meter.charge_elementwise(1, 3)
            av = simplify(a)
            bv = simplify(b)
            if (isinstance(av, float) and isinstance(bv, float)
                    and av < 0 and bv != int(bv)):
                av = complex(av)
            return simplify(np.asarray(av ** bv).reshape(1, 1))
        if b.size == 1:
            power = float(np.real(b.reshape(-1)[0]))
            if power != int(power) or power < 0:
                raise MatlabRuntimeError(
                    "matrix powers must be nonnegative integers")
            if a.shape[0] != a.shape[1]:
                raise MatlabRuntimeError("matrix power: matrix must be square")
            n = a.shape[0]
            k = int(power)
            meter.charge_flops(2 * n ** 3 * max(k - 1, 0))
            return simplify(np.linalg.matrix_power(a, k))
        raise MatlabRuntimeError("unsupported '^' operand ranks")
    if op in ("==", "~=", "<", ">", "<=", ">="):
        meter.charge_elementwise(check_shapes())
        table = {
            "==": np.equal, "~=": np.not_equal,
            "<": np.less, ">": np.greater,
            "<=": np.less_equal, ">=": np.greater_equal,
        }
        return simplify(table[op](a.real if np.iscomplexobj(a) else a,
                                  b.real if np.iscomplexobj(b) else b)
                        .astype(float))
    if op == "&":
        meter.charge_elementwise(check_shapes())
        return simplify(((a != 0) & (b != 0)).astype(float))
    if op == "|":
        meter.charge_elementwise(check_shapes())
        return simplify(((a != 0) | (b != 0)).astype(float))
    raise MatlabRuntimeError(f"unknown operator {op!r}")


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[0] == A.shape[1]:
        try:
            return np.linalg.solve(A, B)
        except np.linalg.LinAlgError:
            pass
    result, *_ = np.linalg.lstsq(A, B, rcond=None)
    return result


def run_source(source: str, provider: MFileProvider | None = None,
               meter=None, seed: int = 0) -> Interpreter:
    """Parse, resolve, and execute a script; returns the interpreter."""
    from ..analysis.resolve import resolve_program

    program = resolve_program(parse_script(source),
                              provider or EMPTY_PROVIDER)
    interp = Interpreter(program, meter=meter, seed=seed)
    interp.run()
    return interp
