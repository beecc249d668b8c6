"""Pass 3 — type, rank, and shape inference.

Runs on the SSA annotation layer: every SSA value receives a
:class:`VarType` (base type x rank x shape) and, when statically evident, a
compile-time constant.  The static inference mechanism extracts information
from constants, operators, builtin signatures, user-function bodies
(interprocedurally, to a fixpoint), and sample data files for ``load`` —
the same sources the paper lists.

The analysis is a forward dataflow problem on a finite-height lattice.
Each unit is swept in reverse postorder, phis before events, until a sweep
changes nothing; function calls accumulate, per callee, the join of the
argument types seen at every call site, and the *set of units* is iterated
to a global fixpoint.  A definition is *replaced* by what its inputs
currently imply (not joined with its old type), so precision improves as
constants become known; that is not monotone, so the sweep order is part of
the semantics and is kept fixed.

The sweeps are change-driven.  Every evaluation of a phi or event records
what it read — SSA values' types and constants, a callee's return types —
and every change of one of those marks the phis and events whose last
evaluation read it as dirty (so does a change an evaluation makes to
something it read itself: an indexed read joins every version, its own
definition included).  A sweep walks the unit's precomputed
reverse-postorder list of (phi or event, transfer function) pairs and
evaluates only the dirty ones: a clean one would compute the same outputs
from the same inputs (and join the same argument types into the callee's
parameter table, which changes nothing).  These are exactly the
evaluations, in the same order, of a sweep that visited every phi and
event and evaluated those with an input changed since their last
evaluation began; the sweep that confirms a fixpoint, and a global round
over an unchanged unit, evaluate nothing.  Events dispatch once, when the
list is built: each event class and statement class has its own transfer
function.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import NESTED_TOO_DEEPLY, InferenceError
from ..ewops import CONSTANTS, OPS
from ..frontend import ast_nodes as A
from .builtin_sigs import get_sig
from .cfg import CondEvent, LoopIndexEvent, StmtEvent
from .datafile import infer_load_type
from .lattice import (
    BOTTOM,
    BaseType,
    Rank,
    SCALAR_SHAPE,
    Shape,
    UNKNOWN,
    UNKNOWN_SHAPE,
    VarType,
    matrix,
    scalar,
)
from .resolve import ResolvedProgram, ResolvedUnit
from .ssa import Phi, SSAInfo, SSAValue, build_ssa


def _same_const(a: object, b: object) -> bool:
    """Equality of two compile-time constants under which NaN — a real one,
    or either part of a complex one — equals itself: a fixpoint test that
    used ``!=`` would see ``x = nan`` change on every sweep."""
    if a == b:
        return True
    if isinstance(a, (float, complex)) and isinstance(b, (float, complex)):
        a, b = complex(a), complex(b)
        return all(x == y or (x != x and y != y)
                   for x, y in ((a.real, b.real), (a.imag, b.imag)))
    return False


def _all_same_const(consts: list[object]) -> bool:
    """Do all of ``consts`` (at least one) hold one known constant?"""
    return bool(consts) and all(
        c is not None and _same_const(c, consts[0]) for c in consts)


#: a matrix-valued constant holds at most this many elements: it exists
#: for control data (a shift, a size vector), which is replicated
MATRIX_CONST_MAX = 16

_NUMBERS = (int, float, complex)


def _matrix_const(cells: Optional[list[list]], shape: Shape) -> object:
    """The value of an all-constant matrix literal as a tuple of row
    tuples (hashable, and ``==`` compares it, so the phi join and
    ``_same_const`` take it as they take a number), or ``None``: an
    element that is not a known number — a NaN is not, ``nan != nan``
    would never reach a fixpoint — ragged rows (their shape is not
    static), or too many elements."""
    numel = shape.numel()
    if not cells or numel is None or not 0 < numel <= MATRIX_CONST_MAX:
        return None
    return tuple([tuple(row) for row in cells])


def _num_type(value: float) -> VarType:
    base = BaseType.INTEGER if float(value).is_integer() else BaseType.REAL
    return scalar(base)


@dataclass
class UnitTypes:
    """Inference results for one program unit."""

    name: str
    ssa: SSAInfo
    types: dict[int, VarType] = field(default_factory=dict)  # vid -> type
    consts: dict[int, object] = field(default_factory=dict)  # vid -> value
    var_types: dict[str, VarType] = field(default_factory=dict)
    var_consts: dict[str, object] = field(default_factory=dict)
    # id(expr node) -> inferred type of that (sub)expression, for codegen
    expr_types: dict[int, VarType] = field(default_factory=dict)

    def type_of_value(self, value: SSAValue) -> VarType:
        return self.types.get(value.vid, BOTTOM)

    def type_of_use(self, node: A.Node) -> VarType:
        value = self.ssa.use_of.get(id(node))
        if value is None:
            return UNKNOWN
        return self.type_of_value(value)


@dataclass
class ProgramTypes:
    """Inference results for the whole program."""

    script: UnitTypes
    functions: dict[str, UnitTypes] = field(default_factory=dict)
    # per-function: parameter types (join over call sites) and return types
    param_types: dict[str, list[VarType]] = field(default_factory=dict)
    return_types: dict[str, list[VarType]] = field(default_factory=dict)
    #: each ``load`` target the program was typed from -> the
    #: :func:`~repro.datastore.data_digest` of the data read
    loads: dict[str, str] = field(default_factory=dict)

    def unit(self, name: str) -> UnitTypes:
        if name == self.script.name:
            return self.script
        return self.functions[name]

    def all_units(self) -> list[UnitTypes]:
        return [self.script, *self.functions.values()]


class InferenceEngine:
    def __init__(self, program: ResolvedProgram):
        self.program = program
        self.result: ProgramTypes | None = None
        self._unit_types: dict[str, UnitTypes] = {}
        # accumulated call-site argument types per function
        self._param_types: dict[str, list[VarType]] = {}
        self._param_consts: dict[str, list[object]] = {}
        self._return_types: dict[str, list[VarType]] = {}
        self._changed = False
        #: load target -> (type, digest) of its sample, read once
        self._loads: dict[str, tuple[VarType, str]] = {}
        # Change-driven sweeps (module docstring).  All of it lives here,
        # not on UnitTypes, which cached programs retain.  An input is an
        # SSA value or a callee's return-type list, keyed by id(); a phi
        # or event is its slot, an index into the per-slot lists.
        #: unit name -> its sweep: (slot, phi or event, transfer function)
        self._order: dict[str, list[tuple[int, object, Callable]]] = {}
        self._dirty: list[bool] = []        # slot -> evaluate next visit
        self._evaluated: list[bool] = []    # slot -> evaluated before
        #: input -> slots that read it.  What a phi or event reads is fixed
        #: by SSA — the values its uses name, the versions an indexed read
        #: joins, the callee's return list — not by the types it finds, so
        #: its first evaluation registers it as their reader for good.
        self._readers: defaultdict[int, set[int]] = defaultdict(set)
        self._epoch = 0
        #: input -> epoch of its last change
        self._stamp: defaultdict[int, int] = defaultdict(int)
        self._reads: list[int] = []     # inputs of the evaluation in progress

    # ------------------------------------------------------------------ #
    # driver
    # ------------------------------------------------------------------ #

    def run(self) -> ProgramTypes:
        script_unit = self.program.script
        self._unit_types[script_unit.name] = self._make_unit_types(script_unit)
        for name, unit in self.program.functions.items():
            self._unit_types[name] = self._make_unit_types(unit)
            func = unit.node
            self._param_types.setdefault(name, [BOTTOM] * len(func.params))
            self._param_consts.setdefault(name, [None] * len(func.params))
            self._return_types.setdefault(name, [BOTTOM] * max(len(func.returns), 1))

        # global fixpoint over all units
        for _round in range(64):
            self._changed = False
            for unit in [script_unit, *self.program.functions.values()]:
                self._infer_unit(unit)
            if not self._changed:
                break
        else:  # pragma: no cover - lattice height bounds iterations
            raise InferenceError("type inference did not converge")

        self._finalize()
        result = ProgramTypes(
            script=self._unit_types[script_unit.name],
            functions={n: self._unit_types[n]
                       for n in self.program.functions},
            param_types=dict(self._param_types),
            return_types=dict(self._return_types),
            loads={name: digest
                   for name, (_t, digest) in self._loads.items()},
        )
        self.result = result
        return result

    def _make_unit_types(self, unit: ResolvedUnit) -> UnitTypes:
        params: list[str] = []
        if type(unit.node) is A.FunctionDef:
            params = unit.node.params
        ssa = build_ssa(unit.body, params)
        nodes: list = []
        for block_id in ssa.dom.rpo:
            nodes += ssa.phis.get(block_id, ())
            nodes += ssa.cfg.blocks[block_id].events
        first = len(self._dirty)
        transfer = self._TRANSFER
        self._order[unit.name] = [
            (first + k, node, transfer[
                type(node.stmt) if type(node) is StmtEvent else type(node)])
            for k, node in enumerate(nodes)]
        self._dirty += [True] * len(nodes)
        self._evaluated += [False] * len(nodes)
        return UnitTypes(unit.name, ssa)

    def _finalize(self) -> None:
        """Fold per-version types into per-variable types in the symtabs."""
        for unit in [self.program.script, *self.program.functions.values()]:
            ut = self._unit_types[unit.name]
            per_var: dict[str, VarType] = {}
            per_var_consts: dict[str, list[object]] = {}
            for value in ut.ssa.values:
                vtype = ut.types.get(value.vid, BOTTOM)
                if vtype == BOTTOM:
                    continue  # never-defined entry versions
                per_var[value.var] = per_var.get(value.var, BOTTOM).join(vtype)
                per_var_consts.setdefault(value.var, []).append(
                    ut.consts.get(value.vid))
            for name, vtype in per_var.items():
                # Rank unknown means "could be scalar or matrix"; storage
                # must assume matrix (the general case).
                if vtype.rank is Rank.UNKNOWN:
                    vtype = VarType(vtype.base, Rank.MATRIX, vtype.shape)
                if vtype.base in (BaseType.BOTTOM, BaseType.UNKNOWN):
                    vtype = VarType(BaseType.REAL, vtype.rank, vtype.shape)
                ut.var_types[name] = vtype
                consts = per_var_consts.get(name, [])
                if _all_same_const(consts):
                    ut.var_consts[name] = consts[0]
                sym = unit.symtab.lookup(name)
                if sym is not None:
                    sym.vtype = vtype
                    sym.const = ut.var_consts.get(name)

    # ------------------------------------------------------------------ #
    # per-unit local fixpoint
    # ------------------------------------------------------------------ #

    def _infer_unit(self, unit: ResolvedUnit) -> None:
        ut = self._unit_types[unit.name]
        ssa = ut.ssa

        # seed parameter types
        if type(unit.node) is A.FunctionDef:
            ptypes = self._param_types[unit.name]
            pconsts = self._param_consts[unit.name]
            for i, pname in enumerate(unit.node.params):
                value = ssa.param_values.get(pname)
                if value is not None:
                    self._set_type(ut, value, ptypes[i])
                    if pconsts[i] is not None and value.vid not in ut.consts:
                        ut.consts[value.vid] = pconsts[i]
                        self._touch(value)

        for _round in range(64):
            before = self._changed
            self._changed = False
            self._one_pass(unit, ut)
            local_changed = self._changed
            self._changed = before or local_changed
            if not local_changed:
                break
        else:  # pragma: no cover
            raise InferenceError(f"inference diverged in unit {unit.name!r}")

        # publish this function's return types
        if type(unit.node) is A.FunctionDef:
            rets = self._return_types[unit.name]
            for i, rname in enumerate(unit.node.returns):
                joined = BOTTOM
                for value in ssa.versions_of(rname):
                    joined = joined.join(ut.types.get(value.vid, BOTTOM))
                if joined != rets[i]:
                    rets[i] = rets[i].join(joined)
                    self._changed = True
                    self._touch(rets)

    def _one_pass(self, unit: ResolvedUnit, ut: UnitTypes) -> None:
        """One sweep: evaluate the dirty phis and events, in order."""
        dirty = self._dirty
        stamp = self._stamp
        readers = self._readers
        evaluated = self._evaluated
        for slot, node, infer in self._order[unit.name]:
            if not dirty[slot]:
                continue
            self._reads = reads = []
            began = self._epoch
            infer(self, unit, ut, node)
            # dirty again only if it changed an input of its own (what it
            # read earlier, or later, in this very evaluation)
            again = False
            if self._epoch != began:
                for key in reads:
                    if stamp[key] > began:
                        again = True
                        break
            dirty[slot] = again
            if not evaluated[slot]:
                evaluated[slot] = True
                for key in reads:
                    readers[key] |= {slot}

    def _touch(self, changed) -> None:
        """Note a change of an input — an SSA value's type or constant, or
        a function's return types — and mark its readers dirty."""
        key = id(changed)
        self._epoch += 1
        self._stamp[key] = self._epoch
        dirty = self._dirty
        for slot in self._readers[key]:
            dirty[slot] = True

    def _read(self, ut: UnitTypes, value: SSAValue) -> VarType:
        """The type of ``value``, noted as an input (with its constant) of
        the evaluation in progress."""
        self._reads.append(id(value))
        return ut.types.get(value.vid, BOTTOM)

    def _infer_phi(self, unit: ResolvedUnit, ut: UnitTypes, phi) -> None:
        joined = BOTTOM
        const_candidates: list[object] = []
        for value in phi.args.values():
            t = self._read(ut, value)
            joined = joined.join(t)
            if t != BOTTOM:
                const_candidates.append(ut.consts.get(value.vid))
        self._set_type(ut, phi.result, joined)
        self._set_const(ut, phi.result, const_candidates[0]
                        if _all_same_const(const_candidates) else None)

    def _set_type(self, ut: UnitTypes, value: SSAValue, vtype: VarType) -> None:
        """Replace-at-def semantics: each pass recomputes every definition
        from its current inputs (phis join their arguments explicitly).
        This lets precision *improve* as constants become known — a join
        here would lock in the pessimistic first-pass answer."""
        old = ut.types.get(value.vid, BOTTOM)
        if vtype != old:
            ut.types[value.vid] = vtype
            self._changed = True
            self._touch(value)

    def _set_const(self, ut: UnitTypes, value: SSAValue, const: object) -> None:
        old = ut.consts.get(value.vid)
        if const is None:
            if value.vid in ut.consts:
                del ut.consts[value.vid]
                self._changed = True
                self._touch(value)
        elif old is None or not _same_const(old, const):
            ut.consts[value.vid] = const
            self._changed = True
            self._touch(value)

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #

    def _infer_cond(self, unit: ResolvedUnit, ut: UnitTypes,
                    event: CondEvent) -> None:
        self._type_expr(unit, ut, event.expr)

    def _infer_loop_index(self, unit: ResolvedUnit, ut: UnitTypes,
                          event: LoopIndexEvent) -> None:
        it_type, _ = self._type_expr(unit, ut, event.stmt.iterable)
        defs = ut.ssa.defs_of.get(id(event))
        if defs:
            self._set_type(ut, defs[0], self._loop_var_type(it_type))

    def _infer_assign(self, unit: ResolvedUnit, ut: UnitTypes,
                      event: StmtEvent) -> None:
        stmt = event.stmt
        rhs_type, rhs_const = self._type_expr(unit, ut, stmt.value)
        defs = ut.ssa.defs_of.get(id(event))
        if not defs:
            return
        self._set_type(ut, defs[0], self._stored_type(
            unit, ut, event, stmt.target, rhs_type))
        if type(stmt.target) is A.NameLValue:
            self._set_const(ut, defs[0], rhs_const)

    def _infer_multi_assign(self, unit: ResolvedUnit, ut: UnitTypes,
                            event: StmtEvent) -> None:
        stmt = event.stmt
        out_types = self._call_types(
            stmt.call,
            [self._type_expr(unit, ut, a) for a in stmt.call.args],
            nargout=len(stmt.targets))
        for i, value in enumerate(ut.ssa.defs_of.get(id(event), ())):
            produced = out_types[i] if i < len(out_types) else UNKNOWN
            self._set_type(ut, value, self._stored_type(
                unit, ut, event, stmt.targets[i], produced))

    def _infer_expr_stmt(self, unit: ResolvedUnit, ut: UnitTypes,
                         event: StmtEvent) -> None:
        etype, econst = self._type_expr(unit, ut, event.stmt.value)
        defs = ut.ssa.defs_of.get(id(event))
        if defs:  # the implicit `ans`
            self._set_type(ut, defs[0], etype)
            self._set_const(ut, defs[0], econst)

    def _infer_global(self, unit: ResolvedUnit, ut: UnitTypes,
                      event: StmtEvent) -> None:
        for value in ut.ssa.defs_of.get(id(event), ()):
            self._set_type(ut, value, UNKNOWN)

    #: the transfer function of a phi, of each event class and, for a
    #: simple statement's event, of each statement class (plain
    #: functions: bound methods in the sweep lists would make every
    #: engine a reference cycle, left to the cyclic collector)
    _TRANSFER: dict[type, Callable] = {
        Phi: _infer_phi,
        CondEvent: _infer_cond,
        LoopIndexEvent: _infer_loop_index,
        A.Assign: _infer_assign,
        A.MultiAssign: _infer_multi_assign,
        A.ExprStmt: _infer_expr_stmt,
        A.Global: _infer_global,
    }

    def _stored_type(self, unit: ResolvedUnit, ut: UnitTypes, event,
                     target: A.LValue, rhs_type: VarType) -> VarType:
        """Type of ``target``'s variable once ``rhs_type`` is assigned to
        it: an indexed target is a read-modify-write of the old version."""
        if type(target) is A.NameLValue:
            return rhs_type
        arg_info = [self._type_expr(unit, ut, a) for a in target.args]
        old = ut.ssa.implicit_use_of.get((id(event), target.name))
        old_type = self._read(ut, old) if old else BOTTOM
        return self._indexed_assign_type(old_type, rhs_type, target.args,
                                         arg_info)

    @staticmethod
    def _loop_var_type(it_type: VarType) -> VarType:
        """Type of a for-loop variable: one column of the iterable."""
        if it_type.is_scalar:
            return it_type
        base = it_type.base
        if base in (BaseType.BOTTOM, BaseType.UNKNOWN):
            base = BaseType.REAL
        if it_type.shape.rows == 1:
            return scalar(base)  # iterating a row vector yields scalars
        if it_type.shape.rows is not None:
            shape = Shape(it_type.shape.rows, 1)
            if shape == SCALAR_SHAPE:
                return scalar(base)
            return VarType(base, Rank.MATRIX, shape)
        return VarType(base, Rank.UNKNOWN, UNKNOWN_SHAPE)

    @staticmethod
    def _indexed_assign_type(old: VarType, rhs: VarType,
                             args: list[A.Expr],
                             arg_info: list[tuple[VarType, object]]) -> VarType:
        """Effect of ``a(i, j) = rhs`` on a's type.

        MATLAB may grow the array, so the static shape survives only when
        the subscripts provably stay within it; otherwise the dimensions
        degrade to run-time-tracked (None).
        """
        base = old.base.join(rhs.base)
        if base in (BaseType.BOTTOM,):
            base = rhs.base
        dims: list[Optional[int]] = [old.shape.rows, old.shape.cols]
        if old == BOTTOM:
            dims = [None, None]
        if len(args) == 2:
            for axis, (arg, (atype, aconst)) in enumerate(zip(args, arg_info)):
                if type(arg) is A.Colon:
                    continue  # ':' cannot grow the dimension
                if type(arg) is A.EndRef:
                    continue  # a(end) stays in bounds
                if (aconst is not None and isinstance(aconst, (int, float))
                        and dims[axis] is not None
                        and 1 <= aconst <= dims[axis]):
                    continue  # constant in-bounds subscript
                dims[axis] = None
        else:
            dims = [None, None] if old == BOTTOM else dims
            if not (len(args) == 1
                    and (type(args[0]) is A.Colon or type(args[0]) is A.EndRef)):
                # linear indexed store may grow a vector
                arg, (atype, aconst) = args[0], arg_info[0]
                in_bounds = (
                    aconst is not None and isinstance(aconst, (int, float))
                    and old.shape.numel() is not None
                    and 1 <= aconst <= old.shape.numel()  # type: ignore[operator]
                )
                if not in_bounds:
                    dims = [dims[0], None] if dims[0] == 1 else [None, dims[1]] \
                        if dims[1] == 1 else [None, None]
        shape = Shape(dims[0], dims[1])
        rank = Rank.MATRIX if not (shape == SCALAR_SHAPE) else Rank.SCALAR
        if old.rank is Rank.SCALAR and shape == SCALAR_SHAPE:
            rank = Rank.SCALAR
        return VarType(base, rank, shape)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #

    def _type_expr(self, unit: ResolvedUnit, ut: UnitTypes,
                   expr: A.Expr) -> tuple[VarType, object]:
        """Return (type, constant-or-None) and record into expr_types."""
        vtype, const = self._type_expr_inner(unit, ut, expr)
        ut.expr_types[id(expr)] = vtype
        return vtype, const

    def _type_expr_inner(self, unit: ResolvedUnit, ut: UnitTypes,
                         expr: A.Expr) -> tuple[VarType, object]:
        kind = type(expr)   # node classes are leaves: identity, not isinstance
        if kind is A.Num:
            return _num_type(expr.value), expr.value
        if kind is A.ImagNum:
            return scalar(BaseType.COMPLEX), complex(0.0, expr.value)
        if kind is A.Str:
            return VarType(BaseType.LITERAL, Rank.MATRIX,
                           Shape(1, len(expr.value))), expr.value
        if kind is A.Ident:
            value = ut.ssa.use_of.get(id(expr))
            if value is None:
                return UNKNOWN, None
            return self._read(ut, value), ut.consts.get(value.vid)
        if kind is A.EndRef:
            value = ut.ssa.use_of.get(id(expr))
            vtype = self._read(ut, value) if value else BOTTOM
            const = self._end_const(expr, vtype)
            return scalar(BaseType.INTEGER), const
        if kind is A.Colon:
            return scalar(BaseType.INTEGER), None
        if kind is A.UnaryOp:
            otype, oconst = self._type_expr(unit, ut, expr.operand)
            if expr.op == "~":
                return VarType(BaseType.INTEGER, otype.rank, otype.shape), None
            const = None
            if oconst is not None and isinstance(oconst, (int, float, complex)):
                const = -oconst if expr.op == "-" else +oconst
            return otype, const
        if kind is A.Transpose:
            otype, _ = self._type_expr(unit, ut, expr.operand)
            return VarType(otype.base, otype.rank,
                           otype.shape.transposed()), None
        if kind is A.Range:
            return self._range_type(unit, ut, expr)
        if kind is A.MatrixLit:
            return self._matrix_lit_type(unit, ut, expr)
        if kind is A.BinOp:
            return self._binop_type(unit, ut, expr)
        if kind is A.Apply:
            if expr.resolved == "index":
                return self._index_type(unit, ut, expr)
            # typed once, for the result type and the folded constant:
            # nested calls stay linear in their depth
            arg_results = [self._type_expr(unit, ut, a) for a in expr.args]
            types = self._call_types(expr, arg_results, nargout=1)
            return types[0], self._call_const(expr, arg_results)
        raise InferenceError(f"cannot type node {type(expr).__name__}",
                             expr.loc)

    def _end_const(self, ref: A.EndRef, vtype: VarType) -> Optional[float]:
        shape = vtype.shape
        if ref.nargs <= 1:
            n = shape.numel()
            return float(n) if n is not None else None
        dim = shape.rows if ref.axis == 0 else shape.cols
        return float(dim) if dim is not None else None

    def _range_type(self, unit: ResolvedUnit, ut: UnitTypes,
                    expr: A.Range) -> tuple[VarType, object]:
        st, sc = self._type_expr(unit, ut, expr.start)
        et, ec = self._type_expr(unit, ut, expr.stop)
        step_const: object = 1.0
        step_base = BaseType.INTEGER
        if expr.step is not None:
            pt, pc = self._type_expr(unit, ut, expr.step)
            step_const = pc
            step_base = pt.base
        base = st.base.join(et.base).join(step_base)
        if not base.is_numeric:
            base = BaseType.REAL
        length: Optional[int] = None
        if (isinstance(sc, (int, float)) and isinstance(ec, (int, float))
                and isinstance(step_const, (int, float)) and step_const != 0):
            raw = int((float(ec) - float(sc)) / float(step_const) + 1e-10) + 1
            length = max(raw, 0)
        shape = Shape(1, length)
        if length == 1:
            return scalar(base), sc if length == 1 else None
        return VarType(base, Rank.MATRIX, shape), None

    def _matrix_lit_type(self, unit: ResolvedUnit, ut: UnitTypes,
                         expr: A.MatrixLit) -> tuple[VarType, object]:
        if not expr.rows:
            return VarType(BaseType.REAL, Rank.MATRIX, Shape(0, 0)), None
        base = BaseType.BOTTOM
        row_heights: list[Optional[int]] = []
        width: Optional[int] = 0
        width_known = True
        # the literal's value while every element is a known number: one
        # list of constants per row, None once any element is not
        cells: Optional[list[list]] = []
        for row in expr.rows:
            row_width: Optional[int] = 0
            height: Optional[int] = 1
            if cells is not None:
                cells.append([])
            for element in row:
                etype, econst = self._type_expr(unit, ut, element)
                base = base.join(etype.base)
                if cells is not None:
                    if etype.is_scalar and econst.__class__ in _NUMBERS \
                            and econst == econst:
                        cells[-1].append(econst)
                    else:
                        cells = None
                if etype.is_scalar:
                    if row_width is not None:
                        row_width += 1
                else:
                    if etype.shape.cols is not None and row_width is not None:
                        row_width += etype.shape.cols
                    else:
                        row_width = None
                    height = etype.shape.rows if etype.shape.rows is not None \
                        else None
            row_heights.append(height)
            if row_width is None:
                width_known = False
            elif width_known:
                width = row_width if width == 0 or width == row_width else None
                if width is None:
                    width_known = False
        rows_total: Optional[int] = 0
        for h in row_heights:
            if h is None or rows_total is None:
                rows_total = None
            else:
                rows_total += h
        shape = Shape(rows_total, width if width_known else None)
        if not base.is_numeric and base is not BaseType.LITERAL:
            base = BaseType.REAL if base is BaseType.BOTTOM else BaseType.UNKNOWN
        if shape == SCALAR_SHAPE and len(expr.rows) == 1 and len(expr.rows[0]) == 1:
            return VarType(base, Rank.SCALAR, SCALAR_SHAPE), None
        return VarType(base, Rank.MATRIX, shape), _matrix_const(cells, shape)

    # -- operators --------------------------------------------------------

    def _binop_type(self, unit: ResolvedUnit, ut: UnitTypes,
                    expr: A.BinOp) -> tuple[VarType, object]:
        lt, lc = self._type_expr(unit, ut, expr.lhs)
        rt, rc = self._type_expr(unit, ut, expr.rhs)
        op = expr.op
        const = _fold_binop(op, lc, rc)
        return binop_result_type(op, lt, rt, expr.loc), const

    def _index_type(self, unit: ResolvedUnit, ut: UnitTypes,
                    expr: A.Apply) -> tuple[VarType, object]:
        # The Apply node's name has no Ident node of its own, so use the
        # join of the variable's versions (per-version tracking of the
        # indexing subject is not required for correctness).
        joined = BOTTOM
        for v in ut.ssa.versions_of(expr.name):
            joined = joined.join(self._read(ut, v))
        base_type = joined if joined != BOTTOM else UNKNOWN
        arg_info = [self._type_expr(unit, ut, a) for a in expr.args]
        base = base_type.base
        if base in (BaseType.BOTTOM,):
            base = BaseType.UNKNOWN
        extents: list[Optional[int]] = []
        for axis, (arg, (atype, aconst)) in enumerate(zip(expr.args, arg_info)):
            if type(arg) is A.Colon:
                if len(expr.args) == 1:
                    n = base_type.shape.numel()
                    extents.append(n)
                else:
                    dim = base_type.shape.rows if axis == 0 \
                        else base_type.shape.cols
                    extents.append(dim)
            elif atype.is_scalar:
                extents.append(1)
            else:
                extents.append(atype.shape.numel())
        if len(expr.args) == 1:
            ext = extents[0]
            arg = expr.args[0]
            atype = arg_info[0][0]
            if ext == 1:
                return VarType(base, Rank.SCALAR, SCALAR_SHAPE), None
            if type(arg) is A.Colon:
                return VarType(base, Rank.MATRIX, Shape(ext, 1)), None
            if atype.is_matrix:
                # result takes the subscript's orientation
                return VarType(base, Rank.MATRIX, atype.shape), None
            return VarType(base, Rank.UNKNOWN, UNKNOWN_SHAPE), None
        rows, cols = extents[0], extents[1]
        if rows == 1 and cols == 1:
            return VarType(base, Rank.SCALAR, SCALAR_SHAPE), None
        return VarType(base, Rank.MATRIX, Shape(rows, cols)), None

    # -- calls --------------------------------------------------------------

    def _call_types(self, call: A.Apply,
                    arg_results: list[tuple[VarType, object]],
                    nargout: int) -> list[VarType]:
        """Result types of a call whose arguments typed to
        ``arg_results`` (one ``_type_expr`` result each)."""
        arg_types = [r[0] for r in arg_results]
        arg_consts = [r[1] for r in arg_results]
        if call.resolved == "builtin" and any(t == BOTTOM for t in arg_types):
            return [BOTTOM] * max(nargout, 1)  # optimistic: refine later
        if call.resolved == "builtin":
            sig = get_sig(call.name)
            assert sig is not None
            if call.name == "load":
                vtype = infer_load_type(call, arg_consts,
                                        self.program.provider, self._loads)
                return [vtype]
            out = sig.rule(arg_types, arg_consts)
            if isinstance(out, tuple):
                if nargout <= 1:
                    return [out[0]]
                return list(out[1:1 + nargout]) if call.name == "size" \
                    else list(out[:nargout])
            return [out] * max(nargout, 1)
        if call.resolved == "call":
            return self._user_call_types(call, arg_types, arg_consts, nargout)
        raise InferenceError(f"unresolved call {call.name!r}", call.loc)

    def _user_call_types(self, call: A.Apply, arg_types: list[VarType],
                         arg_consts: list[object],
                         nargout: int) -> list[VarType]:
        name = call.name
        if name not in self.program.functions:
            return [UNKNOWN] * max(nargout, 1)
        params = self._param_types[name]
        pconsts = self._param_consts[name]
        for i in range(min(len(arg_types), len(params))):
            joined = params[i].join(arg_types[i])
            if joined != params[i]:
                params[i] = joined
                self._changed = True
            if (params[i] == arg_types[i] and arg_consts[i] is not None
                    and pconsts[i] is None      # conflicting constants: keep
                    # the first, types still join — which is why a matrix
                    # constant, whose *value* pass 6 uses, stops here
                    and arg_consts[i].__class__ is not tuple):
                pconsts[i] = arg_consts[i]
                self._changed = True
        # Joining the same arguments in again changes neither table, so the
        # one interprocedural input of the calling event is what the callee
        # returns.
        rets = self._return_types[name]
        self._reads.append(id(rets))
        return [rets[i] if i < len(rets) else BOTTOM
                for i in range(max(nargout, 1))]

    def _call_const(self, call: A.Apply,
                    arg_results: list[tuple[VarType, object]]) -> object:
        if call.resolved != "builtin":
            return None
        if call.name in CONSTANTS and not call.args:
            return CONSTANTS[call.name][0]
        row = OPS.get(f"fn:{call.name}")
        if row is not None and row.arity == 1 == len(call.args):
            const = arg_results[0][1]
            if isinstance(const, (int, float)):
                # the very kernel the run time calls, so the fold has
                # its bits; numpy is imported here, at the first fold
                import numpy as np
                with np.errstate(all="ignore"):
                    result = row.kernel(float(const))
                if np.iscomplexobj(result):
                    return complex(result)  # e.g. sqrt of a negative
                return float(result)
        return None


# --------------------------------------------------------------------------
# operator typing rules (shared with the IR lowering pass)
# --------------------------------------------------------------------------


def binop_result_type(op: str, lt: VarType, rt: VarType, loc=None) -> VarType:
    """Result type of a MATLAB binary operator application."""
    # Optimistic BOTTOM propagation: an operand with no information yet
    # (e.g. a recursive call's return before its first fixpoint round)
    # yields no information, to be refined on the next pass.
    if lt == BOTTOM or rt == BOTTOM:
        return BOTTOM
    base = lt.base.join(rt.base)
    if not base.is_numeric:
        base = BaseType.UNKNOWN if base is BaseType.UNKNOWN else BaseType.REAL

    def shaped(shape: Shape, forced_base: Optional[BaseType] = None) -> VarType:
        b = forced_base if forced_base is not None else base
        if shape == SCALAR_SHAPE:
            return VarType(b, Rank.SCALAR, SCALAR_SHAPE)
        rank = Rank.MATRIX if shape != UNKNOWN_SHAPE else Rank.UNKNOWN
        if lt.is_matrix or rt.is_matrix:
            rank = Rank.MATRIX
        return VarType(b, rank, shape)

    if op in ("==", "~=", "<", ">", "<=", ">=", "&", "|"):
        shape = _broadcast_shape(lt, rt, loc)
        return shaped(shape, BaseType.INTEGER)
    if op in ("&&", "||"):
        return scalar(BaseType.INTEGER)
    if op in ("+", "-", ".*", "./", ".\\", ".^"):
        if op in ("./", ".\\", ".^") and base is BaseType.INTEGER:
            base = BaseType.REAL
        shape = _broadcast_shape(lt, rt, loc)
        return shaped(shape)
    if op == "*":
        if lt.is_scalar and rt.is_scalar:
            return shaped(SCALAR_SHAPE)
        if lt.is_scalar:
            return shaped(rt.shape)
        if rt.is_scalar:
            return shaped(lt.shape)
        if lt.rank is Rank.UNKNOWN or rt.rank is Rank.UNKNOWN:
            return shaped(UNKNOWN_SHAPE)
        if (lt.shape.cols is not None and rt.shape.rows is not None
                and lt.shape.cols != rt.shape.rows):
            raise InferenceError(
                f"inner matrix dimensions must agree "
                f"({lt.shape} * {rt.shape})", loc)
        return shaped(Shape(lt.shape.rows, rt.shape.cols))
    if op == "/":
        if base is BaseType.INTEGER:
            base = BaseType.REAL
        if rt.is_scalar:
            return shaped(lt.shape if not lt.is_scalar else SCALAR_SHAPE)
        if lt.is_scalar and rt.is_scalar:
            return shaped(SCALAR_SHAPE)
        # X = A / B solves X*B = A: X is (rows(A), rows(B))
        return shaped(Shape(lt.shape.rows, rt.shape.rows))
    if op == "\\":
        if base is BaseType.INTEGER:
            base = BaseType.REAL
        if lt.is_scalar:
            return shaped(rt.shape if not rt.is_scalar else SCALAR_SHAPE)
        # X = A \ B solves A*X = B: X is (cols(A), cols(B))
        return shaped(Shape(lt.shape.cols, rt.shape.cols))
    if op == "^":
        if lt.is_scalar and rt.is_scalar:
            if base is BaseType.INTEGER:
                base = BaseType.REAL
            return shaped(SCALAR_SHAPE)
        if lt.is_matrix:
            return shaped(lt.shape)  # matrix power: square
        return shaped(UNKNOWN_SHAPE)
    raise InferenceError(f"unknown operator {op!r}", loc)


def _broadcast_shape(lt: VarType, rt: VarType, loc=None) -> Shape:
    if lt.is_scalar and rt.is_scalar:
        return SCALAR_SHAPE
    if lt.is_scalar:
        return rt.shape
    if rt.is_scalar:
        return lt.shape
    if (lt.shape.is_static and rt.shape.is_static
            and lt.shape != rt.shape):
        raise InferenceError(
            f"matrix dimensions must agree ({lt.shape} vs {rt.shape})", loc)
    return lt.shape.join(rt.shape) if lt.shape == rt.shape else Shape(
        lt.shape.rows if lt.shape.rows is not None else rt.shape.rows,
        lt.shape.cols if lt.shape.cols is not None else rt.shape.cols,
    )


def _fold_binop(op: str, lc: object, rc: object) -> object:
    if lc is None or rc is None:    # the common case, without a call
        return None
    if not isinstance(lc, (int, float, complex)) or \
            not isinstance(rc, (int, float, complex)):
        return None
    try:
        if op == "+":
            return lc + rc
        if op == "-":
            return lc - rc
        if op in ("*", ".*"):
            return lc * rc
        if op in ("/", "./"):
            return lc / rc
        if op in ("\\", ".\\"):
            return rc / lc
        if op in ("^", ".^"):
            return lc ** rc
    except (ZeroDivisionError, OverflowError, ValueError):
        return None
    return None


def infer_types(program: ResolvedProgram) -> ProgramTypes:
    """Run pass 3 over a resolved program."""
    try:
        return InferenceEngine(program).run()
    except RecursionError:
        raise InferenceError(NESTED_TOO_DEEPLY) from None
