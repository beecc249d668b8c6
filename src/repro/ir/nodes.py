"""Statement-level intermediate representation (output of pass 4).

Pass 4 ("expression rewriting") hoists every subexpression that may
involve interprocessor communication to the statement level, where it
becomes a run-time-library call (:class:`RTCall`).  What remains of each
statement is a purely elementwise expression tree (:class:`Elementwise`) —
the paper's generated ``for`` loop over each processor's local elements.

Control flow stays structured (:class:`IRIf`/:class:`IRFor`/:class:`IRWhile`)
so both backends can emit natural code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..analysis.lattice import UNKNOWN, VarType
from ..errors import CodegenError

# --------------------------------------------------------------------------
# operands
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Operand:
    pass


@dataclass(frozen=True)
class Var(Operand):
    """A user variable."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Temp(Operand):
    """A compiler temporary (the paper's ``ML_tmp<k>``)."""

    index: int

    @property
    def name(self) -> str:
        return f"ML_tmp{self.index}"

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Operand):
    """A numeric constant (complex for imaginary literals)."""

    value: complex

    def __repr__(self) -> str:
        v = self.value
        if isinstance(v, complex) and v.imag == 0:
            v = v.real
        return repr(v)


@dataclass(frozen=True)
class StrConst(Operand):
    value: str

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColonSub(Operand):
    """A ':' whole-dimension subscript."""

    def __repr__(self) -> str:
        return ":"


# --------------------------------------------------------------------------
# elementwise expression trees
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EwNode:
    """Interior node of a fused elementwise tree.

    ``op`` is a MATLAB operator (``+``, ``.*``, ``<=``, ...), a unary op
    (``u-``, ``u+``, ``u~``), a short-circuit op (``&&``/``||``, scalar
    context only), or an elementwise builtin (``fn:sqrt``).
    """

    op: str
    args: tuple["EwExpr", ...]
    #: result of this node is a replicated scalar: it contributes no
    #: per-element work to the fused loop (any real compiler hoists
    #: loop-invariant scalar subexpressions out of the loop)
    scalar: bool = False

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.op}({inner})"


EwExpr = Union[EwNode, Operand]


def ew_op_count(expr: EwExpr) -> int:
    """Number of *per-element* arithmetic operations in a fused tree (for
    the cost model's fused-loop charge).  Scalar-result subtrees are
    loop-invariant and count as zero."""
    if isinstance(expr, EwNode):
        own = 0 if expr.scalar else 1
        return own + sum(ew_op_count(a) for a in expr.args)
    return 0


def ew_operands(expr: EwExpr) -> list[Operand]:
    if isinstance(expr, EwNode):
        out: list[Operand] = []
        for a in expr.args:
            out.extend(ew_operands(a))
        return out
    return [expr]


def ew_spec(expr: EwExpr) -> tuple[object, list[Operand]]:
    """A fused tree as a *spec* (``repro.ewops``) and its operand list.

    Interior nodes become ``(op, arg, ...)`` tuples, constants numeric
    literals (a float when the imaginary part is zero) and each distinct
    variable or temporary an ``"@N"`` slot, numbered in order of first
    use — the index of the operand in the returned list.
    """
    operands: list[Operand] = []
    slot_of: dict[Operand, str] = {}

    def walk(node: EwExpr):
        if node.__class__ is EwNode:
            return (node.op, *[walk(a) for a in node.args])
        if node.__class__ is Const:
            value = node.value
            if isinstance(value, complex) and value.imag == 0:
                return float(value.real)
            return value
        if node.__class__ is StrConst:
            raise CodegenError("string in an elementwise expression")
        slot = slot_of.get(node)
        if slot is None:
            slot = slot_of[node] = f"@{len(operands)}"
            operands.append(node)
        return slot

    return walk(expr), operands


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------


@dataclass
class IRStmt:
    #: originating MATLAB source line (1-based; 0 = unknown), stamped by
    #: pass 4 from the AST locations and threaded through to the emitted
    #: code so the trace layer can attribute communication to statements.
    #: A plain class attribute, not a dataclass field: a defaulted field
    #: here would force defaults onto every subclass's leading fields.
    line = 0
    #: type of what the statement assigns (``None``: the kind carries none)
    vtype = None

    # What a pass may ask of any statement — the one answer per kind,
    # overridden next to the fields it reads.  Each returns a sequence
    # the caller must not mutate.

    def defs(self):
        """The operands this statement itself assigns (not its nested
        blocks'), once per assignment."""
        return ()

    def uses(self):
        """The operands this statement itself reads, constants and ``:``
        subscripts included."""
        return ()

    def blocks(self):
        """The statement lists nested under it, in execution order."""
        return ()


@dataclass
class RTCall(IRStmt):
    """``dest = ML_<op>(args...)`` — a run-time library call.

    ``op`` values: matmul, matmul_t (peephole-fused a' * b), dot, transpose,
    transpose_nc, solve_left, solve_right, matrix_power, broadcast_element,
    index_read, range, literal, dim, builtin:<name>, and pass 6's
    reduce2:<name> (``name(name(A))``) and reduce_batch:<name> (one
    scalar reduction per argument, into ``dest`` and ``extra_dests``).
    An argument is an operand or, for ``literal`` and for a builtin
    argument pass 6 made an immediate, a matrix as a list of rows of
    :class:`Const`.
    """

    dest: Optional[Operand]
    op: str
    args: list = field(default_factory=list)  # Operands / sub-lists for rows
    vtype: VarType = UNKNOWN
    nargout: int = 1
    extra_dests: list[Operand] = field(default_factory=list)

    def __repr__(self) -> str:
        lhs = f"{self.dest!r} = " if self.dest is not None else ""
        if self.extra_dests:
            outs = ", ".join(repr(d) for d in [self.dest, *self.extra_dests])
            lhs = f"[{outs}] = "
        return f"{lhs}ML_{self.op}({self.args!r})"

    def defs(self):
        outs = (self.dest, *self.extra_dests)
        return outs if self.dest is not None else outs[1:]

    def uses(self):
        flat = []
        for arg in self.args:
            if arg.__class__ is not list:
                flat.append(arg)
            elif arg and arg[0].__class__ is list:  # an immediate's rows
                for row in arg:
                    flat += row
            else:                                   # a row of a literal
                flat += arg
        return flat


@dataclass
class Elementwise(IRStmt):
    """``dest = <fused elementwise tree>`` — the owner-computes loop."""

    dest: Operand
    expr: EwExpr
    vtype: VarType = UNKNOWN

    def __repr__(self) -> str:
        return f"{self.dest!r} = ew {self.expr!r}"

    def defs(self):
        return (self.dest,)

    def uses(self):
        return ew_operands(self.expr)


@dataclass
class Copy(IRStmt):
    dest: Operand
    src: Operand
    vtype: VarType = UNKNOWN

    def __repr__(self) -> str:
        return f"{self.dest!r} = {self.src!r}"

    def defs(self):
        return (self.dest,)

    def uses(self):
        return (self.src,)


@dataclass
class SetElement(IRStmt):
    """Guarded scalar store (pass 5): only the owner executes the write."""

    var: Var
    subs: list[Operand]
    rhs: Operand
    guarded: bool = True

    def __repr__(self) -> str:
        subs = ", ".join(repr(s) for s in self.subs)
        return f"{self.var!r}({subs}) = {self.rhs!r} [guarded]"

    def defs(self):
        return (self.var,)

    def uses(self):     # a store keeps the elements it does not write
        return (*self.subs, self.rhs, self.var)


@dataclass
class IndexAssign(IRStmt):
    """General (possibly redistributing) indexed store."""

    var: Var
    subs: list[Operand]
    rhs: Operand

    def __repr__(self) -> str:
        subs = ", ".join(repr(s) for s in self.subs)
        return f"{self.var!r}({subs}) = {self.rhs!r}"

    def defs(self):
        return (self.var,)

    def uses(self):     # a store keeps the elements it does not write
        return (*self.subs, self.rhs, self.var)


@dataclass
class CallUser(IRStmt):
    """dests = <user function>(args) — functions are not inlined."""

    dests: list[Operand]
    func: str
    args: list[Operand] = field(default_factory=list)

    def __repr__(self) -> str:
        outs = ", ".join(repr(d) for d in self.dests)
        return f"[{outs}] = {self.func}({self.args!r})"

    def defs(self):
        return (*self.dests,)

    def uses(self):
        return (*self.args,)


@dataclass
class Display(IRStmt):
    """Unsuppressed statement output (``x = ...`` echo)."""

    name: str
    value: Operand

    def uses(self):
        return (self.value,)


@dataclass
class IRIf(IRStmt):
    """Structured if/elseif/else.  Each branch carries the statements that
    compute its condition (hoisted RT calls) plus the condition operand."""

    branches: list[tuple[list[IRStmt], Operand, list[IRStmt]]] = \
        field(default_factory=list)
    orelse: list[IRStmt] = field(default_factory=list)

    def uses(self):
        return [cond for _stmts, cond, _branch in self.branches]

    def blocks(self):
        nested = []
        for cond_stmts, _cond, branch in self.branches:
            nested += (cond_stmts, branch)
        nested.append(self.orelse)
        return nested


@dataclass
class IRFor(IRStmt):
    var: Var = None  # type: ignore[assignment]
    # Fast path: a range iterable (start, step, stop) of scalar operands.
    range_triple: Optional[tuple[Operand, Operand, Operand]] = None
    # General path: statements computing the iterable + its operand.
    iter_stmts: list[IRStmt] = field(default_factory=list)
    iter_operand: Optional[Operand] = None
    body: list[IRStmt] = field(default_factory=list)

    def defs(self):
        return (self.var,)

    def uses(self):
        if self.range_triple is not None:
            return self.range_triple
        return (self.iter_operand,)

    def blocks(self):
        return (self.iter_stmts, self.body)


@dataclass
class IRWhile(IRStmt):
    cond_stmts: list[IRStmt] = field(default_factory=list)
    cond: Operand = None  # type: ignore[assignment]
    body: list[IRStmt] = field(default_factory=list)

    def uses(self):
        return (self.cond,)

    def blocks(self):
        return (self.cond_stmts, self.body)


@dataclass
class IRBreak(IRStmt):
    pass


@dataclass
class IRContinue(IRStmt):
    pass


@dataclass
class IRReturn(IRStmt):
    pass


@dataclass
class IRGlobal(IRStmt):
    names: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# program units
# --------------------------------------------------------------------------


def walk_blocks(body: list[IRStmt]):
    """Iterate every statement list of one unit: ``body`` and the blocks
    nested in it, a block before the blocks under it (for passes)."""
    stack = [body]
    while stack:
        block = stack.pop()
        yield block
        for stmt in block:
            nested = stmt.blocks()
            if nested:
                stack += nested


def defs_under(body: list[IRStmt]) -> list[Operand]:
    """Every operand assigned by a statement of ``body`` or of a block
    nested in it, once per assignment."""
    return [dest for block in walk_blocks(body) for stmt in block
            for dest in stmt.defs()]


def read_under(body: list[IRStmt], operand: Operand) -> bool:
    """Does a statement of ``body``, or of a block nested in it, read
    ``operand``?"""
    return any(operand in stmt.uses()
               for block in walk_blocks(body) for stmt in block)


@dataclass
class IRFunction:
    name: str
    params: list[str] = field(default_factory=list)
    returns: list[str] = field(default_factory=list)
    body: list[IRStmt] = field(default_factory=list)
    var_types: dict[str, VarType] = field(default_factory=dict)
    #: pass 3's matrix-valued constants: variable -> tuple of row tuples,
    #: for a variable that holds that one literal wherever it is defined
    var_consts: dict[str, tuple] = field(default_factory=dict)


@dataclass
class IRProgram:
    script_name: str
    body: list[IRStmt] = field(default_factory=list)
    functions: dict[str, IRFunction] = field(default_factory=dict)
    var_types: dict[str, VarType] = field(default_factory=dict)
    var_consts: dict[str, tuple] = field(default_factory=dict)

    def units(self) -> list:
        """The program units — the functions, last first, then the
        script — as the script or :class:`IRFunction` itself: each
        answers ``body`` and ``var_consts``."""
        return [*reversed(self.functions.values()), self]

    def walk(self):
        """Iterate every statement list in the program (for passes)."""
        for unit in self.units():
            yield from walk_blocks(unit.body)
