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
from ..ewops import TAP

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
    count = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.__class__ is EwNode:
            count += not node.scalar
            stack += node.args
    return count


def ew_operands(expr: EwExpr) -> list[Operand]:
    """The leaves of a tree, left to right."""
    if expr.__class__ is not EwNode:
        return [expr]
    out: list[Operand] = []
    for arg in expr.args:
        if arg.__class__ is EwNode:
            out += ew_operands(arg)
        else:
            out += (arg,)
    return out


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


#: the ``blocks`` of every kind that nests none
_NO_BLOCKS = IRStmt.blocks


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
class EwGroup(IRStmt):
    """A run of adjacent elementwise statements over one shape (pass 6's
    ``ew_group``, after LICM): one owner-computes loop with an output
    per member.  ``members`` are :class:`Elementwise` statements and
    two-argument ``builtin:min``/``builtin:max`` calls, in order; each
    is still emitted — charged, traced and allocated — as its own
    statement, so the group itself assigns and reads nothing: its one
    nested block is the members, which answer for themselves."""

    members: list[IRStmt] = field(default_factory=list)
    #: per member, when its value needs an array (pass 6's ``lean``):
    #: :data:`LIVE` always, :data:`LAST` on a loop's last iteration
    #: only, :data:`DEAD` never — ``None``: every member, always
    live: Optional[tuple[int, ...]] = None
    #: in a loop whose body is this group (pass 6's ``loop_group``), per
    #: :data:`LIVE` member in order, ``(operand, member)``: the index in
    #: :func:`group_spec`'s operand list of the value the member's
    #: output replaces on the next iteration — ``None``: not such a loop
    carry: Optional[tuple[tuple[int, int], ...]] = None

    def __repr__(self) -> str:
        return f"group[{len(self.members)}]"

    def blocks(self):
        return (self.members,)


#: a group member's :attr:`EwGroup.live` entries
DEAD, LAST, LIVE = 0, 1, 2

#: a group member's builtin -> the elementwise op it applies
GROUP_BUILTINS = {"builtin:min": "fn:minimum", "builtin:max": "fn:maximum"}


def tap_shift(stmt) -> Optional[tuple[int, Optional[int]]]:
    """The shift of a ``circshift`` by a constant a group may take as a
    *halo tap* (pass 6's ``halo``): ``(kr, kc)`` of an immediate
    ``[kr kc]``, ``(k, None)`` of a scalar ``k`` — or ``None``.  Only a
    shift the run time would take qualifies (whole numbers), so a
    refusal keeps its time and place."""
    if not (stmt.__class__ is RTCall and stmt.op == "builtin:circshift"
            and len(stmt.args) == 2 and stmt.nargout == 1
            and not stmt.extra_dests and stmt.dest is not None):
        return None
    src, shift = stmt.args
    if src.__class__ is not Var and src.__class__ is not Temp:
        return None
    if shift.__class__ is list:        # an immediate [kr kc]
        values = [complex(cell.value) for row in shift for cell in row]
    elif shift.__class__ is Const:
        values = [complex(shift.value)]
    else:
        return None
    for v in values:
        if v.imag != 0 or v.real % 1 != 0:
            return None
    return (int(values[0].real),
            int(values[1].real) if len(values) == 2 else None)


def group_spec(group: EwGroup) -> tuple[list[tuple], list[Operand]]:
    """Each member of a group as ``(spec, reads, slots, fresh)``, and
    the group's operand list.

    ``spec, reads`` is the member's own :func:`ew_spec`; ``slots`` says
    where each of its ``"@N"`` operands comes from: an ``int``, the
    index of a group operand (a value from before the group), or
    ``"#K"``, the value member ``K`` computed (the latest earlier member
    that assigns it).  A group kernel's spec (:mod:`repro.ewops`) is the
    tuple of the members' ``(spec, slots)``.  ``fresh`` says that no
    member reads the value the member's destination holds before the
    group — the member assigns it first, and no member before it reads
    it.  A halo tap's spec is ``("tap", "@0", kr, kc)`` (its
    :func:`tap_shift`) over the one group operand it rotates."""
    operands: list[Operand] = []
    #: a variable's name or a temporary's number (a reads list holds
    #: only those, and the keys hash without a frame) -> its slot
    index: dict[object, object] = {}
    members = []
    k = 0
    for stmt in group.members:
        if stmt.__class__ is Elementwise:
            spec, reads = ew_spec(stmt.expr)
        elif stmt.op in GROUP_BUILTINS:
            spec, reads = ew_spec(EwNode(GROUP_BUILTINS[stmt.op],
                                         tuple(stmt.args)))
        else:
            spec, reads = (TAP, "@0", *tap_shift(stmt)), stmt.args[:1]
        slots = []
        for op in reads:
            key = op.name if op.__class__ is Var else op.index
            if key in index:
                slots.append(index[key])
            else:
                index[key] = len(operands)
                slots.append(len(operands))
                operands.append(op)
        dest = stmt.dest
        key = dest.name if dest.__class__ is Var else dest.index
        members.append((spec, reads, tuple(slots), key not in index))
        index[key] = f"#{k}"
        k += 1
    return members, operands


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


def walk_blocks(body: list[IRStmt], skip: type | None = None):
    """Iterate every statement list of one unit: ``body`` and the blocks
    nested in it, a block before the blocks under it (for passes) —
    except the blocks of a ``skip`` statement (a pass that rewrites runs
    of statements leaves an :class:`EwGroup`'s members alone).  Only a
    kind that overrides :meth:`IRStmt.blocks` is asked for its blocks."""
    stack = [body]
    while stack:
        block = stack.pop()
        yield block
        for stmt in block:
            kind = stmt.__class__
            if kind.blocks is not _NO_BLOCKS and kind is not skip:
                stack += stmt.blocks()


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
