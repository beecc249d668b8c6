"""Pass 6 — peephole optimization of run-time-call sequences.

"The sixth pass of the compiler performs peephole optimizations, looking
for ways in which a sequence of run-time library calls can be replaced by
a single call."  The rewrites are the rows of :data:`REWRITES`, the one
registry the plan (``Plan.fusion``), the tuner's ``fusion`` axis, the
CLI reports and :class:`PeepholeStats` all read:

``transpose_matmul``
    ``t = transpose(a); c = matmul(t, b)`` with ``t`` dead afterwards
    becomes ``c = matmul_t(a, b)``.  For the ubiquitous ``r' * r`` this
    turns two library calls (a transpose copy plus a product) into the
    single ML_dot the paper's run-time provides.
``cse``
    Local CSE of pure run-time calls — repeated ``ML_broadcast`` of the
    same element (or repeated ``dim`` queries) within a straight-line
    block reuse the first temporary instead of re-communicating.
``const_args``
    A builtin argument that is passed *by value* (:data:`BY_VALUE`:
    ``circshift``'s shift) and is a matrix pass 3 knows — a variable in
    the unit's ``var_consts``, or a literal of constants written in the
    call — becomes an immediate: small control data is replicated, never
    distributed and gathered back on every call.
``reduce2``
    ``t = op(A); d = op(t)`` for ``sum``/``prod``/``max``/``min``/``any``/
    ``all`` with ``t`` dead afterwards becomes ``d = reduce2:op(A)``:
    one allreduce of the column partials instead of that and a second,
    scalar one.
``batch_reduce``
    A run of adjacent, independent ``dest_j = op(arg_j)`` with one
    ``op`` of ``sum``/``mean``/``max``/``min``/``prod`` becomes one
    ``reduce_batch:op`` call: k partials, one k-element allreduce.
``ew_group``
    A maximal run of two or more adjacent elementwise statements —
    :class:`Elementwise` and two-argument ``min``/``max`` — whose
    results are matrices of one shape pass 3 knows becomes one
    :class:`EwGroup`: one native loop with an output per member, where
    a later member reads an earlier one's value from a register.  Every
    member is still emitted, charged, traced and allocated as its own
    statement, so the rewrite moves host time only, never the modeled
    clock.  It runs after pass 6b (``after_licm``): a group is never
    hoisted, and a ``min``/``max`` LICM would hoist must not hide in one.
``halo``
    A run that starts at a ``circshift`` by a constant (after
    ``const_args``) of an array of the run's shape is a group too, the
    shifts its *halo taps* (:func:`~repro.ir.nodes.tap_shift`): the
    kernel reads the shifted array's elements in place, and no rotated
    copy is made.  A tap's source is a value from before the group.
    The tap's statement is charged and traced as the ``circshift`` it
    is; where that would gather, the run time refuses the group.
``lean``
    In a group that is an unconditional statement of a range ``for``
    loop's body, a member whose destination no statement of the body
    reads gets an array on the last iteration only — only the last
    iteration's value is ever observed — and a temporary only the group
    reads, or a value a later member overwrites, none at all
    (:attr:`EwGroup.live <repro.ir.nodes.EwGroup.live>`).  Every member
    is still charged, traced and bound to a descriptor.
``loop_group``
    A range ``for`` loop whose body is one group ``lean`` marked and
    nothing else, whose loop variable no member reads or assigns, gets
    its group's *carried* values (:attr:`EwGroup.carry
    <repro.ir.nodes.EwGroup.carry>`): each :data:`LIVE` member's
    destination is a value the group reads from before it, so the next
    iteration reads what this one wrote, and every other operand is
    loop-invariant.  The run time may then compute the iterations
    before the last in one native call, replaying their charges
    (docs/NATIVE.md, "A loop of groups is one call").

``halo``, ``ew_group``, ``lean`` and ``loop_group`` move host time only
(``modeled`` false) and run after pass 6b.  A block is swept once —
after pass 6b a block after the blocks under it, so ``lean`` finds a
loop body's groups made: a statement's ``op`` (``"ew"`` for an
:class:`Elementwise`, ``"for"`` for an :class:`IRFor`) selects the
rewrites that start there (their ``ops`` column), tried in schedule
order until one replaces the statement — one that only marks it (it is
still in its place) lets the next row look at it too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..analysis.lattice import BaseType, Rank
from .nodes import (
    DEAD,
    GROUP_BUILTINS,
    LAST,
    LIVE,
    Const,
    Copy,
    Elementwise,
    EwGroup,
    EwNode,
    IRBreak,
    IRContinue,
    IRFor,
    IRProgram,
    IRReturn,
    IRStmt,
    RTCall,
    Temp,
    Var,
    group_spec,
    read_under,
    tap_shift,
    walk_blocks,
)


def _builtins(*names: str) -> tuple[str, ...]:
    return tuple(f"builtin:{name}" for name in names)


# -------------------------------------------------------------------------- #
# shared helpers
# -------------------------------------------------------------------------- #


def _replace(block: list, start: int, count: int, call: RTCall,
             line: int) -> int:
    """Put ``call`` where ``count`` statements were; the sweep goes on
    behind it."""
    call.line = line
    block[start:start + count] = [call]
    return start + 1


# -------------------------------------------------------------------------- #
# the rewrites: ``rewrite(block, i, unit)`` looks at the statement at
# ``i``, whose op is one of the row's ``ops``, and either leaves the
# block alone and returns -1 or rewrites it and returns the index the
# sweep continues from
# -------------------------------------------------------------------------- #


def _fuse_transpose_matmul(block: list, i: int, unit) -> int:
    if i + 1 == len(block):
        return -1
    first, second = block[i], block[i + 1]
    if not (first.dest.__class__ is Temp
            and second.__class__ is RTCall and second.op == "matmul"
            and second.args[0] == first.dest
            and second.args[1] != first.dest
            and not read_under(block[i + 2:], first.dest)):
        return -1
    return _replace(block, i, 2, RTCall(
        dest=second.dest,
        op="matmul_t" if first.op == "transpose" else "matmul_tnc",
        args=[first.args[0], second.args[1]],
        vtype=second.vtype,
        extra_dests=second.extra_dests), second.line)


def _local_cse(block: list, i: int, unit) -> int:
    """Reuse the nearest earlier identical call that no redefinition of
    a variable operand, and no control flow (strictly local), separates
    from this one."""
    stmt = block[i]
    if stmt.dest.__class__ is not Temp:
        return -1
    names = None
    for j in range(i - 1, -1, -1):
        prev = block[j]
        if prev.blocks():
            return -1
        if (prev.__class__ is RTCall and prev.op == stmt.op
                and prev.dest.__class__ is Temp and prev.args == stmt.args):
            copy = Copy(dest=stmt.dest, src=prev.dest, vtype=stmt.vtype)
            copy.line = stmt.line
            block[i] = copy
            return i + 1
        if names is None:
            names = {op.name for op in stmt.args if op.__class__ is Var}
        for dest in prev.defs():
            if dest.__class__ is Var and dest.name in names:
                return -1
    return -1


def _valid_shift(values: list) -> bool:
    """Would ``circshift`` take this constant?  One that it would refuse
    at run time — not two elements, not whole numbers — stays an
    ordinary argument, so the refusal keeps its time and place."""
    return len(values) == 2 and all(
        v.imag == 0 and v.real % 1 == 0 for v in map(complex, values))


#: builtin op -> the positions of the arguments the run-time library
#: also takes by value (a known matrix constant there is passed as an
#: immediate), each with the test of a constant's elements, row by row,
#: for one the library accepts in that position
BY_VALUE = {"builtin:circshift": {1: _valid_shift}}


def _const_args(block: list, i: int, unit) -> int:
    stmt = block[i]
    resume = -1
    for at, valid in BY_VALUE[stmt.op].items():
        arg = stmt.args[at]
        inline = False
        if arg.__class__ is Var:
            rows = unit.var_consts.get(arg.name)
            if rows is None:
                continue
            immediate = [[Const(complex(v)) for v in row] for row in rows]
        elif arg.__class__ is Temp and i and _is_literal(block[i - 1], arg) \
                and not read_under(block[i + 1:], arg):
            # written in the call: pass 4 put the literal right before it
            immediate = block[i - 1].args
            inline = True
        else:
            continue
        if not valid([cell.value for row in immediate for cell in row]):
            continue
        stmt.args[at] = immediate
        if inline:
            del block[i - 1]    # the call was the temporary's one reader
            i -= 1
        resume = i + 1
    return resume


def _is_literal(stmt, dest: Temp) -> bool:
    """Is ``stmt`` ``dest = [constants]``?"""
    return (stmt.__class__ is RTCall and stmt.op == "literal"
            and stmt.dest == dest
            and all(cell.__class__ is Const for row in stmt.args
                    for cell in row))


def _single(stmt) -> bool:
    """One input, one output: ``dest = op(arg)``."""
    return (stmt.__class__ is RTCall and stmt.nargout == 1
            and not stmt.extra_dests and len(stmt.args) == 1
            and stmt.dest is not None)


def _reduce2(block: list, i: int, unit) -> int:
    if i + 1 == len(block):
        return -1
    first, second = block[i], block[i + 1]
    if not (first.dest.__class__ is Temp and _single(first)
            and _single(second) and second.op == first.op
            and second.args[0] == first.dest
            and not read_under(block[i + 2:], first.dest)):
        return -1
    return _replace(block, i, 2, RTCall(
        dest=second.dest, op="reduce2:" + first.op[len("builtin:"):],
        args=[first.args[0]], vtype=second.vtype), second.line)


def _batch_reduce(block: list, i: int, unit) -> int:
    first = block[i]
    if not _scalar_reduction(first):
        return -1
    run = [first]
    dests = [first.dest]
    for stmt in block[i + 1:]:
        # (a matrix result is a column reduction, which ``reduce2`` may
        # want; an operand an earlier member assigns is not independent)
        if not (stmt.__class__ is RTCall and stmt.op == first.op
                and _scalar_reduction(stmt) and stmt.args[0] not in dests):
            break
        run.append(stmt)
        dests.append(stmt.dest)
    if len(run) < 2:
        return -1
    return _replace(block, i, len(run), RTCall(
        dest=first.dest, op="reduce_batch:" + first.op[len("builtin:"):],
        args=[stmt.args[0] for stmt in run], vtype=first.vtype,
        nargout=len(run), extra_dests=[stmt.dest for stmt in run[1:]]),
        first.line)


def _scalar_reduction(stmt) -> bool:
    return _single(stmt) and stmt.vtype.rank is not Rank.MATRIX


#: the element types a native loop computes in (a double per element)
_REAL = (BaseType.INTEGER, BaseType.REAL)


def _group_shape(stmt, taps: bool = False):
    """The shape a statement gives a group member, or ``None`` if it
    cannot be one: a matrix result of a static shape and a real type,
    from an elementwise tree or a two-argument ``min``/``max`` — or,
    with ``taps``, a ``circshift`` by a constant (a halo tap)."""
    if stmt.__class__ is Elementwise:
        if stmt.expr.__class__ is not EwNode:
            return None
    elif not (stmt.__class__ is RTCall and stmt.op in GROUP_BUILTINS
              and len(stmt.args) == 2 and stmt.nargout == 1
              and not stmt.extra_dests and stmt.dest is not None
              and all(a.__class__ is not list for a in stmt.args)) \
            and not (taps and tap_shift(stmt) is not None):
        return None
    vtype = stmt.vtype
    shape = vtype.shape
    if (vtype.rank is Rank.MATRIX and vtype.base in _REAL
            and shape.rows is not None and shape.cols is not None):
        return shape
    return None


def _ew_group(block: list, i: int, unit, taps: bool = False) -> int:
    """A maximal run of group members of one shape — with ``taps``
    (``halo``), one that starts at a ``circshift`` by a constant: its
    taps read an array from before the group (no member assigned it
    yet), and at least one member computes."""
    end, n = i + 1, len(block)
    if end == n:
        return -1
    if not taps:
        second = block[end]     # no second member: not worth a closer look
        if not (second.__class__ is Elementwise
                or second.__class__ is RTCall
                and second.op in GROUP_BUILTINS):
            return -1
    shape = _group_shape(block[i], taps)
    if shape is None:
        return -1
    assigned = {block[i].dest} if taps else None
    computes = not taps
    while end < n:
        stmt = block[end]
        other = _group_shape(stmt, taps)
        if other is None or (other.rows, other.cols) != (shape.rows,
                                                         shape.cols):
            break
        if taps:
            if stmt.__class__ is RTCall and stmt.op not in GROUP_BUILTINS:
                if stmt.args[0] in assigned:
                    break
            else:
                computes = True
            assigned.add(stmt.dest)
        end += 1
    if not computes or end - i < 2:
        return -1
    group = EwGroup(members=block[i:end])
    group.line = block[i].line
    block[i:end] = [group]
    return i + 1


#: what ends a loop's iteration early, or reads the whole workspace
_EXITS = (IRBreak, IRContinue, IRReturn)
_WORKSPACE = frozenset(_builtins("save", "load"))


def _lean(block: list, i: int, unit) -> int:
    """Mark the members of the groups of a ``for`` body whose values no
    later iteration reads: only the last iteration's are observed.

    A group qualifies as an unconditional statement of the body of a
    range loop with no ``break``, ``continue`` or ``return`` and no
    workspace I/O.  Its member is :data:`LIVE` when a statement of the
    body, or of a block nested in it (a group's members included),
    reads the destination — before the group (the next iteration sees
    it), after it, or as a group's value from before the group —
    and otherwise :data:`LAST`, or :data:`DEAD` for a temporary (no
    statement of another block reads one: pass 4's temporaries die
    with their statement).  A member whose destination a later member
    assigns again is :data:`DEAD` too."""
    loop = block[i]
    body = loop.body
    if loop.range_triple is None:
        return -1
    for top in body:
        if top.__class__ is EwGroup:
            break
    else:
        return -1
    #: what a statement of the body reads — a group, what it reads from
    #: before it — by a variable's name or a temporary's number (the
    #: keys hash without a frame)
    read = set()
    #: per group, its members' destinations, keyed as ``read`` is
    dests = {}
    for top in body:
        if top.__class__ is EwGroup:
            keys = dests[id(top)] = [
                stmt.dest.name if stmt.dest.__class__ is Var
                else stmt.dest.index for stmt in top.members]
            # the first member that assigns each: a member before it
            # reads the value from before the group
            first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
            for k, stmt in enumerate(top.members):
                read.update([
                    key for op in stmt.uses()
                    if op.__class__ is Var or op.__class__ is Temp
                    for key in [op.name if op.__class__ is Var else op.index]
                    if key not in first or first[key] >= k])
            continue
        # (a group nested under ``top`` reads through its members)
        for nested in ([top],) if top.__class__.blocks is IRStmt.blocks \
                else walk_blocks([top]):
            for stmt in nested:
                kind = stmt.__class__
                if kind in _EXITS or kind is RTCall and stmt.op in _WORKSPACE:
                    return -1
                read.update([op.name if op.__class__ is Var else op.index
                             for op in stmt.uses()
                             if op.__class__ is Var or op.__class__ is Temp])
    marked = False
    for group in body:
        if group.__class__ is not EwGroup:
            continue
        keys = dests[id(group)]
        last = {key: k for k, key in enumerate(keys)}
        live = tuple([
            DEAD if last[key] != k else LIVE if key in read
            else DEAD if key.__class__ is int else LAST
            for k, key in enumerate(keys)])
        if min(live) < LIVE:
            group.live = live
            marked = True
    return i + 1 if marked else -1


def _loop_group(block: list, i: int, unit) -> int:
    """Mark the group of a range loop whose body is that group alone,
    ``lean`` marked, with the operands each :data:`LIVE` member carries
    to the next iteration (:attr:`EwGroup.carry`)."""
    loop = block[i]
    body = loop.body
    if not (loop.range_triple is not None and len(body) == 1
            and body[0].__class__ is EwGroup and body[0].live is not None):
        return -1
    group = body[0]
    # what the group reads from before it, keyed as ``group_spec`` keys
    # it: a member that reads the loop variable reads one of these, or
    # what a member assigned it
    keys = [op.name if op.__class__ is Var else op.index
            for op in group_spec(group)[1]]
    var = loop.var.name
    if var in keys:
        return -1
    carry = []
    for k, (stmt, mark) in enumerate(zip(group.members, group.live)):
        dest = stmt.dest
        key = dest.name if dest.__class__ is Var else dest.index
        if key == var:
            return -1
        if mark == LIVE:
            if key not in keys:
                return -1
            carry.append((keys.index(key), k))
    if not carry:
        return -1
    group.carry = tuple(carry)
    return i + 1


class Rewrite(NamedTuple):
    #: the ops of the statement a match starts at (``"ew"``: an
    #: :class:`Elementwise`)
    ops: tuple[str, ...]
    apply: Callable[[list, int, object], int]
    #: may the rewrite change the modeled clock?  (The tuner's
    #: ``fusion`` axis offers only the rewrites that may.)
    modeled: bool = True
    #: does it run after pass 6b instead of with the rest of pass 6?
    after_licm: bool = False


#: name -> rewrite, in the default schedule's order (fusing first
#: exposes CSE to the post-rewrite call sequence)
REWRITES: dict[str, Rewrite] = {
    "transpose_matmul": Rewrite(("transpose", "transpose_nc"),
                                _fuse_transpose_matmul),
    "cse": Rewrite(("broadcast_element", "dim"), _local_cse),
    "const_args": Rewrite(tuple(BY_VALUE), _const_args),
    "reduce2": Rewrite(_builtins("sum", "prod", "max", "min", "any", "all"),
                       _reduce2),
    "batch_reduce": Rewrite(_builtins("sum", "mean", "max", "min", "prod"),
                            _batch_reduce),
    "halo": Rewrite(("builtin:circshift",),
                    functools.partial(_ew_group, taps=True), modeled=False,
                    after_licm=True),
    "ew_group": Rewrite(("ew", *GROUP_BUILTINS), _ew_group, modeled=False,
                        after_licm=True),
    "lean": Rewrite(("for",), _lean, modeled=False, after_licm=True),
    "loop_group": Rewrite(("for",), _loop_group, modeled=False,
                          after_licm=True),
}

#: the schedule of a plan that does not name one
#: (:data:`repro.tuning.plan.DEFAULT_PLAN`'s).  ``batch_reduce`` is in
#: the tuner's space and not here: the paper's run-time library pays one
#: allreduce per reduction, and with nbody's three ``mean``s sharing one
#: its Figure 5 speed-up at 16 CPUs goes from 12.0 (paper: about 13, on
#: an axis that ends near 15) to 20.8 (EXPERIMENTS.md)
DEFAULT_SCHEDULE = tuple(name for name in REWRITES if name != "batch_reduce")


def check_schedule(schedule) -> tuple[str, ...]:
    """``schedule`` as a tuple, if it is an ordered subset of
    :data:`REWRITES` (``ValueError`` otherwise)."""
    schedule = tuple(schedule)
    for name in schedule:
        if name not in REWRITES:
            raise ValueError(f"unknown fusion rewrite {name!r}; "
                             f"choose from {tuple(REWRITES)}")
    if len(set(schedule)) != len(schedule):
        dup = next(n for n in schedule if schedule.count(n) > 1)
        raise ValueError(f"duplicate fusion rewrite {dup!r}")
    return schedule


@dataclass
class PeepholeStats:
    """How often each rewrite fired, by registry name."""

    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(REWRITES, 0))

    @property
    def transpose_fused(self) -> int:
        return self.counts["transpose_matmul"]

    @property
    def cse_removed(self) -> int:
        return self.counts["cse"]

    def fired(self) -> dict[str, int]:
        """The rewrites that fired, in registry order."""
        return {name: n for name, n in self.counts.items() if n}

    def summary(self) -> str:
        """``"3 transpose_matmul, 1 cse"`` (``"no rewrites"``)."""
        return ", ".join(f"{n} {name}" for name, n in self.fired().items()) \
            or "no rewrites"


@functools.lru_cache(maxsize=64)
def _triggers(schedule: tuple[str, ...],
              after_licm: bool) -> dict[str, tuple]:
    """op -> the ``(name, apply)`` of the scheduled rewrites of one
    phase that start at a statement with that op, in schedule order."""
    table: dict[str, tuple] = {}
    for name in check_schedule(schedule):
        row = REWRITES[name]
        if row.after_licm is after_licm:
            for op in row.ops:
                table[op] = table.get(op, ()) + ((name, row.apply),)
    return table


def peephole_program(ir: IRProgram, enabled: bool = True,
                     schedule: tuple[str, ...] | None = None,
                     after_licm: bool = False,
                     stats: PeepholeStats | None = None) -> PeepholeStats:
    """Run pass 6 in place; returns rewrite statistics.

    ``schedule`` is an ordered subset of :data:`REWRITES` (an autotuner
    plan knob); ``None`` means :data:`DEFAULT_SCHEDULE`, ``()`` disables
    the pass just like ``enabled=False``.  The compiler calls it twice:
    before pass 6b, and with ``after_licm`` for the rows that run after
    it, counting into the first call's ``stats``."""
    if stats is None:
        stats = PeepholeStats()
    if not enabled:
        return stats
    triggers = _triggers(DEFAULT_SCHEDULE if schedule is None
                         else tuple(schedule), after_licm)
    if not triggers:
        return stats
    counts = stats.counts
    for unit in ir.units():
        blocks = walk_blocks(unit.body, skip=EwGroup)
        if after_licm:
            # a block after the blocks under it: ``lean`` sees the groups
            # of the loop bodies it looks at (its rows rewrite within one
            # block, never nest one)
            blocks = reversed(list(blocks))
        for block in blocks:
            i, n = 0, len(block)
            while i < n:
                stmt = block[i]
                i += 1
                kind = stmt.__class__
                op = stmt.op if kind is RTCall else "ew" \
                    if kind is Elementwise else "for" if kind is IRFor \
                    else None
                if op in triggers:
                    for name, apply in triggers[op]:
                        resume = apply(block, i - 1, unit)
                        if resume >= 0:
                            counts[name] += 1
                            i, n = resume, len(block)
                            if block[i - 1] is not stmt:
                                break
    return stats
