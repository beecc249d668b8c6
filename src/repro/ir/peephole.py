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

A block is swept once: a statement's ``op`` (``"ew"`` for an
:class:`Elementwise`) selects the rewrites that start there (their
``ops`` column), tried in schedule order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..analysis.lattice import BaseType, Rank
from .nodes import (
    GROUP_BUILTINS,
    Const,
    Copy,
    Elementwise,
    EwGroup,
    EwNode,
    IRProgram,
    RTCall,
    Temp,
    Var,
    read_under,
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


def _group_shape(stmt):
    """The shape a statement gives a group member, or ``None`` if it
    cannot be one: a matrix result of a static shape and a real type,
    from an elementwise tree or a two-argument ``min``/``max``."""
    if stmt.__class__ is Elementwise:
        if stmt.expr.__class__ is not EwNode:
            return None
    elif not (stmt.__class__ is RTCall and stmt.op in GROUP_BUILTINS
              and len(stmt.args) == 2 and stmt.nargout == 1
              and not stmt.extra_dests and stmt.dest is not None
              and all(a.__class__ is not list for a in stmt.args)):
        return None
    vtype = stmt.vtype
    shape = vtype.shape
    if (vtype.rank is Rank.MATRIX and vtype.base in _REAL
            and shape.rows is not None and shape.cols is not None):
        return shape
    return None


def _ew_group(block: list, i: int, unit) -> int:
    end, n = i + 1, len(block)
    if end == n:
        return -1
    second = block[end]     # no second member: not worth a closer look
    if not (second.__class__ is Elementwise or second.__class__ is RTCall
            and second.op in GROUP_BUILTINS):
        return -1
    shape = _group_shape(block[i])
    if shape is None:
        return -1
    while end < n:
        other = _group_shape(block[end])
        if other is None or (other.rows, other.cols) != (shape.rows,
                                                         shape.cols):
            break
        end += 1
    if end - i < 2:
        return -1
    group = EwGroup(members=block[i:end])
    group.line = block[i].line
    block[i:end] = [group]
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
    "ew_group": Rewrite(("ew", *GROUP_BUILTINS), _ew_group, modeled=False,
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
        for block in walk_blocks(unit.body, skip=EwGroup):
            i, n = 0, len(block)
            while i < n:
                stmt = block[i]
                i += 1
                op = stmt.op if stmt.__class__ is RTCall else \
                    "ew" if stmt.__class__ is Elementwise else None
                if op in triggers:
                    for name, apply in triggers[op]:
                        resume = apply(block, i - 1, unit)
                        if resume >= 0:
                            counts[name] += 1
                            i, n = resume, len(block)
                            break
    return stats
