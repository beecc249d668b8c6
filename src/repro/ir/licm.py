"""Pass 6b — loop-invariant code motion for run-time-library calls.

An extension beyond the paper's six passes: a broadcast, metadata query,
or matrix product whose operands do not change across loop iterations is
computed once before the loop.  Hoisting communication out of loops is
the single biggest lever the statement-level rewriting leaves on the
table — e.g.::

    for s = 1:steps
        f = c * base + d(1, 2);     % d(1,2) broadcast every iteration
        ...
    end

hoists the ``ML_broadcast`` (and, if ``base`` is invariant, the product)
above the loop, removing O(steps) collectives.

Safety rules:

* only :class:`RTCall` statements at the *top level* of a loop body
  whose destination (a compiler :class:`Temp` or a user variable) is
  defined exactly once in the loop and never read before that
  definition — so first-iteration semantics cannot change;
* every operand is a constant or a name not defined anywhere in the loop
  (including nested blocks, the loop variable, and indexed stores);
* the op is pure and deterministic (``rand``/``randn``, I/O, and user
  calls never move);
* ops that can raise (indexing, products) are only hoisted when the loop
  *provably executes at least once* — a constant-range ``for`` with a
  positive trip count — so a zero-trip loop can never start observing
  errors it previously skipped.  Metadata queries (``dim``) hoist
  unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import (
    CallUser,
    ColonSub,
    Const,
    Copy,
    Elementwise,
    IndexAssign,
    IRFor,
    IRIf,
    IRProgram,
    IRStmt,
    IRWhile,
    RTCall,
    SetElement,
    Temp,
    Var,
    ew_operands,
)

#: always-safe ops (cannot raise for operands that were live anyway)
_ALWAYS_SAFE = {"dim"}
#: pure ops safe to hoist when the loop runs at least once
_SPECULATIVE = {
    "broadcast_element", "index_read", "range", "literal", "transpose",
    "transpose_nc", "matmul", "matmul_t", "matmul_tnc", "solve_left",
    "solve_right", "matrix_power", "switch_match",
}
#: pure builtins safe to hoist (never RNG, I/O, or clock)
_HOISTABLE_BUILTINS = {
    "zeros", "ones", "eye", "linspace", "size", "length", "numel",
    "isempty", "isreal", "isscalar", "sum", "prod", "mean", "std", "var",
    "median", "max", "min", "all", "any", "norm", "trapz", "trapz2",
    "cumsum", "cumprod", "dot", "find", "reshape", "repmat", "circshift",
    "fliplr", "flipud", "tril", "triu", "diag", "transpose", "ctranspose",
    "sort", "double",
}


@dataclass
class LicmStats:
    hoisted: int = 0


#: recognized hoisting policies (an autotuner plan knob)
POLICIES = ("off", "safe", "aggressive")


def licm_program(ir: IRProgram, enabled: bool = True,
                 policy: str = "aggressive") -> LicmStats:
    """Run pass 6b in place; returns hoist statistics.

    ``policy``: ``off`` disables the pass, ``safe`` hoists only the
    always-safe metadata ops, ``aggressive`` (default) additionally
    hoists speculative ops out of loops that provably execute."""
    if policy not in POLICIES:
        raise ValueError(f"unknown licm policy {policy!r}; "
                         f"choose from {POLICIES}")
    stats = LicmStats()
    if not enabled or policy == "off":
        return stats
    _walk_block(ir.body, stats, policy)
    for func in ir.functions.values():
        _walk_block(func.body, stats, policy)
    return stats


# -------------------------------------------------------------------------- #


def _walk_block(block: list[IRStmt], stats: LicmStats, policy: str) -> None:
    i = 0
    while i < len(block):
        stmt = block[i]
        if isinstance(stmt, IRIf):
            for cond_stmts, _c, branch in stmt.branches:
                _walk_block(cond_stmts, stats, policy)
                _walk_block(branch, stats, policy)
            _walk_block(stmt.orelse, stats, policy)
        elif isinstance(stmt, IRWhile):
            _walk_block(stmt.cond_stmts, stats, policy)
            _walk_block(stmt.body, stats, policy)
            hoisted = _hoist_from_loop(stmt.body, loop_defs=_defs_of_block(
                stmt.body) | _defs_of_block(stmt.cond_stmts),
                must_execute=False, policy=policy)
            block[i:i] = hoisted
            i += len(hoisted)
            stats.hoisted += len(hoisted)
        elif isinstance(stmt, IRFor):
            _walk_block(stmt.iter_stmts, stats, policy)
            _walk_block(stmt.body, stats, policy)
            defs = _defs_of_block(stmt.body) | {stmt.var.name}
            hoisted = _hoist_from_loop(
                stmt.body, loop_defs=defs,
                must_execute=_trip_count_positive(stmt), policy=policy)
            block[i:i] = hoisted
            i += len(hoisted)
            stats.hoisted += len(hoisted)
        i += 1


def _trip_count_positive(stmt: IRFor) -> bool:
    if stmt.range_triple is None:
        return False
    start, step, stop = stmt.range_triple
    if not all(isinstance(op, Const) for op in (start, step, stop)):
        return False
    s, p, e = (float(start.value.real), float(step.value.real),
               float(stop.value.real))
    if p == 0:
        return False
    return (e - s) / p >= 0


def _defs_of_block(block: list[IRStmt]) -> set[str]:
    """Every name (Var or Temp) defined anywhere in the block."""
    defs: set[str] = set()
    for stmt in block:
        dest = getattr(stmt, "dest", None)
        if isinstance(dest, (Var, Temp)):
            defs.add(_name(dest))
        for extra in getattr(stmt, "extra_dests", []) or []:
            defs.add(_name(extra))
        if isinstance(stmt, (SetElement, IndexAssign)):
            defs.add(stmt.var.name)
        if isinstance(stmt, CallUser):
            for d in stmt.dests:
                defs.add(_name(d))
        if isinstance(stmt, IRIf):
            for cond_stmts, _c, branch in stmt.branches:
                defs |= _defs_of_block(cond_stmts)
                defs |= _defs_of_block(branch)
            defs |= _defs_of_block(stmt.orelse)
        elif isinstance(stmt, IRFor):
            defs.add(stmt.var.name)
            defs |= _defs_of_block(stmt.iter_stmts)
            defs |= _defs_of_block(stmt.body)
        elif isinstance(stmt, IRWhile):
            defs |= _defs_of_block(stmt.cond_stmts)
            defs |= _defs_of_block(stmt.body)
    return defs


def _name(op) -> str:
    return op.name if isinstance(op, (Var, Temp)) else repr(op)


def _operand_names(stmt: RTCall) -> set[str]:
    names: set[str] = set()
    for arg in stmt.args:
        items = arg if isinstance(arg, list) else [arg]
        for item in items:
            subs = item if isinstance(item, list) else [item]
            for sub in subs:
                if isinstance(sub, (Var, Temp)):
                    names.add(_name(sub))
                elif isinstance(sub, ColonSub):
                    pass
    return names


def _is_hoistable(stmt: IRStmt, loop_defs: set[str],
                  must_execute: bool, policy: str = "aggressive") -> bool:
    if not isinstance(stmt, RTCall) \
            or not isinstance(stmt.dest, (Temp, Var)):
        return False
    if stmt.extra_dests:
        return False
    op = stmt.op
    speculate = policy == "aggressive"
    if op in _ALWAYS_SAFE:
        allowed = True
    elif op in _SPECULATIVE:
        allowed = must_execute and speculate
    elif op.startswith(("builtin:", "reduce2:")):
        # (``reduce2:sum`` is ``sum(sum(A))``, as pure as ``sum``)
        allowed = (must_execute and speculate
                   and op.partition(":")[2] in _HOISTABLE_BUILTINS)
    else:
        return False
    if not allowed:
        return False
    # operands must be invariant; the dest must be defined exactly here
    operands = _operand_names(stmt)
    if operands & loop_defs:
        return False
    return True


def _hoist_from_loop(body: list[IRStmt], loop_defs: set[str],
                     must_execute: bool,
                     policy: str = "aggressive") -> list[IRStmt]:
    """Remove hoistable statements from the top level of ``body`` and
    return them (in order) for insertion before the loop."""
    hoisted: list[IRStmt] = []
    defined_by_hoisted: set[str] = set()
    remaining_defs = set(loop_defs)
    i = 0
    while i < len(body):
        stmt = body[i]
        if (_is_hoistable(stmt, remaining_defs - defined_by_hoisted,
                          must_execute, policy)
                and _defined_once(body, stmt.dest)
                and not _used_before(body, i, _name(stmt.dest))):
            hoisted.append(stmt)
            defined_by_hoisted.add(_name(stmt.dest))
            del body[i]
            continue
        i += 1
    return hoisted


def _uses_of(stmt) -> set[str]:
    names: set[str] = set()
    if isinstance(stmt, RTCall):
        names |= _operand_names(stmt)
    elif isinstance(stmt, Elementwise):
        for op in ew_operands(stmt.expr):
            if isinstance(op, (Var, Temp)):
                names.add(_name(op))
    elif isinstance(stmt, Copy):
        if isinstance(stmt.src, (Var, Temp)):
            names.add(_name(stmt.src))
    elif isinstance(stmt, (SetElement, IndexAssign)):
        names.add(stmt.var.name)
        for op in [*stmt.subs, stmt.rhs]:
            if isinstance(op, (Var, Temp)):
                names.add(_name(op))
    elif isinstance(stmt, CallUser):
        for op in stmt.args:
            if isinstance(op, (Var, Temp)):
                names.add(_name(op))
    elif isinstance(stmt, IRIf):
        for cond_stmts, cond, branch in stmt.branches:
            for sub in [*cond_stmts, *branch]:
                names |= _uses_of(sub)
            if isinstance(cond, (Var, Temp)):
                names.add(_name(cond))
        for sub in stmt.orelse:
            names |= _uses_of(sub)
    elif isinstance(stmt, IRFor):
        for sub in [*stmt.iter_stmts, *stmt.body]:
            names |= _uses_of(sub)
        for op in stmt.range_triple or ():
            if isinstance(op, (Var, Temp)):
                names.add(_name(op))
        if isinstance(stmt.iter_operand, (Var, Temp)):
            names.add(_name(stmt.iter_operand))
    elif isinstance(stmt, IRWhile):
        for sub in [*stmt.cond_stmts, *stmt.body]:
            names |= _uses_of(sub)
        if isinstance(stmt.cond, (Var, Temp)):
            names.add(_name(stmt.cond))
    else:
        # display / control statements referencing values
        value = getattr(stmt, "value", None)
        if isinstance(value, (Var, Temp)):
            names.add(_name(value))
    return names


def _used_before(body: list[IRStmt], idx: int, name: str) -> bool:
    """Is ``name`` read by any statement before position ``idx``?"""
    for stmt in body[:idx]:
        if name in _uses_of(stmt):
            return True
    return False


def _defined_once(body: list[IRStmt], dest) -> bool:
    count = 0
    target = _name(dest)
    for stmt in body:
        d = getattr(stmt, "dest", None)
        if isinstance(d, (Var, Temp)) and _name(d) == target:
            count += 1
        if isinstance(stmt, (IRIf, IRFor, IRWhile)):
            if target in _defs_of_block([stmt]):
                count += 2  # nested definition: refuse
    return count == 1
