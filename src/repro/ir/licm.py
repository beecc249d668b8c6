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
  whose destination (a compiler :class:`Temp` or a user variable)
  occurs exactly once among the definitions of the whole loop —
  ``defs_under([loop])``: the body, the blocks nested in it, the loop
  variable, a ``while``'s condition statements; an indexed store into
  the destination or a loop variable of that name is a second
  definition — and is never read before that definition, so
  first-iteration semantics cannot change;
* every operand is a constant or a name not defined anywhere in the loop;
* the op is pure and deterministic (``rand``/``randn``, I/O, and user
  calls never move);
* ops that can raise (indexing, products) are only hoisted when the
  statement *provably executes at least once* — a constant-range ``for``
  with a positive trip count, and no ``break``/``continue``/``return``
  under an earlier statement of the body — so a loop can never start
  observing errors, or a variable a value, that it previously skipped.
  Metadata queries (``dim``) hoist unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import (
    Const,
    IRBreak,
    IRContinue,
    IRFor,
    IRProgram,
    IRReturn,
    IRStmt,
    IRWhile,
    RTCall,
    defs_under,
    read_under,
    walk_blocks,
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


#: the kinds that are loops, and the kinds that leave a loop body
#: before its end
_LOOPS = (IRFor, IRWhile)
_EXITS = (IRBreak, IRContinue, IRReturn)

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
    for unit in ir.units():
        # a block after the blocks under it: what an inner loop gives up
        # lands in the outer loop's body, which may give it up in turn
        for block in reversed(list(walk_blocks(unit.body))):
            i = 0
            while i < len(block):
                loop = block[i]
                if loop.__class__ in _LOOPS:
                    hoisted = _hoist_from_loop(loop, policy)
                    block[i:i] = hoisted
                    i += len(hoisted)
                    stats.hoisted += len(hoisted)
                i += 1
    return stats


# -------------------------------------------------------------------------- #


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


def _may_move(stmt: IRStmt, must_execute: bool, policy: str) -> bool:
    """Is ``stmt`` a call the policy lets out of a loop that is sure to
    execute it (``must_execute``), or of one that may not?"""
    if stmt.__class__ is not RTCall or stmt.dest is None \
            or stmt.extra_dests:
        return False
    op = stmt.op
    if op in _ALWAYS_SAFE:
        return True
    if not (must_execute and policy == "aggressive"):
        return False
    if op.startswith(("builtin:", "reduce2:")):
        # (``reduce2:sum`` is ``sum(sum(A))``, as pure as ``sum``)
        return op.partition(":")[2] in _HOISTABLE_BUILTINS
    return op in _SPECULATIVE


def _hoist_from_loop(loop: IRStmt, policy: str) -> list[IRStmt]:
    """Remove the hoistable statements from the top level of the loop's
    body and return them (in order) for insertion before the loop."""
    must_execute = loop.__class__ is IRFor and _trip_count_positive(loop)
    # every assignment the loop makes: its variable, its body, the
    # blocks nested in it, a ``while``'s condition statements
    defs = defs_under([loop])
    variant = set(defs)
    body = loop.body
    hoisted: list[IRStmt] = []
    i = 0
    while i < len(body):
        stmt = body[i]
        if (_may_move(stmt, must_execute, policy)
                and defs.count(stmt.dest) == 1
                and variant.isdisjoint(stmt.uses())
                and not read_under(body[:i], stmt.dest)):
            hoisted.append(stmt)
            variant.discard(stmt.dest)  # its one assignment has left
            del body[i]
            continue
        if must_execute and _may_leave(stmt):
            must_execute = False    # what follows may be skipped
        i += 1
    return hoisted


def _may_leave(stmt: IRStmt) -> bool:
    """Is there a ``break``, ``continue`` or ``return`` under ``stmt``?"""
    return any(inner.__class__ in _EXITS
               for block in walk_blocks([stmt]) for inner in block)
