"""Pass 5 — guarding scalar element stores.

"Statements manipulating individual elements of matrices ... must be
surrounded by a conditional, so that only the processor owning the matrix
element referenced on the left-hand side of the statement actually
performs the operations on the right-hand side and assigns the result."

The lowering produced generic :class:`IndexAssign` statements; this pass
rewrites the qualifying ones (scalar subscripts, scalar right-hand side)
into the guarded :class:`SetElement` form that both backends emit as an
``ML_owner`` conditional.  Stores that might grow the matrix need no
special treatment here — the run-time store falls back dynamically.
Every other store (a range, a matrix right-hand side) stays an
``IndexAssign`` and runs through the run-time ``index_assign``: one
remap of the right-hand side into the matrix (a store that grows it:
gather, store, redistribute).
"""

from __future__ import annotations

from ..analysis.lattice import Rank, VarType
from .nodes import (
    ColonSub,
    Const,
    IndexAssign,
    IRProgram,
    SetElement,
    Var,
    walk_blocks,
)


class _UnitGuard:
    def __init__(self, var_types: dict[str, VarType]):
        self.var_types = var_types
        self.temp_scalar: dict[object, bool] = {}

    def _is_scalar(self, op) -> bool:
        if isinstance(op, Const):
            return True
        if isinstance(op, ColonSub):
            return False
        if isinstance(op, Var):
            vtype = self.var_types.get(op.name)
            return vtype is not None and vtype.rank is Rank.SCALAR
        return self.temp_scalar.get(op, False)

    def run(self, body: list) -> None:
        for block in walk_blocks(body):
            for i, stmt in enumerate(block):
                if stmt.vtype is not None:
                    scalar = stmt.vtype.rank is Rank.SCALAR
                    for dest in stmt.defs():
                        self.temp_scalar[dest] = scalar
                elif stmt.__class__ is IndexAssign:
                    subs_ok = (len(stmt.subs) in (1, 2)
                               and all(self._is_scalar(s) for s in stmt.subs))
                    if subs_ok and self._is_scalar(stmt.rhs):
                        guarded = SetElement(var=stmt.var, subs=stmt.subs,
                                             rhs=stmt.rhs, guarded=True)
                        guarded.line = stmt.line
                        block[i] = guarded


def guard_program(ir: IRProgram) -> IRProgram:
    """Run pass 5 in place (and return the program for chaining): every
    qualifying store becomes the paper's owner-computes ``SetElement``
    guard."""
    for unit in ir.units():
        _UnitGuard(unit.var_types).run(unit.body)
    return ir
