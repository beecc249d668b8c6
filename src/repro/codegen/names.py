"""Name mangling shared by the backends.

User variables are prefixed (``v_x``) so they can never collide with
Python keywords, runtime names (``rt``), or compiler temporaries
(``ML_tmp<k>``, kept verbatim from the paper).
"""

from __future__ import annotations

from ..ewops import py_literal
from ..ir.nodes import Const, Operand, StrConst, Temp, Var


def var_name(name: str) -> str:
    return f"v_{name}"


def func_name(name: str) -> str:
    return f"fn_{name}"


def operand_py(op: Operand, globals_: set[str] | None = None) -> str:
    """Python expression reading an operand."""
    kind = type(op)     # operand classes are leaves: identity, not isinstance
    if kind is Var:
        if globals_ and op.name in globals_:
            return f"rt.globals[{op.name!r}]"
        return var_name(op.name)
    if kind is Temp:
        return op.name
    if kind is Const:
        return py_literal(op.value)
    if kind is StrConst:
        return repr(op.value)
    raise TypeError(f"cannot emit operand {op!r}")
