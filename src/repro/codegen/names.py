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


def temp_name(temp: Temp) -> str:
    return temp.name  # "ML_tmp<k>"


def func_name(name: str) -> str:
    return f"fn_{name}"


def operand_py(op: Operand, globals_: set[str] | None = None) -> str:
    """Python expression reading an operand."""
    if isinstance(op, Var):
        if globals_ and op.name in globals_:
            return f"rt.globals[{op.name!r}]"
        return var_name(op.name)
    if isinstance(op, Temp):
        return temp_name(op)
    if isinstance(op, Const):
        return py_literal(op.value)
    if isinstance(op, StrConst):
        return repr(op.value)
    raise TypeError(f"cannot emit operand {op!r}")
