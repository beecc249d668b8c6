"""Distributed implementations of the MATLAB builtins.

``call_builtin(rt, name, args, nargout)`` dispatches every name in
:mod:`repro.analysis.builtin_sigs` to its parallel implementation
through one table, built at import: ``name -> handler(rt, args,
nargout)``.  A test keeps the three tables (signatures / interpreter /
run-time) in sync.  Elementwise builtins are the rows of
:data:`repro.ewops.OPS`, applied to local blocks through
:meth:`RuntimeContext.ew` so they are charged as one fused
owner-computes loop.
"""

from __future__ import annotations

import numpy as np

from ..analysis.builtin_sigs import REGISTRY
from ..errors import MatlabRuntimeError
from ..ewops import CONSTANTS, OPS, single_op_spec
from ..interp import values as V
from .matrix import DMatrix, RValue
from . import linalg, reductions, structural


# Handlers take ``(rt, a, n)``: the context, the argument list, nargout.


def _elementwise(op: str):
    """One row of ``OPS`` as a fused loop of its own."""
    fn, spec = OPS[op].kernel, single_op_spec(op)
    return lambda rt, a, n: rt.ew(fn, 1, *a, spec=spec)


def _dim(rt, a):
    """The optional second ``dim`` argument of ``sum``/``prod``/``mean``."""
    return rt.int_scalar(a[1], "dim") if len(a) == 2 else None


def _random(name: str):
    def handler(rt, a, n):
        if a and isinstance(a[0], str):
            if a[0] != "seed" or len(a) != 2:
                raise MatlabRuntimeError(f"{name}: unsupported string argument")
            rt.reseed(rt.int_scalar(a[1], "seed"))
            return None
        return getattr(rt, name)(*a)
    return handler


def _extremum(name: str):
    op = f"fn:{name}imum"
    fn, spec = OPS[op].kernel, single_op_spec(op)

    def handler(rt, a, n):
        if len(a) == 2:
            return rt.ew(fn, 1, a[0], a[1], spec=spec)
        if n >= 2:
            return reductions.minmax_with_index(rt, name, a[0])
        return reductions.reduce_op(rt, name, a[0])
    return handler


def _dot(rt, args, nargout):
    a, b = args
    ra, ca = rt.shape_of(a)
    rb, cb = rt.shape_of(b)
    if ra * ca != rb * cb:
        raise MatlabRuntimeError("dot: vectors must be the same length")
    row = a if ra == 1 else linalg.transpose(rt, a, conjugate=True)
    col = b if cb == 1 else linalg.transpose(rt, b, conjugate=False)
    return linalg.dot(rt, row, col)


def _size(rt, a, n):
    r, c = rt.shape_of(a[0])
    if len(a) == 2:
        dim = rt.int_scalar(a[1], "size")
        return float(r) if dim == 1 else (float(c) if dim == 2 else 1.0)
    if n >= 2:
        return (float(r), float(c))
    return rt.from_literal([[float(r), float(c)]])


def _shape(fn):
    """Builtins that read only the argument's shape (local metadata)."""
    return lambda rt, a, n: fn(*rt.shape_of(a[0]))


def _isreal(rt, a, n):
    if isinstance(a[0], str):
        return 1.0
    if isinstance(a[0], DMatrix):
        return 0.0 if a[0].dtype.kind == "c" else 1.0
    return 0.0 if isinstance(a[0], complex) or \
        np.iscomplexobj(V.as_matrix(a[0])) else 1.0


def _inv(rt, a, n):
    shape = rt.shape_of(a[0])
    if shape[0] != shape[1]:
        raise MatlabRuntimeError("inv: matrix must be square")
    return linalg.solve(rt, a[0], rt.eye(float(shape[0]), float(shape[0])),
                        left=True)


def _det(rt, a, n):
    full = rt.gather_full(a[0]) if isinstance(a[0], DMatrix) \
        else V.as_matrix(a[0])
    if full.shape[0] != full.shape[1]:
        raise MatlabRuntimeError("det: matrix must be square")
    rt.comm.charge(flops=2 * full.shape[0] ** 3 // 3, calls=0)
    return V.simplify(np.asarray(np.linalg.det(full)).reshape(1, 1))


def _sprintf(rt, a, n):
    from ..interp.builtins import printf_values, sprintf_cycle

    if not isinstance(a[0], str):
        raise MatlabRuntimeError(
            "sprintf: first argument must be a format")
    return sprintf_cycle(a[0], printf_values(
        [rt.to_interp_value(arg) for arg in a[1:]]))


def _via_interpreter(name: str):
    """``num2str``/``int2str``: the interpreter's own implementation,
    on the replicated values."""
    def handler(rt, a, n):
        from ..interp.builtins import TABLE as _ITABLE
        from ..interp.costmodel import NULL_METER

        class _Shim:
            meter = NULL_METER

        return _ITABLE[name](_Shim(), [rt.to_interp_value(v) for v in a], n)
    return handler


TABLE = {
    "zeros": lambda rt, a, n: rt.zeros(*a),
    "ones": lambda rt, a, n: rt.ones(*a),
    "eye": lambda rt, a, n: rt.eye(*a),
    "rand": _random("rand"),
    "randn": _random("randn"),
    "linspace": lambda rt, a, n: rt.linspace(*a),
    "sum": lambda rt, a, n: reductions.reduce_op(rt, "sum", a[0], _dim(rt, a)),
    "prod": lambda rt, a, n: reductions.reduce_op(rt, "prod", a[0],
                                                  _dim(rt, a)),
    "mean": lambda rt, a, n: reductions.mean(rt, a[0], _dim(rt, a)),
    "std": lambda rt, a, n: reductions.std_var(rt, "std", a[0]),
    "var": lambda rt, a, n: reductions.std_var(rt, "var", a[0]),
    "median": lambda rt, a, n: reductions.median(rt, a[0]),
    "find": lambda rt, a, n: reductions.find(rt, a[0]),
    "all": lambda rt, a, n: reductions.all_any(rt, "all", a[0]),
    "any": lambda rt, a, n: reductions.all_any(rt, "any", a[0]),
    "max": _extremum("max"),
    "min": _extremum("min"),
    "norm": lambda rt, a, n: reductions.norm(rt, *a[:2]),
    "trapz": lambda rt, a, n: reductions.trapz(
        rt, a[0] if len(a) > 1 else None, a[-1]),
    "trapz2": lambda rt, a, n: reductions.trapz2(rt, *a),
    "cumsum": lambda rt, a, n: reductions.cumulative(rt, "cumsum", a[0]),
    "cumprod": lambda rt, a, n: reductions.cumulative(rt, "cumprod", a[0]),
    "dot": _dot,
    "size": _size,
    "length": _shape(lambda r, c: float(max(r, c)) if r * c else 0.0),
    "numel": _shape(lambda r, c: float(r * c)),
    "isempty": _shape(lambda r, c: 1.0 if r * c == 0 else 0.0),
    "isreal": _isreal,
    "isscalar": _shape(lambda r, c: 1.0 if r * c == 1 else 0.0),
    "reshape": lambda rt, a, n: structural.reshape(rt, a[0], a[1], a[2]),
    "repmat": lambda rt, a, n: structural.repmat(rt, a[0], a[1], a[2]),
    "circshift": lambda rt, a, n: structural.circshift(rt, a[0], a[1]),
    "fliplr": lambda rt, a, n: structural.flip(rt, a[0], axis=1),
    "flipud": lambda rt, a, n: structural.flip(rt, a[0], axis=0),
    "tril": lambda rt, a, n: structural.triangle(
        rt, a[0], a[1] if len(a) > 1 else None, lower=True),
    "triu": lambda rt, a, n: structural.triangle(
        rt, a[0], a[1] if len(a) > 1 else None, lower=False),
    "diag": lambda rt, a, n: structural.diag(rt, a[0]),
    "transpose": lambda rt, a, n: linalg.transpose(rt, a[0], conjugate=False),
    "ctranspose": lambda rt, a, n: linalg.transpose(rt, a[0], conjugate=True),
    "sort": lambda rt, a, n: structural.sort(rt, a[0]),
    "inv": _inv,
    "det": _det,
    "trace": lambda rt, a, n: reductions.reduce_op(
        rt, "sum", structural.diag(rt, a[0])),
    "sprintf": _sprintf,
    "num2str": _via_interpreter("num2str"),
    "int2str": _via_interpreter("int2str"),
    "disp": lambda rt, a, n: rt.disp(a[0]),
    "fprintf": lambda rt, a, n: rt.fprintf(*a),
    "error": lambda rt, a, n: rt.error(*a),
    "load": lambda rt, a, n: rt.load(a[0]),
    "save": lambda rt, a, n: rt.save(*a),
    "tic": lambda rt, a, n: rt.tic(),
    "toc": lambda rt, a, n: rt.toc(),
}
for _name, _sig in REGISTRY.items():
    if _sig.kind in ("elementwise", "ewbinary"):
        TABLE[_name] = _elementwise(f"fn:{_name}")
for _name, (_value, _) in CONSTANTS.items():
    TABLE[_name] = lambda rt, a, n, value=_value: value

#: names handled by this dispatcher (kept in sync with the signature
#: registry by a test)
SUPPORTED = frozenset(TABLE)


def call_builtin(rt, name: str, args: list[RValue], nargout: int = 1):
    """Invoke builtin ``name`` on the distributed runtime."""
    try:
        handler = TABLE[name]
    except KeyError:
        raise MatlabRuntimeError(
            f"builtin {name!r} has no distributed implementation") from None
    return handler(rt, args, nargout)
