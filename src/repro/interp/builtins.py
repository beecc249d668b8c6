"""Interpreter implementations of every registered MATLAB builtin.

Each implementation has the signature ``fn(ctx, args, nargout)`` where
``ctx`` is the running :class:`~repro.interp.interpreter.Interpreter`
(supplying the RNG, cost meter, output sink, and M-file/data provider).
A test asserts this table covers exactly the names registered in
:mod:`repro.analysis.builtin_sigs`.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from .. import datastore
from ..errors import MatlabRuntimeError
from ..ewops import CONSTANTS
from .values import (
    np_trapz,
    Value,
    as_matrix,
    format_value,
    is_scalar,
    numel,
    shape_of,
    simplify,
)

TABLE: dict[str, object] = {}


def _register(name):
    def deco(fn):
        TABLE[name] = fn
        return fn

    return deco


def _scalar_int(value: Value, what: str) -> int:
    if not is_scalar(value):
        raise MatlabRuntimeError(f"{what}: expected a scalar")
    v = float(as_matrix(value).reshape(-1)[0].real)
    if v != int(v):
        raise MatlabRuntimeError(f"{what}: expected an integer")
    return int(v)


def _gen_dims(ctx, args) -> tuple[int, int]:
    if len(args) == 0:
        return (1, 1)
    if len(args) == 1:
        n = _scalar_int(args[0], "dimension")
        return (n, n)
    return (_scalar_int(args[0], "rows"), _scalar_int(args[1], "cols"))


# ------------------------------------------------------------------ #
# generators
# ------------------------------------------------------------------ #


@_register("zeros")
def _zeros(ctx, args, nargout):
    r, c = _gen_dims(ctx, args)
    ctx.meter.charge_alloc(r * c)
    return simplify(np.zeros((r, c)))


@_register("ones")
def _ones(ctx, args, nargout):
    r, c = _gen_dims(ctx, args)
    ctx.meter.charge_alloc(r * c)
    return simplify(np.ones((r, c)))


@_register("eye")
def _eye(ctx, args, nargout):
    r, c = _gen_dims(ctx, args)
    ctx.meter.charge_alloc(r * c)
    return simplify(np.eye(r, c))


@_register("rand")
def _rand(ctx, args, nargout):
    if args and isinstance(args[0], str):
        # era-correct reseeding: rand('seed', s)
        if args[0] != "seed" or len(args) != 2:
            raise MatlabRuntimeError("rand: unsupported string argument")
        ctx.reseed(_scalar_int(args[1], "seed"))
        return None
    r, c = _gen_dims(ctx, args)
    ctx.meter.charge_alloc(r * c)
    return simplify(ctx.rng.random((r, c)))


@_register("randn")
def _randn(ctx, args, nargout):
    if args and isinstance(args[0], str):
        if args[0] != "seed" or len(args) != 2:
            raise MatlabRuntimeError("randn: unsupported string argument")
        ctx.reseed(_scalar_int(args[1], "seed"))
        return None
    r, c = _gen_dims(ctx, args)
    ctx.meter.charge_alloc(r * c)
    return simplify(ctx.rng.standard_normal((r, c)))


@_register("linspace")
def _linspace(ctx, args, nargout):
    a = float(as_matrix(args[0]).reshape(-1)[0].real)
    b = float(as_matrix(args[1]).reshape(-1)[0].real)
    n = _scalar_int(args[2], "linspace") if len(args) > 2 else 100
    ctx.meter.charge_alloc(n)
    return simplify(np.linspace(a, b, n).reshape(1, -1))


# ------------------------------------------------------------------ #
# elementwise
# ------------------------------------------------------------------ #


def _elementwise(fn, preserves_real=True):
    def impl(ctx, args, nargout):
        arr = as_matrix(args[0])
        ctx.meter.charge_elementwise(arr.size)
        return simplify(fn(arr))

    return impl


def _sqrt(a):
    a = np.asarray(a)
    if not np.iscomplexobj(a) and np.any(a < 0):
        return np.sqrt(a.astype(complex))
    return np.sqrt(a)


def _log_fn(np_fn):
    def fn(a):
        a = np.asarray(a)
        if not np.iscomplexobj(a) and np.any(a < 0):
            return np_fn(a.astype(complex))
        with np.errstate(divide="ignore"):
            return np_fn(a)

    return fn


_EW_FUNCS = {
    "sqrt": _sqrt,
    "exp": np.exp,
    "log": _log_fn(np.log),
    "log2": _log_fn(np.log2),
    "log10": _log_fn(np.log10),
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "abs": np.abs,
    "floor": np.floor, "ceil": np.ceil,
    "round": lambda a: np.floor(a + 0.5) if not np.iscomplexobj(a)
    else np.round(a),
    "fix": np.trunc,
    "sign": np.sign,
    "real": np.real, "imag": np.imag, "conj": np.conj,
    "angle": np.angle,
    "double": lambda a: a,
    "isnan": lambda a: np.isnan(a).astype(float),
    "isinf": lambda a: np.isinf(a).astype(float),
    "isfinite": lambda a: np.isfinite(a).astype(float),
}

for _name, _fn in _EW_FUNCS.items():
    TABLE[_name] = _elementwise(_fn)


def _ew_binary(fn):
    def impl(ctx, args, nargout):
        a, b = as_matrix(args[0]), as_matrix(args[1])
        if a.size != 1 and b.size != 1 and a.shape != b.shape:
            raise MatlabRuntimeError("matrix dimensions must agree")
        ctx.meter.charge_elementwise(max(a.size, b.size))
        return simplify(fn(a, b))

    return impl


TABLE["mod"] = _ew_binary(lambda a, b: np.mod(a, b))
TABLE["rem"] = _ew_binary(lambda a, b: np.fmod(a, b))
TABLE["atan2"] = _ew_binary(np.arctan2)
TABLE["hypot"] = _ew_binary(np.hypot)


@_register("power")
def _power(ctx, args, nargout):
    from .interpreter import apply_binop    # imports this module's TABLE

    return apply_binop(".^", args[0], args[1], ctx.meter)


# ------------------------------------------------------------------ #
# reductions
# ------------------------------------------------------------------ #


def _columnwise(np_fn, takes_dim=False):
    """MATLAB reduction: vectors reduce fully, matrices per column (or per
    row with an explicit ``dim`` argument)."""

    def impl(ctx, args, nargout):
        arr = as_matrix(args[0])
        ctx.meter.charge_elementwise(arr.size)
        if arr.size == 0:
            return 0.0
        if takes_dim and len(args) == 2:
            dim = _scalar_int(args[1], "dim")
            if dim not in (1, 2):
                raise MatlabRuntimeError("dim must be 1 or 2")
            out = np.asarray(np_fn(arr, axis=dim - 1))
            return simplify(out.reshape(1, -1) if dim == 1
                            else out.reshape(-1, 1))
        if arr.shape[0] == 1 or arr.shape[1] == 1:
            return simplify(np_fn(arr.reshape(-1)))
        return simplify(np.asarray(np_fn(arr, axis=0)).reshape(1, -1))

    return impl


TABLE["sum"] = _columnwise(np.sum, takes_dim=True)
TABLE["prod"] = _columnwise(np.prod, takes_dim=True)
TABLE["mean"] = _columnwise(np.mean, takes_dim=True)
TABLE["median"] = _columnwise(np.median)
TABLE["std"] = _columnwise(lambda a, axis=None: np.std(a, axis=axis,
                                                       ddof=1))
TABLE["var"] = _columnwise(lambda a, axis=None: np.var(a, axis=axis,
                                                       ddof=1))
TABLE["all"] = _columnwise(lambda a, axis=None:
                           np.all(a != 0, axis=axis).astype(float))
TABLE["any"] = _columnwise(lambda a, axis=None:
                           np.any(a != 0, axis=axis).astype(float))


@_register("find")
def _find(ctx, args, nargout):
    """1-based linear indices of nonzeros, column-major order."""
    arr = as_matrix(args[0])
    ctx.meter.charge_elementwise(arr.size)
    flat = arr.reshape(-1, order="F")
    idx = np.flatnonzero(flat != 0).astype(float) + 1.0
    if idx.size == 0:
        return np.zeros((0, 0))
    if arr.shape[0] == 1 and arr.shape[1] > 1:
        return simplify(idx.reshape(1, -1))  # row input -> row output
    return simplify(idx.reshape(-1, 1))


def _cum(np_fn):
    def impl(ctx, args, nargout):
        arr = as_matrix(args[0])
        ctx.meter.charge_elementwise(arr.size)
        if arr.shape[0] == 1:
            return simplify(np_fn(arr, axis=1))
        return simplify(np_fn(arr, axis=0))

    return impl


TABLE["cumsum"] = _cum(np.cumsum)
TABLE["cumprod"] = _cum(np.cumprod)


def _minmax(np_red, np_arg, np_ew):
    def impl(ctx, args, nargout):
        if len(args) == 2:
            return _ew_binary(np_ew)(ctx, args, nargout)
        arr = as_matrix(args[0])
        ctx.meter.charge_elementwise(arr.size)
        if arr.size == 0:
            # the extremum of nothing, and its index, are nothing
            return (np.zeros((0, 0)),) * 2 if nargout >= 2 \
                else np.zeros((0, 0))
        if arr.shape[0] == 1 or arr.shape[1] == 1:
            flat = arr.reshape(-1)
            val = simplify(np_red(flat))
            if nargout >= 2:
                return (val, float(np_arg(flat) + 1))
            return val
        val = simplify(np_red(arr, axis=0).reshape(1, -1))
        if nargout >= 2:
            idx = simplify((np_arg(arr, axis=0) + 1).astype(float)
                           .reshape(1, -1))
            return (val, idx)
        return val

    return impl


TABLE["max"] = _minmax(np.max, np.argmax, np.maximum)
TABLE["min"] = _minmax(np.min, np.argmin, np.minimum)


@_register("norm")
def _norm(ctx, args, nargout):
    arr = as_matrix(args[0])
    ctx.meter.charge_elementwise(arr.size, 2)
    if len(args) == 2 and isinstance(args[1], str):
        if args[1] == "fro":
            return float(np.linalg.norm(arr, "fro"))
        raise MatlabRuntimeError(f"norm: unsupported mode {args[1]!r}")
    p = 2.0
    if len(args) == 2:
        p = float(as_matrix(args[1]).reshape(-1)[0].real)
    if arr.shape[0] == 1 or arr.shape[1] == 1:
        return float(np.linalg.norm(arr.reshape(-1), p))
    if p == 2.0:
        return float(np.linalg.norm(arr, 2))
    raise MatlabRuntimeError("norm: matrix norms other than 2 unsupported")


@_register("trapz")
def _trapz(ctx, args, nargout):
    if len(args) == 1:
        y = as_matrix(args[0])
        ctx.meter.charge_elementwise(y.size, 2)
        return float(np_trapz(y.reshape(-1)))
    x = as_matrix(args[0]).reshape(-1)
    y = as_matrix(args[1])
    ctx.meter.charge_elementwise(y.size, 3)
    if y.shape[0] == 1 or y.shape[1] == 1:
        return float(np_trapz(y.reshape(-1), x))
    return simplify(np_trapz(y, x, axis=0).reshape(1, -1))


@_register("trapz2")
def _trapz2(ctx, args, nargout):
    """2-D trapezoidal integration: trapz2(z[, dx, dy])."""
    z = as_matrix(args[0])
    dx = float(as_matrix(args[1]).reshape(-1)[0].real) if len(args) > 1 else 1.0
    dy = float(as_matrix(args[2]).reshape(-1)[0].real) if len(args) > 2 else 1.0
    ctx.meter.charge_elementwise(z.size, 3)
    inner = np_trapz(z, dx=dy, axis=1)
    return float(np_trapz(inner, dx=dx))


@_register("dot")
def _dot(ctx, args, nargout):
    a = as_matrix(args[0]).reshape(-1)
    b = as_matrix(args[1]).reshape(-1)
    if a.size != b.size:
        raise MatlabRuntimeError("dot: vectors must be the same length")
    ctx.meter.charge_flops(2 * a.size)
    return simplify(np.vdot(a, b))


# ------------------------------------------------------------------ #
# queries
# ------------------------------------------------------------------ #


@_register("size")
def _size(ctx, args, nargout):
    r, c = shape_of(args[0])
    if len(args) == 2:
        dim = _scalar_int(args[1], "size")
        if dim == 1:
            return float(r)
        if dim == 2:
            return float(c)
        return 1.0
    if nargout >= 2:
        return (float(r), float(c))
    return simplify(np.array([[float(r), float(c)]]))


@_register("length")
def _length(ctx, args, nargout):
    r, c = shape_of(args[0])
    return float(max(r, c)) if r * c else 0.0


@_register("numel")
def _numel(ctx, args, nargout):
    return float(numel(args[0]))


@_register("isempty")
def _isempty(ctx, args, nargout):
    return 1.0 if numel(args[0]) == 0 else 0.0


@_register("isreal")
def _isreal(ctx, args, nargout):
    if isinstance(args[0], str):
        return 1.0
    return 0.0 if np.iscomplexobj(as_matrix(args[0])) else 1.0


@_register("isscalar")
def _isscalar(ctx, args, nargout):
    return 1.0 if numel(args[0]) == 1 else 0.0


# ------------------------------------------------------------------ #
# structural
# ------------------------------------------------------------------ #


@_register("reshape")
def _reshape(ctx, args, nargout):
    arr = as_matrix(args[0])
    r = _scalar_int(args[1], "reshape")
    c = _scalar_int(args[2], "reshape")
    if r * c != arr.size:
        raise MatlabRuntimeError("reshape: element counts must match")
    ctx.meter.charge_copy(arr.size)
    return simplify(arr.reshape((r, c), order="F"))


@_register("repmat")
def _repmat(ctx, args, nargout):
    arr = as_matrix(args[0])
    # a negative count tiles nothing, as a zero does
    m = max(_scalar_int(args[1], "repmat"), 0)
    n = max(_scalar_int(args[2], "repmat"), 0)
    ctx.meter.charge_alloc(arr.size * m * n)
    return simplify(np.tile(arr, (m, n)))


@_register("circshift")
def _circshift(ctx, args, nargout):
    arr = as_matrix(args[0])
    shift = as_matrix(args[1])
    ctx.meter.charge_copy(arr.size)
    if shift.size == 2:  # MATLAB's [rows cols] form
        kr, kc = (_scalar_int(v, "circshift") for v in shift.flat)
        return simplify(np.roll(arr, (kr, kc), axis=(0, 1)))
    if shift.size != 1:
        raise MatlabRuntimeError(
            "circshift: shift must be a scalar or a two-element vector")
    k = _scalar_int(args[1], "circshift")
    if arr.shape[0] == 1:  # row vector: shift along columns
        return simplify(np.roll(arr, k, axis=1))
    return simplify(np.roll(arr, k, axis=0))


@_register("fliplr")
def _fliplr(ctx, args, nargout):
    arr = as_matrix(args[0])
    ctx.meter.charge_copy(arr.size)
    return simplify(np.fliplr(arr))


@_register("flipud")
def _flipud(ctx, args, nargout):
    arr = as_matrix(args[0])
    ctx.meter.charge_copy(arr.size)
    return simplify(np.flipud(arr))


@_register("tril")
def _tril(ctx, args, nargout):
    k = _scalar_int(args[1], "tril") if len(args) > 1 else 0
    arr = as_matrix(args[0])
    ctx.meter.charge_copy(arr.size)
    return simplify(np.tril(arr, k))


@_register("triu")
def _triu(ctx, args, nargout):
    k = _scalar_int(args[1], "triu") if len(args) > 1 else 0
    arr = as_matrix(args[0])
    ctx.meter.charge_copy(arr.size)
    return simplify(np.triu(arr, k))


@_register("diag")
def _diag(ctx, args, nargout):
    arr = as_matrix(args[0])
    ctx.meter.charge_copy(arr.size)
    if arr.shape[0] == 1 or arr.shape[1] == 1:
        return simplify(np.diag(arr.reshape(-1)))
    return simplify(np.diag(arr).reshape(-1, 1))


@_register("transpose")
def _transpose(ctx, args, nargout):
    arr = as_matrix(args[0])
    ctx.meter.charge_copy(arr.size)
    return simplify(arr.T.copy())


@_register("ctranspose")
def _ctranspose(ctx, args, nargout):
    arr = as_matrix(args[0])
    ctx.meter.charge_copy(arr.size)
    return simplify(arr.conj().T.copy())


@_register("sort")
def _sort(ctx, args, nargout):
    arr = as_matrix(args[0])
    n = arr.size
    ctx.meter.charge_elementwise(n, max(int(np.log2(n)) if n > 1 else 1, 1))
    if arr.shape[0] == 1:
        return simplify(np.sort(arr, axis=1))
    return simplify(np.sort(arr, axis=0))


# ------------------------------------------------------------------ #
# constants
# ------------------------------------------------------------------ #

for _name, (_value, _) in CONSTANTS.items():
    TABLE[_name] = (lambda v: (lambda ctx, args, nargout: v))(_value)


# ------------------------------------------------------------------ #
# I/O and control
# ------------------------------------------------------------------ #


@_register("disp")
def _disp(ctx, args, nargout):
    ctx.write(format_value(args[0]) + "\n")
    return None


@_register("fprintf")
def _fprintf(ctx, args, nargout):
    fmt = args[0]
    if not isinstance(fmt, str):
        raise MatlabRuntimeError("fprintf: first argument must be a format")
    ctx.write(sprintf_cycle(fmt, printf_values(args[1:])))
    return None


def printf_values(args) -> list:
    """``fprintf``/``sprintf`` operands as one list: a string is one
    value, a matrix its elements in column-major order."""
    values: list = []
    for a in args:
        if isinstance(a, str):
            values.append(a)
        else:
            values.extend(as_matrix(a).reshape(-1, order="F").tolist())
    return values


def sprintf_cycle(fmt: str, values: list) -> str:
    """MATLAB fprintf semantics: the format is reapplied until the
    argument list is exhausted (a short last round reads zeros)."""
    text, count, pieces = compile_format(fmt)
    if count == 0 or not values:
        return text
    out: list[str] = []
    for start in range(0, len(values), count):
        chunk = values[start:start + count]
        vi = 0
        for piece in pieces:
            if piece.__class__ is str:
                out.append(piece)
                continue
            spec, kind = piece
            value = chunk[vi] if vi < len(chunk) else 0.0
            vi += 1
            if kind == "d":
                out.append(spec % int(round(float(np.real(value)))))
            elif kind == "s":
                out.append(spec % str(value))
            else:
                out.append(spec % float(np.real(value)))
    return "".join(out)


#: one token of a format: ``%%``, a conversion (a ``%``, anything but a
#: conversion letter, the letter), or an unterminated ``%`` and the rest
_FORMAT_TOKEN = re.compile(
    r"(?P<pct>%%)|(?P<spec>%[^diufgGeEsx]*[diufgGeEsx])|%.*", re.S)


@functools.lru_cache(maxsize=256)
def compile_format(fmt: str) -> tuple:
    """A format scanned once: ``(text, count, pieces)`` — the format with
    its ``\\n`` / ``\\t`` escapes applied, the values one application
    consumes (each ``%`` with a character after it, ``%%`` read as one
    literal from the left), and its literal strings and ``(spec, kind)``
    conversions in order, ``kind`` one of ``"d"`` (``diux``), ``"s"``,
    ``"f"``."""
    text = fmt.replace("\\n", "\n").replace("\\t", "\t")
    count = sum(c != "%" for c in re.findall(r"%(.)", text, re.S))
    pieces: list = []
    literal = ""
    pos = 0
    for token in _FORMAT_TOKEN.finditer(text):
        literal += text[pos:token.start()]
        pos = token.end()
        if token.lastgroup == "pct":
            literal += "%"
        elif token.lastgroup is None:   # unterminated: the rest, as is
            literal += token.group()
        else:
            if literal:
                pieces.append(literal)
                literal = ""
            spec = token.group()
            conv = spec[-1]
            if conv in "diux":
                pieces.append((spec.replace("u", "d"), "d"))
            else:
                pieces.append((spec, "s" if conv == "s" else "f"))
    literal += text[pos:]
    if literal:
        pieces.append(literal)
    return text, count, tuple(pieces)


@_register("error")
def _error(ctx, args, nargout):
    msg = args[0] if isinstance(args[0], str) else format_value(args[0])
    if len(args) > 1:
        values = []
        for a in args[1:]:
            values.extend(as_matrix(a).reshape(-1, order="F").tolist())
        msg = sprintf_cycle(msg, values)
    raise MatlabRuntimeError(msg)


@_register("load")
def _load(ctx, args, nargout):
    name = args[0]
    if not isinstance(name, str):
        raise MatlabRuntimeError("load: file name must be a string")
    try:
        data = datastore.load_data(name, ctx.provider)
    except datastore.StoreError as exc:
        raise MatlabRuntimeError(f"load: {exc}") from exc
    arr = as_matrix(data)
    ctx.meter.charge_alloc(arr.size)
    return simplify(arr.copy())


@_register("inv")
def _inv(ctx, args, nargout):
    arr = as_matrix(args[0])
    if arr.shape[0] != arr.shape[1]:
        raise MatlabRuntimeError("inv: matrix must be square")
    n = arr.shape[0]
    ctx.meter.charge_flops(2 * n ** 3)
    try:
        return simplify(np.linalg.inv(arr))
    except np.linalg.LinAlgError as exc:
        raise MatlabRuntimeError(f"inv: {exc}") from exc


@_register("det")
def _det(ctx, args, nargout):
    arr = as_matrix(args[0])
    if arr.shape[0] != arr.shape[1]:
        raise MatlabRuntimeError("det: matrix must be square")
    ctx.meter.charge_flops(2 * arr.shape[0] ** 3 // 3)
    return simplify(np.asarray(np.linalg.det(arr)).reshape(1, 1))


@_register("trace")
def _trace(ctx, args, nargout):
    arr = as_matrix(args[0])
    ctx.meter.charge_elementwise(min(arr.shape))
    return simplify(np.asarray(np.trace(arr)).reshape(1, 1))


@_register("sprintf")
def _sprintf(ctx, args, nargout):
    fmt = args[0]
    if not isinstance(fmt, str):
        raise MatlabRuntimeError("sprintf: first argument must be a format")
    return sprintf_cycle(fmt, printf_values(args[1:]))


def format_number(value, precision=5) -> str:
    v = complex(value)
    if v.imag == 0:
        real = v.real
        if real == int(real) and abs(real) < 1e15:
            return str(int(real))
        return f"%.{precision}g" % real
    return f"{format_number(v.real, precision)}" \
        f"{'+' if v.imag >= 0 else '-'}{format_number(abs(v.imag), precision)}i"


@_register("num2str")
def _num2str(ctx, args, nargout):
    precision = 5
    if len(args) > 1:
        precision = _scalar_int(args[1], "num2str")
    arr = as_matrix(args[0])
    if arr.size == 1:
        return format_number(arr.reshape(-1)[0], precision)
    rows = []
    for r in range(arr.shape[0]):
        rows.append("  ".join(format_number(x, precision)
                              for x in arr[r]))
    return "\n".join(rows)


@_register("int2str")
def _int2str(ctx, args, nargout):
    arr = as_matrix(args[0])
    if arr.size == 1:
        return str(int(round(float(np.real(arr.reshape(-1)[0])))))
    rows = []
    for r in range(arr.shape[0]):
        rows.append("  ".join(str(int(round(float(np.real(x)))))
                              for x in arr[r]))
    return "\n".join(rows)


@_register("save")
def _save(ctx, args, nargout):
    name = args[0]
    if not isinstance(name, str):
        raise MatlabRuntimeError("save: file name must be a string")
    try:
        datastore.save(name, args[1:])
    except datastore.StoreError as exc:
        raise MatlabRuntimeError(f"save: {exc}") from exc
    return None


@_register("tic")
def _tic(ctx, args, nargout):
    ctx.tic_time = ctx.meter.time
    return None


@_register("toc")
def _toc(ctx, args, nargout):
    return float(ctx.meter.time - getattr(ctx, "tic_time", 0.0))
