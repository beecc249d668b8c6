"""MATLAB value semantics.

Every MATLAB value is conceptually a 2-D matrix; scalars are 1x1.  This
module supplies the value representation shared by the reference
interpreter and (for I/O formatting) the distributed run-time library:

* numbers are Python ``float``/``complex`` (for 1x1) or 2-D ``numpy``
  arrays (``float64``/``complex128``) stored in the workspace
* strings are Python ``str``
* indexing is 1-based; *linear* indexing is column-major, as in MATLAB
* indexed assignment grows the array, zero-filling new elements
* value (copy) semantics: stored arrays are never aliased mutably

The display formatting here is deliberately simple and *identical* between
the interpreter and compiled code, so differential tests can compare
program output byte-for-byte.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from ..errors import MatlabRuntimeError

Scalar = Union[float, complex]

#: numpy 2.x renamed ``trapz`` to ``trapezoid``; support both.
np_trapz = getattr(np, "trapezoid", None) or np.trapz

Value = Union[float, complex, np.ndarray, str]


# --------------------------------------------------------------------------
# construction / classification
# --------------------------------------------------------------------------


def as_matrix(value: Value) -> np.ndarray:
    """View any numeric value as a 2-D array (no copy when possible)."""
    if isinstance(value, str):
        raise MatlabRuntimeError("expected a numeric value, got a string")
    if isinstance(value, (int, float)):
        return np.array([[float(value)]])
    if isinstance(value, complex):
        return np.array([[value]])
    arr = np.asarray(value)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(1, -1)  # bare 1-D data is a row vector
    if arr.ndim != 2:
        raise MatlabRuntimeError(f"{arr.ndim}-D arrays are not supported")
    return arr


def simplify(arr: np.ndarray) -> Value:
    """Collapse 1x1 arrays to Python scalars (the canonical scalar form)."""
    a = np.asarray(arr)
    if a.size == 1 and a.ndim <= 2:
        item = a.reshape(-1)[0]
        if np.iscomplexobj(a):
            c = complex(item)
            return c if c.imag != 0 else float(c.real)
        return float(item)
    return as_matrix(a)


def is_scalar(value: Value) -> bool:
    if isinstance(value, (int, float, complex)):
        return True
    if isinstance(value, str):
        return False
    return np.asarray(value).size == 1


def shape_of(value: Value) -> tuple[int, int]:
    if isinstance(value, str):
        return (1, len(value)) if value else (0, 0)
    if isinstance(value, (int, float, complex)):
        return (1, 1)
    arr = as_matrix(value)
    return (arr.shape[0], arr.shape[1])


def numel(value: Value) -> int:
    r, c = shape_of(value)
    return r * c


def truthy(value: Value) -> bool:
    """MATLAB if/while semantics: true iff nonempty and all elements nonzero."""
    if isinstance(value, str):
        return len(value) > 0
    arr = as_matrix(value)
    return arr.size > 0 and bool(np.all(arr != 0))


#: how far past its end a range's span may round and still count it
_SPAN_SLACK = 1 + np.finfo(float).eps * 4


def range_length(start: float, step: float, stop: float) -> int:
    """How many elements ``start:step:stop`` has (inclusive,
    fp-tolerant; 0 for an empty range; the step is nonzero)."""
    n = int(np.floor((stop - start) / step * _SPAN_SLACK + 1e-10)) + 1
    return n if n > 0 else 0


def colon_range(start: float, step: float, stop: float) -> np.ndarray:
    """MATLAB ``start:step:stop`` as a row vector (inclusive, fp-tolerant)."""
    if step == 0:
        raise MatlabRuntimeError("range step must be nonzero")
    n = range_length(start, step, stop)
    if n == 0:
        return np.zeros((1, 0))
    return (start + step * np.arange(n, dtype=float)).reshape(1, -1)


# --------------------------------------------------------------------------
# indexing (1-based, column-major linear order)
# --------------------------------------------------------------------------


def _index_vector(idx: Value, extent: int, what: str) -> np.ndarray:
    """Convert one subscript to a 0-based integer vector; ':' handled by
    the caller."""
    arr = as_matrix(idx)
    if arr.size == 0:
        return np.zeros(0, dtype=np.intp)
    flat = np.asarray(arr, dtype=float).reshape(-1, order="F")
    rounded = np.rint(flat)
    if not np.allclose(flat, rounded, atol=1e-9):
        raise MatlabRuntimeError(f"{what}: subscripts must be integers")
    ints = rounded.astype(np.intp)
    if np.any(ints < 1):
        raise MatlabRuntimeError(f"{what}: subscripts must be >= 1")
    return ints - 1


COLON = object()  # sentinel for a ':' subscript


def index_read(value: Value, subs: list) -> Value:
    """``value(subs...)`` with 1 or 2 subscripts (each a value or COLON)."""
    arr = as_matrix(value)
    rows, cols = arr.shape
    if len(subs) == 1:
        sub = subs[0]
        if sub is COLON:  # a(:) -> column vector, column-major
            return simplify(arr.reshape(-1, 1, order="F"))
        flat = arr.reshape(-1, order="F")
        idx = _index_vector(sub, arr.size, "index")
        if np.any(idx >= arr.size):
            raise MatlabRuntimeError("index exceeds matrix dimensions")
        picked = flat[idx]
        if is_scalar(sub):
            return simplify(picked)
        sub_shape = shape_of(sub)
        if min(rows, cols) == 1 and min(sub_shape) == 1:
            # vector indexed by vector keeps the *source* orientation
            if rows == 1:
                return simplify(picked.reshape(1, -1))
            return simplify(picked.reshape(-1, 1))
        return simplify(picked.reshape(sub_shape, order="F"))
    return simplify(arr[np.ix_(*read_axes(arr.shape, subs))])


def read_axes(shape: tuple[int, int], subs: list):
    """The 0-based row and column index vectors of ``value(ri, ci)`` for
    a ``value`` of ``shape``: the rows and columns the read takes, in
    order, checked against the extents."""
    if len(subs) != 2:
        raise MatlabRuntimeError("only 1- and 2-D indexing is supported")
    rows, cols = shape
    ri, ci = subs
    r_idx = (np.arange(rows, dtype=np.intp) if ri is COLON
             else _index_vector(ri, rows, "row index"))
    c_idx = (np.arange(cols, dtype=np.intp) if ci is COLON
             else _index_vector(ci, cols, "column index"))
    if np.any(r_idx >= rows) or np.any(c_idx >= cols):
        raise MatlabRuntimeError("index exceeds matrix dimensions")
    return r_idx, c_idx


def index_assign(value: Value | None, subs: list, rhs: Value) -> Value:
    """Functional indexed store: returns the updated (possibly grown) value.

    ``value`` may be None (the variable did not exist yet).
    """
    rhs_arr = as_matrix(rhs)
    if value is None:
        base = np.zeros((0, 0), dtype=rhs_arr.dtype)
    else:
        base = as_matrix(value).copy()
    if np.iscomplexobj(rhs_arr) and not np.iscomplexobj(base):
        base = base.astype(complex)
    rows, cols = base.shape

    if len(subs) == 1:
        sub = subs[0]
        if sub is COLON:
            if rhs_arr.size not in (1, base.size):
                raise MatlabRuntimeError(
                    "a(:) = b requires matching element counts")
            flat = base.reshape(-1, order="F").copy()
            flat[:] = rhs_arr.reshape(-1, order="F")
            return simplify(flat.reshape(base.shape, order="F"))
        idx = _index_vector(sub, 0, "index")
        if idx.size == 0:
            return simplify(base)
        needed = int(idx.max()) + 1
        if base.size == 0:
            base = np.zeros((1, needed), dtype=base.dtype)  # new row vector
        elif needed > base.size:
            if rows == 1:
                grown = np.zeros((1, needed), dtype=base.dtype)
                grown[0, :cols] = base[0]
                base = grown
            elif cols == 1:
                grown = np.zeros((needed, 1), dtype=base.dtype)
                grown[:rows, 0] = base[:, 0]
                base = grown
            else:
                raise MatlabRuntimeError(
                    "linear-index growth is only defined for vectors")
        rows, cols = base.shape
        flat = base.reshape(-1, order="F").copy()
        src = rhs_arr.reshape(-1, order="F")
        if src.size == 1:
            flat[idx] = src[0]
        elif src.size == idx.size:
            flat[idx] = src
        else:
            raise MatlabRuntimeError("subscripted assignment dimension mismatch")
        return simplify(flat.reshape((rows, cols), order="F"))

    r_idx, c_idx, (need_rows, need_cols) = assign_axes(base.shape, subs,
                                                       rhs_arr.shape)
    if need_rows > rows or need_cols > cols:
        grown = np.zeros((need_rows, need_cols), dtype=base.dtype)
        grown[:rows, :cols] = base
        base = grown
    base[np.ix_(r_idx, c_idx)] = assign_block(rhs_arr,
                                              (r_idx.size, c_idx.size))
    return simplify(base)


def assign_axes(shape: tuple[int, int], subs: list,
                rhs_shape: tuple[int, int]):
    """The 0-based row and column index vectors of ``value(ri, ci) =
    rhs`` for a ``value`` of ``shape`` and an ``rhs`` of ``rhs_shape``,
    and the shape the store leaves (larger when it grows ``value``)."""
    if len(subs) != 2:
        raise MatlabRuntimeError("only 1- and 2-D indexing is supported")
    rows, cols = shape
    ri, ci = subs
    r_idx = (np.arange(rows, dtype=np.intp) if ri is COLON
             else _index_vector(ri, rows, "row index"))
    c_idx = (np.arange(cols, dtype=np.intp) if ci is COLON
             else _index_vector(ci, cols, "column index"))
    if ri is COLON and rows == 0 and r_idx.size == 0:
        r_idx = np.arange(rhs_shape[0], dtype=np.intp)
    if ci is COLON and cols == 0 and c_idx.size == 0:
        c_idx = np.arange(rhs_shape[1], dtype=np.intp)
    need_rows = max(rows, int(r_idx.max()) + 1 if r_idx.size else rows)
    need_cols = max(cols, int(c_idx.max()) + 1 if c_idx.size else cols)
    return r_idx, c_idx, (need_rows, need_cols)


def assign_block(rhs: np.ndarray, expected: tuple[int, int]):
    """What a store into ``expected`` rows x columns writes: ``rhs``'s
    one element, ``rhs`` itself, or ``rhs`` of as many elements
    reshaped column-major."""
    if rhs.size == 1:
        return rhs.reshape(-1)[0]
    if rhs.shape != expected:
        if rhs.size != expected[0] * expected[1]:
            raise MatlabRuntimeError(
                "subscripted assignment dimension mismatch")
        return rhs.reshape(expected, order="F")
    return rhs


# --------------------------------------------------------------------------
# display
# --------------------------------------------------------------------------


def format_value(value: Value) -> str:
    """Canonical text form, shared by interpreter and compiled output."""
    if isinstance(value, str):
        return value
    arr = as_matrix(value)
    if arr.size == 0:
        return "     []"
    rows = []
    for r in range(arr.shape[0]):
        cells = [_format_element(arr[r, c]) for c in range(arr.shape[1])]
        rows.append("  " + "  ".join(cells))
    return "\n".join(rows)


def _format_element(x) -> str:
    if np.iscomplexobj(np.asarray(x)):
        z = complex(x)
        if z.imag == 0:
            return _format_element(z.real)
        sign = "+" if z.imag >= 0 else "-"
        return (f"{_format_element(z.real).strip()} {sign} "
                f"{_format_element(abs(z.imag)).strip()}i")
    v = float(x)
    if v != v:  # NaN
        return "NaN".rjust(10)
    if np.isinf(v):
        return ("Inf" if v > 0 else "-Inf").rjust(10)
    if v == int(v) and abs(v) < 1e10:
        return f"{int(v)}".rjust(10)
    return f"{v:.4f}".rjust(10)


def display(name: str, value: Value) -> str:
    """The ``x = ...`` block MATLAB prints for an unsuppressed statement."""
    return f"{name} =\n{format_value(value)}\n"
