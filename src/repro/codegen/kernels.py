"""Elementwise kernels referenced by generated Python code.

Generated fused loops are ``rt.ew(_ew0, ...)``, ``_ew0`` a lambda
over these kernels that the program binds once (``add``, ``sub``,
``mul`` and ``neg`` are one Python operator each: it spells them inline);
every function here is polymorphic over numpy arrays *and* Python scalars
(the replicated-scalar case) and reproduces MATLAB numeric semantics:
division by zero yields Inf, negative bases with fractional exponents go
complex, comparisons and logicals produce 0.0/1.0 doubles.  This module
is the numpy column of :data:`repro.ewops.OPS`: each row names one
attribute here.  The caller holds numpy's ``divide="ignore",
invalid="ignore"`` error state, so no kernel enters it per call: the
rank program (:mod:`repro.compiler`) and the native tier's reference.
"""

from __future__ import annotations

import math

import numpy as np

from ..interp.builtins import _EW_FUNCS


def _num(x):
    return np.asarray(x)


def add(a, b):
    return a + b


def sub(a, b):
    return a - b


def mul(a, b):
    return a * b


def div(a, b):
    return np.divide(a, b)


def ldiv(a, b):
    """a .\\ b (left elementwise division)."""
    return np.divide(b, a)


def _pow_needs_complex(aa, bb):
    """Does real ``aa ** bb`` need complex promotion (negative base,
    fractional exponent)?  Fast paths first: ``x .^ <integral scalar>``
    — the overwhelmingly common case — answers without touching the
    arrays at all, and a scalar on either side scans only the other
    operand, not the broadcast product of both."""
    if bb.ndim == 0:
        b0 = float(bb)
        # NaN exponents fall through (NaN != floor(NaN), so the legacy
        # predicate treated them as fractional); +/-Inf are integral
        if b0 == np.floor(b0):
            return False
        if aa.ndim == 0:
            return float(aa) < 0
        return bool(np.any(aa < 0))
    if aa.ndim == 0:
        if not float(aa) < 0:  # non-negative or NaN base never promotes
            return False
        return bool(np.any(bb != np.floor(bb)))
    return bool(np.any((aa < 0) & (bb != np.floor(bb))))


def pow_(a, b):
    aa, bb = _num(a), _num(b)
    if (not np.iscomplexobj(aa) and not np.iscomplexobj(bb)
            and _pow_needs_complex(aa, bb)):
        aa = aa.astype(complex)
    return aa ** bb


def neg(a):
    return -a


def pos(a):
    return +a


def _realpart(x):
    kind = x.__class__
    if kind is float or (kind is np.ndarray and x.dtype.kind != "c"):
        return x
    return np.real(x) if np.iscomplexobj(_num(x)) else x


def eq(a, b):
    return np.equal(a, b) * 1.0


def ne(a, b):
    return np.not_equal(a, b) * 1.0


def lt(a, b):
    return np.less(_realpart(a), _realpart(b)) * 1.0


def gt(a, b):
    return np.greater(_realpart(a), _realpart(b)) * 1.0


def le(a, b):
    return np.less_equal(_realpart(a), _realpart(b)) * 1.0


def ge(a, b):
    return np.greater_equal(_realpart(a), _realpart(b)) * 1.0


def land(a, b):
    return (np.not_equal(a, 0) & np.not_equal(b, 0)) * 1.0


def lor(a, b):
    return (np.not_equal(a, 0) | np.not_equal(b, 0)) * 1.0


def lnot(a):
    return np.equal(a, 0) * 1.0


def idx(value) -> int:
    """Convert a 1-based MATLAB subscript value to a Python int."""
    v = np.real(np.asarray(value)).reshape(-1)
    if v.size != 1:
        raise ValueError("subscript must be a scalar")
    f = float(v[0])
    r = math.floor(f + 0.5)
    if not -1e-9 <= f - r <= 1e-9:
        raise ValueError("subscripts must be integers")
    return r


# The named unary kernels (K.sqrt, K.sin, K.round, ...) are the
# interpreter's own objects, so compiled and interpreted results agree
# exactly.  ``abs`` and ``round`` shadow the builtins from here on.
globals().update(_EW_FUNCS)
mod = np.mod
rem = np.fmod
atan2 = np.arctan2
hypot = np.hypot
power = pow_
maximum = np.maximum
minimum = np.minimum
