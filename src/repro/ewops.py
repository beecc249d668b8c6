"""One row per elementwise op, and everything derived from the rows.

Pass 4 leaves each statement's residual arithmetic as one elementwise
tree; a *spec* is that tree serialized as nested tuples::

    ('+', ('fn:sqrt', ('.*', '@0', '@0')), 2.0)

Leaves are ``"@N"`` operand-slot strings and numeric literals; interior
nodes are ``(op, arg, ...)``.  :data:`OPS` says, once, what each ``op``
computes — the numpy kernel (an attribute of :mod:`repro.codegen.kernels`)
and the C expression — and the renderers below turn a spec into the
Python lambda the emitted program runs, or into C text: the statements of
a native kernel (``native/codegen.py``) and the loop bodies ``repro
compile`` lists (``codegen/c_emitter.py``) are the same templates.  The
module imports neither numpy nor the IR, so analysis, code generation,
both run times and the interpreter can all read it.

The native tier requires *bit-identity* with the numpy column, so the C
column comes in two classes:

``exact``
    IEEE-754 requires a correctly-rounded result (arithmetic,
    comparisons, logicals, ``sqrt``, ``fabs``, ``floor`` ...), so the C
    expression is bitwise-identical to numpy by construction on any
    conforming platform.

``probed``
    numpy may route through its own SIMD implementations (``exp``,
    ``log``, ``sin`` ... differ from libm in the last ulp on some
    hosts), so the op is admitted *per process* only after a one-time
    differential probe: compile a single-op kernel, sweep a
    deterministic sample set, and require bitwise equality against the
    numpy column.  A probe failure rejects the op for the process and
    every chain using it falls back to numpy.

Ops whose MATLAB semantics promote to complex (``sqrt``/``log`` of
negatives) carry a *guard*: a C condition evaluated per element that
makes the kernel return 1 (a flag the loop accumulates, so it stays a
vector loop) and the caller re-runs the chain through numpy, which
performs the promotion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CodegenError

EXACT = "exact"
PROBED = "probed"


class UnsupportedSpecError(CodegenError):
    """The spec contains an op/operand a renderer cannot express."""


@dataclass(frozen=True)
class EwOp:
    """One elementwise op.

    ``c`` and ``guard`` are ``str.format`` templates whose positional
    fields are the C expressions of the operand values.
    """

    arity: int
    #: the numpy kernel: an attribute name of ``repro.codegen.kernels``
    py: str
    c: str
    kind: str = EXACT
    guard: Optional[str] = None
    #: probe sample domain: "all" | "positive" | "pairs" | "pow_pairs"
    domain: str = "all"
    #: the one Python operator the kernel is: :func:`spec_to_py` inlines it
    py_op: Optional[str] = None

    @property
    def kernel(self) -> Callable:
        from .codegen import kernels
        return getattr(kernels, self.py)


#: IR op name -> row: the operators, the ``fn:<name>`` builtins (every
#: ``elementwise``/``ewbinary`` name of ``builtin_sigs.REGISTRY``, plus
#: the run time's ``maximum``/``minimum``) and the ``pow:<c>`` pseudo-ops
OPS: dict[str, EwOp] = {
    # IEEE arithmetic: correctly rounded, always exact
    "+": EwOp(2, "add", "({0} + {1})", py_op="({0} + {1})"),
    "-": EwOp(2, "sub", "({0} - {1})", py_op="({0} - {1})"),
    ".*": EwOp(2, "mul", "({0} * {1})", py_op="({0} * {1})"),
    "./": EwOp(2, "div", "({0} / {1})"),
    ".\\": EwOp(2, "ldiv", "({1} / {0})"),
    "u-": EwOp(1, "neg", "(-{0})", py_op="(-{0})"),
    "u+": EwOp(1, "pos", "({0})"),
    # comparisons / logicals produce 0.0/1.0 doubles (NaN compares false,
    # NaN != 0 is true so NaN is truthy — both match numpy).  The
    # logicals combine their two tests with a bitwise ``&``/``|``: both
    # operands are plain values, and a short-circuit ``&&`` is a branch
    # that keeps the loop scalar
    "==": EwOp(2, "eq", "(({0} == {1}) ? 1.0 : 0.0)"),
    "~=": EwOp(2, "ne", "(({0} != {1}) ? 1.0 : 0.0)"),
    "<": EwOp(2, "lt", "(({0} < {1}) ? 1.0 : 0.0)"),
    ">": EwOp(2, "gt", "(({0} > {1}) ? 1.0 : 0.0)"),
    "<=": EwOp(2, "le", "(({0} <= {1}) ? 1.0 : 0.0)"),
    ">=": EwOp(2, "ge", "(({0} >= {1}) ? 1.0 : 0.0)"),
    "&": EwOp(2, "land", "((({0} != 0.0) & ({1} != 0.0)) ? 1.0 : 0.0)"),
    "|": EwOp(2, "lor", "((({0} != 0.0) | ({1} != 0.0)) ? 1.0 : 0.0)"),
    # scalar-only; eager (see README)
    "&&": EwOp(2, "land", "((({0} != 0.0) & ({1} != 0.0)) ? 1.0 : 0.0)"),
    "||": EwOp(2, "lor", "((({0} != 0.0) | ({1} != 0.0)) ? 1.0 : 0.0)"),
    "u~": EwOp(1, "lnot", "(({0} == 0.0) ? 1.0 : 0.0)"),
    # exact libm subset (IEEE-mandated or pure FP classification)
    "fn:sqrt": EwOp(1, "sqrt", "sqrt({0})", guard="({0} < 0.0)"),
    "fn:abs": EwOp(1, "abs", "fabs({0})"),
    "fn:floor": EwOp(1, "floor", "floor({0})"),
    "fn:ceil": EwOp(1, "ceil", "ceil({0})"),
    "fn:fix": EwOp(1, "fix", "trunc({0})"),
    "fn:round": EwOp(1, "round", "floor({0} + 0.5)"),
    # numpy's sign: +0.0 for either zero, the operand itself only for NaN
    "fn:sign": EwOp(
        1, "sign", "(({0} > 0.0) ? 1.0 : (({0} < 0.0) ? -1.0 : "
                   "(({0} == 0.0) ? 0.0 : {0})))"),
    "fn:isnan": EwOp(1, "isnan", "(({0} != {0}) ? 1.0 : 0.0)"),
    "fn:isinf": EwOp(1, "isinf", "(isinf({0}) ? 1.0 : 0.0)"),
    "fn:isfinite": EwOp(1, "isfinite", "(isfinite({0}) ? 1.0 : 0.0)"),
    "fn:double": EwOp(1, "double", "({0})"),
    # real float64 inputs only (the native signature gate rejects
    # complex; the C listing spells these ML_<name> in a complex tree)
    "fn:real": EwOp(1, "real", "({0})"),
    "fn:conj": EwOp(1, "conj", "({0})"),
    "fn:imag": EwOp(1, "imag", "0.0"),
    # transcendentals: numpy's SIMD kernels are *not* libm on every
    # platform — admitted per process only if the probe proves identity
    "fn:exp": EwOp(1, "exp", "exp({0})", kind=PROBED),
    "fn:log": EwOp(1, "log", "log({0})", kind=PROBED,
                   guard="({0} < 0.0)", domain="positive"),
    "fn:log2": EwOp(1, "log2", "log2({0})", kind=PROBED,
                    guard="({0} < 0.0)", domain="positive"),
    "fn:log10": EwOp(1, "log10", "log10({0})", kind=PROBED,
                     guard="({0} < 0.0)", domain="positive"),
    "fn:sin": EwOp(1, "sin", "sin({0})", kind=PROBED),
    "fn:cos": EwOp(1, "cos", "cos({0})", kind=PROBED),
    "fn:tan": EwOp(1, "tan", "tan({0})", kind=PROBED),
    "fn:asin": EwOp(1, "asin", "asin({0})", kind=PROBED),
    "fn:acos": EwOp(1, "acos", "acos({0})", kind=PROBED),
    "fn:atan": EwOp(1, "atan", "atan({0})", kind=PROBED),
    "fn:sinh": EwOp(1, "sinh", "sinh({0})", kind=PROBED),
    "fn:cosh": EwOp(1, "cosh", "cosh({0})", kind=PROBED),
    "fn:tanh": EwOp(1, "tanh", "tanh({0})", kind=PROBED),
    "fn:angle": EwOp(1, "angle", "atan2(0.0, {0})", kind=PROBED),
    "fn:atan2": EwOp(2, "atan2", "atan2({0}, {1})", kind=PROBED,
                     domain="pairs"),
    "fn:hypot": EwOp(2, "hypot", "hypot({0}, {1})", kind=PROBED,
                     domain="pairs"),
    "fn:rem": EwOp(2, "rem", "fmod({0}, {1})", kind=PROBED,
                   domain="pairs"),
    # np.mod: fmod, moved to the divisor's sign; a zero takes that sign
    # too, and a zero or NaN divisor gives fmod's NaN
    "fn:mod": EwOp(
        2, "mod", "((fmod({0}, {1}) != 0.0) ? ((({1} < 0.0) != "
                  "(fmod({0}, {1}) < 0.0)) ? (fmod({0}, {1}) + {1}) : "
                  "fmod({0}, {1})) : copysign(0.0, {1}))",
        kind=PROBED, domain="pairs"),
    # numpy maximum/minimum propagate NaN and return the *second* operand
    # on ties (0.0 vs -0.0): the first operand where it compares greater
    # (less) or is NaN, else the second — a NaN second operand compares
    # false and is returned.  Both tests are computed for every element
    # and feed one select, which gcc turns into compare + blend lanes;
    # a NaN test that guards the comparison (``x != x ? x : ...``) is a
    # branch around it, and that loop stays scalar
    "fn:maximum": EwOp(
        2, "maximum", "((({0} > {1}) | ({0} != {0})) ? {0} : {1})",
        kind=PROBED, domain="pairs"),
    "fn:minimum": EwOp(
        2, "minimum", "((({0} < {1}) | ({0} != {0})) ? {0} : {1})",
        kind=PROBED, domain="pairs"),
    # general a .^ b through libm pow (numpy's pow SIMD kernel usually
    # diverges, so this rarely survives the probe; the constant-exponent
    # rewrites below are the ones that matter).  The native tier takes
    # the builtin only: the operator's exponent is part of the spec, and
    # one no rewrite covers is refused there before any probe.  The
    # guard is ``K.pow_``'s promotion test: a negative base with a
    # fractional (or NaN) exponent is complex
    "fn:power": EwOp(2, "power", "pow({0}, {1})", kind=PROBED,
                     guard="(({0} < 0.0) & ({1} != floor({1})))",
                     domain="pow_pairs"),
    ".^": EwOp(2, "pow_", "pow({0}, {1})", kind=PROBED, domain="pow_pairs"),
    # ``a .^ c`` for these constants ``c``: numpy evaluates
    # np.asarray(a) ** np.asarray(c) through np.power, and the probe
    # checks that np.power with this exact constant is bitwise equal to
    # the rewritten form
    "pow:0": EwOp(1, "pow_", "1.0", kind=PROBED),
    "pow:1": EwOp(1, "pow_", "({0})", kind=PROBED),
    "pow:2": EwOp(1, "pow_", "({0} * {0})", kind=PROBED),
    "pow:-1": EwOp(1, "pow_", "(1.0 / {0})", kind=PROBED),
}

#: the op of a group member that rotates a group operand — pass 6's
#: halo tap, ``("tap", "@0", kr, kc)`` for ``circshift(a, [kr kc])``
#: (``kc`` ``None``: ``circshift(a, kr)``).  The run time resolves the
#: shift to a rotation ``(ur, uc)`` of the array's rows and columns
#: (``repro.runtime.structural.shift_plan``); numpy spells it
#: :func:`rotated`, C a row pointer and a column offset per tap, both
#: wrapped around (``native/codegen.py``)
TAP = "tap"


def rotated(held, ur: int, uc: int):
    """A tap's value through numpy: ``held`` rotated by ``ur`` rows and
    ``uc`` columns, as ``circshift``'s copies move it."""
    import numpy as np
    return np.roll(held, (ur, uc), axis=(0, 1))


#: constant exponent -> the pseudo-op ``a .^ c`` is rendered as in C
POW_CONST_REWRITES: dict[float, str] = {
    float(op[4:]): op for op in OPS if op.startswith("pow:")}

#: zero-argument builtins: name -> (Python value, C spelling)
CONSTANTS: dict[str, tuple[complex, str]] = {
    "pi": (math.pi, "M_PI"),
    "eps": (sys.float_info.epsilon, "DBL_EPSILON"),
    "inf": (math.inf, "INFINITY"), "Inf": (math.inf, "INFINITY"),
    "nan": (math.nan, "NAN"), "NaN": (math.nan, "NAN"),
    "realmax": (sys.float_info.max, "DBL_MAX"),
    "realmin": (sys.float_info.min, "DBL_MIN"),
    "i": (1j, "ML_complex(0.0, 1.0)"), "j": (1j, "ML_complex(0.0, 1.0)"),
}


# --------------------------------------------------------------------- #
# literals
# --------------------------------------------------------------------- #


def py_literal(obj) -> str:
    """Python source for a number, a string or a spec of them.

    ``repr`` is almost enough; the exceptions are non-finite floats
    (``repr(float('inf'))`` is the bare name ``inf``, which is not a
    literal), complex values with a zero imaginary part (a real
    constant) and one-element tuples.
    """
    if obj.__class__ is tuple:
        inner = ", ".join([py_literal(x) for x in obj])
        return f"({inner},)" if len(obj) == 1 else f"({inner})"
    if isinstance(obj, complex):
        if obj.imag != 0:
            if math.isfinite(obj.real) and math.isfinite(obj.imag):
                return repr(obj)
            return f"complex({py_literal(obj.real)}, {py_literal(obj.imag)})"
        obj = obj.real
    if isinstance(obj, float) and not math.isfinite(obj):
        return f"float({str(obj)!r})"
    return repr(obj)


def c_literal(value) -> str:
    """C source for a real number: always a ``double`` expression."""
    if isinstance(value, bool):
        return "1.0" if value else "0.0"
    if isinstance(value, int):
        value = float(value)
    if isinstance(value, complex):
        if value.imag == 0.0:
            value = value.real
        else:
            raise UnsupportedSpecError("complex constant")
    if not isinstance(value, float):
        raise UnsupportedSpecError(f"non-numeric constant {value!r}")
    if math.isnan(value):
        return "(0.0 / 0.0)"
    if math.isinf(value):
        return "(1.0 / 0.0)" if value > 0 else "(-1.0 / 0.0)"
    return repr(value)


# --------------------------------------------------------------------- #
# spec renderers
# --------------------------------------------------------------------- #


def _row(node: tuple) -> EwOp:
    row = OPS.get(node[0])
    if row is None:
        raise UnsupportedSpecError(f"no kernel for {node[0]!r}")
    if len(node) - 1 != row.arity:
        raise UnsupportedSpecError(f"arity of {node[0]!r}")
    return row


def single_op_spec(op: str) -> tuple:
    """The spec of one row applied to its own slots: ``(op, "@0", ...)``."""
    return (op, *[f"@{i}" for i in range(OPS[op].arity)])


def spec_to_py(spec) -> str:
    """The ``lambda _v0, _v1, ...: K.<kernel>(_v0 + ...)`` text of a
    spec: what the emitted program hands to ``rt.ew`` and, ``eval``'d,
    the numpy reference of the native tier (:func:`reference`)."""
    nslots = 0

    def walk(node) -> str:
        nonlocal nslots
        if node.__class__ is tuple:
            args = [walk(a) for a in node[1:]]
            if node[0].startswith("pow:"):  # the probes' single-op specs
                return f"K.pow_({args[0]}, {float(node[0][4:])!r})"
            row = _row(node)
            if row.py_op is not None:
                return row.py_op.format(*args)
            return f"K.{row.py}({', '.join(args)})"
        if node.__class__ is str:
            nslots = max(nslots, int(node[1:]) + 1)
            return "_v" + node[1:]
        return py_literal(node)

    body = walk(spec)
    params = ", ".join([f"_v{i}" for i in range(nslots)])
    return f"lambda {params}: {body}"


def reference(spec) -> Callable:
    """The numpy callable of a spec, one positional argument per slot —
    the very lambda the emitted program would run."""
    from .codegen import kernels
    return eval(spec_to_py(spec), {"K": kernels})


def spec_to_c(spec, leaf: Callable[[object], str],
              bind: Optional[Callable[[str, EwOp, list], str]] = None) -> str:
    """The C expression of a spec.

    ``leaf(node)`` spells a slot or a literal; ``bind(op, row, args)``
    (default: the row's template over the argument texts) lets a caller
    name each node's value instead of nesting it.  ``a .^ c`` with a
    constant of :data:`POW_CONST_REWRITES` renders as its pseudo-op.
    """

    def walk(node) -> str:
        if node.__class__ is not tuple:
            return leaf(node)
        if node[0] == ".^" and len(node) == 3 \
                and node[2].__class__ in (int, float) \
                and node[2] in POW_CONST_REWRITES:
            node = (POW_CONST_REWRITES[node[2]], node[1])
        row = _row(node)
        args = [walk(a) for a in node[1:]]
        if bind is not None:
            return bind(node[0], row, args)
        return row.c.format(*args)

    return walk(spec)
