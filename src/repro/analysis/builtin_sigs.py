"""Registry of MATLAB builtin functions and their inference signatures.

This is the single source of truth for *which* builtins exist; the
interpreter (:mod:`repro.interp.builtins`) and the distributed run-time
library (:mod:`repro.runtime.builtins`) each provide an implementation for
every name registered here, and a test asserts the three stay in sync.

Each entry carries a *type rule*: a function from the argument
:class:`VarType` triples (plus compile-time constant values, when known) to
the result type(s).  Rules are deliberately conservative — returning
``UNKNOWN`` components is always sound and merely shifts work to run time,
exactly as the paper describes ("shape information can be collected and
propagated at run time").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .lattice import (
    BaseType,
    Rank,
    Shape,
    UNKNOWN_SHAPE,
    SCALAR_SHAPE,
    VarType,
    literal,
    matrix,
    scalar,
)

Consts = Sequence[object]
TypeRule = Callable[[Sequence[VarType], Consts], "VarType | tuple[VarType, ...]"]


@dataclass(frozen=True)
class BuiltinSig:
    name: str
    min_args: int
    max_args: int  # -1 means variadic
    nargout: int  # maximum number of outputs
    kind: str  # generator | elementwise | ewbinary | reduction | query |
    #            structural | constant | io | linalg | control
    rule: TypeRule
    pure: bool = True  # False for I/O and RNG-state effects
    notes: str = ""

    def accepts(self, nargs: int) -> bool:
        if nargs < self.min_args:
            return False
        return self.max_args < 0 or nargs <= self.max_args


REGISTRY: dict[str, BuiltinSig] = {}


def _register(name: str, min_args: int, max_args: int, nargout: int, kind: str,
              rule: TypeRule, pure: bool = True, notes: str = "") -> None:
    REGISTRY[name] = BuiltinSig(name, min_args, max_args, nargout, kind, rule,
                                pure, notes)


def is_builtin(name: str) -> bool:
    return name in REGISTRY


def get_sig(name: str) -> Optional[BuiltinSig]:
    return REGISTRY.get(name)


# --------------------------------------------------------------------------
# rule helpers
# --------------------------------------------------------------------------


def _int_const(value: object) -> Optional[int]:
    if isinstance(value, (int, float)) and float(value) == int(value):
        return int(value)
    return None


def _gen_shape(args: Sequence[VarType], consts: Consts) -> Shape:
    """Shape rule shared by zeros/ones/rand/randn/eye."""
    if len(args) == 0:
        return SCALAR_SHAPE
    if len(args) == 1:
        n = _int_const(consts[0]) if consts else None
        return Shape(n, n)
    r = _int_const(consts[0]) if len(consts) > 0 else None
    c = _int_const(consts[1]) if len(consts) > 1 else None
    return Shape(r, c)


def _gen_rank(shape: Shape) -> Rank:
    if shape == SCALAR_SHAPE:
        return Rank.SCALAR
    return Rank.MATRIX


def _generator(base: BaseType) -> TypeRule:
    def rule(args: Sequence[VarType], consts: Consts):
        shape = _gen_shape(args, consts)
        if len(args) == 0:
            return scalar(base)
        return VarType(base, _gen_rank(shape), shape)

    return rule


def _elementwise(result_base: Optional[BaseType] = None,
                 real_in_real_out: bool = True) -> TypeRule:
    """Unary elementwise: result has argument's rank/shape.

    ``result_base=None`` keeps the argument's base type (widened to REAL for
    integer inputs, since e.g. sqrt(2) is not an integer).
    """

    def rule(args: Sequence[VarType], consts: Consts) -> VarType:
        a = args[0]
        base = result_base
        if base is None:
            base = a.base
            if base is BaseType.INTEGER:
                base = BaseType.REAL
        return VarType(base, a.rank, a.shape)

    return rule


def _ew_same_base() -> TypeRule:
    """Unary elementwise preserving base exactly (abs, floor, real...)."""

    def rule(args: Sequence[VarType], consts: Consts) -> VarType:
        a = args[0]
        return VarType(a.base, a.rank, a.shape)

    return rule


def _ew_binary() -> TypeRule:
    def rule(args: Sequence[VarType], consts: Consts) -> VarType:
        a, b = args[0], args[1]
        base = a.base.join(b.base)
        if base is BaseType.INTEGER:
            base = BaseType.REAL
        if a.rank is Rank.SCALAR:
            return VarType(base, b.rank, b.shape)
        if b.rank is Rank.SCALAR:
            return VarType(base, a.rank, a.shape)
        return VarType(base, a.rank.join(b.rank), a.shape.join(b.shape))

    return rule


def _reduction() -> TypeRule:
    """MATLAB reduction: matrix -> row vector of column reductions (or a
    column vector with an explicit ``dim=2``); vector -> scalar."""

    def rule(args: Sequence[VarType], consts: Consts) -> VarType:
        a = args[0]
        base = a.base if a.base.is_numeric else BaseType.UNKNOWN
        if base is BaseType.INTEGER:
            base = BaseType.REAL
        dim = _int_const(consts[1]) if len(consts) > 1 else None
        if a.rank is Rank.SCALAR:
            return scalar(base)
        if dim is None and (a.shape.rows == 1 or a.shape.cols == 1):
            return scalar(base)
        if dim == 1:
            return matrix(base, Shape(1, a.shape.cols))
        if dim == 2:
            return matrix(base, Shape(a.shape.rows, 1))
        if dim is None and a.shape.rows is not None and a.shape.rows > 1:
            return matrix(base, Shape(1, a.shape.cols))
        # rank/orientation unknown: could be scalar or row vector
        return VarType(base, Rank.UNKNOWN, UNKNOWN_SHAPE)

    return rule


def _scalar_result(base: BaseType = BaseType.REAL) -> TypeRule:
    def rule(args: Sequence[VarType], consts: Consts) -> VarType:
        return scalar(base)

    return rule


def _size_rule(args: Sequence[VarType], consts: Consts):
    if len(args) == 2:  # size(a, dim) -> scalar
        return scalar(BaseType.INTEGER)
    # nargout decides: 1 -> 1x2 row vector, 2 -> two scalars.  We return the
    # tuple form; inference picks what it needs.
    return (
        matrix(BaseType.INTEGER, Shape(1, 2)),
        scalar(BaseType.INTEGER),
        scalar(BaseType.INTEGER),
    )


def _same_as_arg(index: int = 0) -> TypeRule:
    def rule(args: Sequence[VarType], consts: Consts) -> VarType:
        a = args[index]
        return VarType(a.base, a.rank, a.shape)

    return rule


def _transpose_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    a = args[0]
    return VarType(a.base, a.rank, a.shape.transposed())


def _reshape_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    a = args[0]
    r = _int_const(consts[1]) if len(consts) > 1 else None
    c = _int_const(consts[2]) if len(consts) > 2 else None
    return VarType(a.base, Rank.MATRIX, Shape(r, c))


def _repmat_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    a = args[0]
    m = _int_const(consts[1]) if len(consts) > 1 else None
    n = _int_const(consts[2]) if len(consts) > 2 else None
    rows = a.shape.rows * m if (a.shape.rows is not None and m) else None
    cols = a.shape.cols * n if (a.shape.cols is not None and n) else None
    return VarType(a.base, Rank.MATRIX, Shape(rows, cols))


def _linspace_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    n = _int_const(consts[2]) if len(consts) > 2 else 100
    return matrix(BaseType.REAL, Shape(1, n))


def _diag_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    a = args[0]
    if a.shape.rows == 1 or a.shape.cols == 1:
        n = a.shape.numel()
        return matrix(a.base, Shape(n, n))
    if a.shape.is_static:
        n = min(a.shape.rows, a.shape.cols)  # type: ignore[type-var]
        return matrix(a.base, Shape(n, 1))
    return matrix(a.base, UNKNOWN_SHAPE)


def _minmax_rule(args: Sequence[VarType], consts: Consts):
    if len(args) == 2:  # elementwise two-argument form
        return _ew_binary()(args, consts)
    red = _reduction()(args, consts)
    # With two outputs the second is the index (integer, same shape as first)
    idx = VarType(BaseType.INTEGER, red.rank, red.shape)
    return (red, idx)


def _trapz_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    return scalar(BaseType.REAL)


def _dot_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    base = args[0].base.join(args[1].base)
    if not base.is_numeric:
        base = BaseType.REAL
    if base is BaseType.INTEGER:
        base = BaseType.REAL
    return scalar(base)


def _load_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    # Refined by the sample-data-file mechanism in analysis.datafile.
    return matrix(BaseType.UNKNOWN, UNKNOWN_SHAPE)


def _void_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    return VarType()  # bottom: produces no value


def _logical_ew() -> TypeRule:
    def rule(args: Sequence[VarType], consts: Consts) -> VarType:
        a = args[0]
        return VarType(BaseType.INTEGER, a.rank, a.shape)

    return rule


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------

# generators
_register("zeros", 0, 2, 1, "generator", _generator(BaseType.REAL))
_register("ones", 0, 2, 1, "generator", _generator(BaseType.REAL))
_register("eye", 0, 2, 1, "generator", _generator(BaseType.REAL))
_register("rand", 0, 2, 1, "generator", _generator(BaseType.REAL), pure=False,
          notes="rand('seed', s) reseeds the generator")
_register("randn", 0, 2, 1, "generator", _generator(BaseType.REAL), pure=False)
_register("linspace", 2, 3, 1, "generator", _linspace_rule)

# unary elementwise
for _name in ("sqrt", "exp", "log", "log2", "log10", "sin", "cos", "tan",
              "asin", "acos", "atan", "sinh", "cosh", "tanh"):
    _register(_name, 1, 1, 1, "elementwise", _elementwise())
for _name in ("floor", "ceil", "round", "fix", "sign"):
    _register(_name, 1, 1, 1, "elementwise", _ew_same_base())
_register("abs", 1, 1, 1, "elementwise", _elementwise(None))
_register("real", 1, 1, 1, "elementwise", _elementwise(BaseType.REAL))
_register("imag", 1, 1, 1, "elementwise", _elementwise(BaseType.REAL))
_register("conj", 1, 1, 1, "elementwise", _ew_same_base())
_register("angle", 1, 1, 1, "elementwise", _elementwise(BaseType.REAL))
_register("double", 1, 1, 1, "elementwise", _ew_same_base())
_register("isnan", 1, 1, 1, "elementwise", _logical_ew())
_register("isinf", 1, 1, 1, "elementwise", _logical_ew())
_register("isfinite", 1, 1, 1, "elementwise", _logical_ew())

# binary elementwise
for _name in ("mod", "rem", "atan2", "hypot", "power"):
    _register(_name, 2, 2, 1, "ewbinary", _ew_binary())

# reductions
for _name in ("sum", "prod", "mean"):
    _register(_name, 1, 2, 1, "reduction", _reduction(),
              notes="optional dim argument: 1 = columns, 2 = rows")
for _name in ("cumsum", "cumprod"):
    _register(_name, 1, 1, 1, "reduction", _same_as_arg())
for _name in ("std", "var"):
    _register(_name, 1, 1, 1, "reduction", _reduction())
_register("median", 1, 1, 1, "reduction", _reduction())
_register("max", 1, 2, 2, "reduction", _minmax_rule)
_register("min", 1, 2, 2, "reduction", _minmax_rule)
_register("all", 1, 1, 1, "reduction", _reduction())
_register("any", 1, 1, 1, "reduction", _reduction())
_register("norm", 1, 2, 1, "reduction", _scalar_result(BaseType.REAL))
_register("trapz", 1, 2, 1, "reduction", _trapz_rule,
          notes="trapz(y) unit spacing; trapz(x, y)")
_register("trapz2", 1, 3, 1, "reduction", _trapz_rule,
          notes="2-D trapezoidal integration, used by the ocean script")
_register("dot", 2, 2, 1, "linalg", _dot_rule)


def _find_rule(args: Sequence[VarType], consts: Consts) -> VarType:
    # dynamic-size result: a column of 1-based linear indices (row for
    # row-vector inputs); size known only at run time
    return matrix(BaseType.INTEGER, UNKNOWN_SHAPE)


_register("find", 1, 1, 1, "query", _find_rule,
          notes="1-based linear indices of nonzeros (column-major)")


def _square_same(args: Sequence[VarType], consts: Consts) -> VarType:
    a = args[0]
    base = a.base if a.base.is_numeric else BaseType.REAL
    if base is BaseType.INTEGER:
        base = BaseType.REAL
    return VarType(base, a.rank, a.shape)


def _literal_out(args: Sequence[VarType], consts: Consts) -> VarType:
    return literal()


_register("inv", 1, 1, 1, "linalg", _square_same)
_register("det", 1, 1, 1, "linalg", _scalar_result(BaseType.REAL))
_register("trace", 1, 1, 1, "linalg", _scalar_result(BaseType.REAL))
_register("sprintf", 1, -1, 1, "io", _literal_out)
_register("num2str", 1, 2, 1, "io", _literal_out)
_register("int2str", 1, 1, 1, "io", _literal_out)

# queries
_register("size", 1, 2, 3, "query", _size_rule)
_register("length", 1, 1, 1, "query", _scalar_result(BaseType.INTEGER))
_register("numel", 1, 1, 1, "query", _scalar_result(BaseType.INTEGER))
_register("isempty", 1, 1, 1, "query", _scalar_result(BaseType.INTEGER))
_register("isreal", 1, 1, 1, "query", _scalar_result(BaseType.INTEGER))
_register("isscalar", 1, 1, 1, "query", _scalar_result(BaseType.INTEGER))

# structural
_register("reshape", 3, 3, 1, "structural", _reshape_rule)
_register("repmat", 3, 3, 1, "structural", _repmat_rule)
_register("circshift", 2, 2, 1, "structural", _same_as_arg(),
          notes="shift is a scalar or MATLAB's [rows cols] pair, anything "
                "else 'shift must be a scalar or a two-element vector' "
                "(interpreter and run-time library alike); a constant "
                "pair is passed by value (pass 6's const_args: no "
                "collective of its own), a computed one is a distributed "
                "1x2 gathered on every call; "
                "column shifts are rank-local under the row "
                "distribution, row shifts (like vector shifts) a "
                "neighbour exchange up to the smallest block, an "
                "alltoall beyond it, a gather only under a cyclic map "
                "or with fewer rows than ranks")
_register("fliplr", 1, 1, 1, "structural", _same_as_arg())
_register("flipud", 1, 1, 1, "structural", _same_as_arg())
_register("tril", 1, 2, 1, "structural", _same_as_arg())
_register("triu", 1, 2, 1, "structural", _same_as_arg())
_register("diag", 1, 1, 1, "structural", _diag_rule)
_register("transpose", 1, 1, 1, "structural", _transpose_rule)
_register("ctranspose", 1, 1, 1, "structural", _transpose_rule)
_register("sort", 1, 1, 1, "structural", _same_as_arg(),
          notes="parallel sample sort in the run-time library")

# constants
_register("pi", 0, 0, 1, "constant", _scalar_result(BaseType.REAL))
_register("eps", 0, 0, 1, "constant", _scalar_result(BaseType.REAL))
_register("inf", 0, 0, 1, "constant", _scalar_result(BaseType.REAL))
_register("Inf", 0, 0, 1, "constant", _scalar_result(BaseType.REAL))
_register("nan", 0, 0, 1, "constant", _scalar_result(BaseType.REAL))
_register("NaN", 0, 0, 1, "constant", _scalar_result(BaseType.REAL))
_register("realmax", 0, 0, 1, "constant", _scalar_result(BaseType.REAL))
_register("realmin", 0, 0, 1, "constant", _scalar_result(BaseType.REAL))
_register("i", 0, 0, 1, "constant", _scalar_result(BaseType.COMPLEX))
_register("j", 0, 0, 1, "constant", _scalar_result(BaseType.COMPLEX))

# I/O and control
_register("disp", 1, 1, 0, "io", _void_rule, pure=False)
_register("fprintf", 1, -1, 0, "io", _void_rule, pure=False)
_register("error", 1, -1, 0, "io", _void_rule, pure=False)
_register("load", 1, 1, 1, "io", _load_rule, pure=False,
          notes="typed from a sample data file at compile time")
_register("save", 1, -1, 0, "io", _void_rule, pure=False)
_register("tic", 0, 0, 0, "io", _void_rule, pure=False)
_register("toc", 0, 0, 1, "io", _scalar_result(BaseType.REAL), pure=False)


def builtin_names() -> frozenset[str]:
    return frozenset(REGISTRY)
