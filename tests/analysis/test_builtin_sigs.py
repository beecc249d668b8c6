"""Unit tests for the builtin signature rules (inference layer)."""

import pytest

from repro.analysis.builtin_sigs import REGISTRY, get_sig, is_builtin
from repro.analysis.lattice import (
    BaseType,
    Rank,
    Shape,
    UNKNOWN_SHAPE,
    matrix,
    scalar,
)


def rule(name, args, consts=None):
    sig = get_sig(name)
    assert sig is not None
    return sig.rule(args, consts or [None] * len(args))


class TestGeneratorRules:
    def test_zeros_two_const_dims(self):
        out = rule("zeros", [scalar(BaseType.INTEGER)] * 2, [4, 7])
        assert out.shape == Shape(4, 7)
        assert out.rank is Rank.MATRIX

    def test_zeros_square_from_one_arg(self):
        out = rule("zeros", [scalar(BaseType.INTEGER)], [5])
        assert out.shape == Shape(5, 5)

    def test_zeros_no_args_scalar(self):
        out = rule("zeros", [], [])
        assert out.rank is Rank.SCALAR

    def test_unknown_const_gives_dynamic_shape(self):
        out = rule("ones", [scalar()] * 2, [None, 3])
        assert out.shape == Shape(None, 3)

    def test_linspace_length_from_const(self):
        out = rule("linspace", [scalar(), scalar(), scalar()],
                   [0.0, 1.0, 11])
        assert out.shape == Shape(1, 11)


class TestElementwiseRules:
    def test_sqrt_keeps_shape_widens_int(self):
        out = rule("sqrt", [matrix(BaseType.INTEGER, Shape(3, 4))])
        assert out.shape == Shape(3, 4)
        assert out.base is BaseType.REAL

    def test_abs_preserves_complexness_choice(self):
        out = rule("abs", [matrix(BaseType.COMPLEX, Shape(2, 2))])
        assert out.shape == Shape(2, 2)

    def test_floor_keeps_integer(self):
        out = rule("floor", [scalar(BaseType.INTEGER)])
        assert out.base is BaseType.INTEGER

    def test_real_forces_real(self):
        out = rule("real", [matrix(BaseType.COMPLEX, Shape(2, 3))])
        assert out.base is BaseType.REAL

    def test_binary_broadcast_scalar(self):
        out = rule("mod", [scalar(), matrix(BaseType.REAL, Shape(4, 4))])
        assert out.shape == Shape(4, 4)


class TestReductionRules:
    def test_matrix_reduces_to_row(self):
        out = rule("sum", [matrix(BaseType.REAL, Shape(5, 7))])
        assert out.shape == Shape(1, 7)

    def test_vector_reduces_to_scalar(self):
        out = rule("sum", [matrix(BaseType.REAL, Shape(9, 1))])
        assert out.rank is Rank.SCALAR

    def test_dim2_reduces_rows(self):
        out = rule("sum", [matrix(BaseType.REAL, Shape(5, 7)), scalar()],
                   [None, 2])
        assert out.shape == Shape(5, 1)

    def test_unknown_orientation_degrades(self):
        out = rule("sum", [matrix(BaseType.REAL, UNKNOWN_SHAPE)])
        assert out.rank is Rank.UNKNOWN

    def test_max_two_outputs(self):
        out = rule("max", [matrix(BaseType.REAL, Shape(9, 1))])
        assert isinstance(out, tuple)
        value, index = out
        assert index.base is BaseType.INTEGER


class TestQueryAndStructureRules:
    def test_size_with_dim(self):
        out = rule("size", [matrix(), scalar()], [None, 1])
        assert out.rank is Rank.SCALAR

    def test_size_tuple_form(self):
        out = rule("size", [matrix()])
        assert isinstance(out, tuple) and len(out) == 3

    def test_reshape_shape_from_consts(self):
        out = rule("reshape", [matrix(BaseType.REAL, Shape(2, 6)),
                               scalar(), scalar()], [None, 3, 4])
        assert out.shape == Shape(3, 4)

    def test_repmat_multiplies_shape(self):
        out = rule("repmat", [matrix(BaseType.REAL, Shape(2, 3)),
                              scalar(), scalar()], [None, 2, 4])
        assert out.shape == Shape(4, 12)

    def test_repmat_negative_count_is_empty(self):
        out = rule("repmat", [matrix(BaseType.REAL, Shape(2, 3)),
                              scalar(), scalar()], [None, -1, 2])
        assert out.shape == Shape(0, 6)

    def test_diag_vector_to_matrix(self):
        out = rule("diag", [matrix(BaseType.REAL, Shape(5, 1))])
        assert out.shape == Shape(5, 5)

    def test_diag_matrix_to_vector(self):
        out = rule("diag", [matrix(BaseType.REAL, Shape(4, 6))])
        assert out.shape == Shape(4, 1)

    def test_transpose_rule(self):
        out = rule("transpose", [matrix(BaseType.REAL, Shape(3, 8))])
        assert out.shape == Shape(8, 3)


class TestRegistryMetadata:
    def test_lookup_api(self):
        assert is_builtin("sum") and not is_builtin("no_such_fn")
        assert get_sig("nope") is None

    def test_accepts_ranges(self):
        sig = get_sig("fprintf")
        assert sig.accepts(1) and sig.accepts(9)  # variadic
        assert not sig.accepts(0)
        sqrt = get_sig("sqrt")
        assert sqrt.accepts(1) and not sqrt.accepts(2)

    def test_impure_marked(self):
        for name in ("rand", "randn", "disp", "fprintf", "load", "save",
                     "tic", "toc", "error"):
            assert not REGISTRY[name].pure, name

    def test_pure_marked(self):
        for name in ("sum", "sqrt", "zeros", "size", "inv"):
            assert REGISTRY[name].pure, name
