"""Fused-kernel library tests: polymorphic over scalars and arrays,
MATLAB numeric semantics."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codegen import kernels as K
from repro.ewops import OPS, single_op_spec, spec_to_py

# the kernels' contract: the caller holds the rank program's errstate
pytestmark = pytest.mark.usefixtures("kernel_errstate")


class TestArithmetic:
    def test_add_scalars_and_arrays(self):
        assert K.add(2.0, 3.0) == 5.0
        np.testing.assert_array_equal(K.add(np.ones(3), 1.0), [2, 2, 2])

    def test_div_by_zero_yields_inf(self):
        assert K.div(1.0, 0.0) == np.inf
        out = K.div(np.array([1.0, -1.0]), np.zeros(2))
        np.testing.assert_array_equal(out, [np.inf, -np.inf])

    def test_ldiv_swaps(self):
        assert K.ldiv(2.0, 10.0) == 5.0

    def test_pow_negative_base_fraction_goes_complex(self):
        out = K.pow_(np.array([-8.0]), np.array([1.0 / 3.0]))
        assert np.iscomplexobj(out)

    def test_pow_integer_exponent_stays_real(self):
        out = K.pow_(np.array([-2.0]), np.array([2.0]))
        assert not np.iscomplexobj(out)
        assert out[0] == 4.0

    def test_neg_pos(self):
        assert K.neg(3.0) == -3.0
        assert K.pos(-3.0) == -3.0


class TestComparisonsAndLogic:
    def test_comparisons_return_float(self):
        assert K.lt(1.0, 2.0) == 1.0
        assert K.ge(1.0, 2.0) == 0.0
        out = K.eq(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
        assert out.dtype.kind == "f"
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_complex_ordering_uses_real_part(self):
        # MATLAB compares real parts for < / >
        assert K.lt(1 + 9j, 2 + 0j) == 1.0

    def test_logicals(self):
        assert K.land(1.0, 0.0) == 0.0
        assert K.lor(1.0, 0.0) == 1.0
        assert K.lnot(0.0) == 1.0
        np.testing.assert_array_equal(
            K.land(np.array([1.0, 2.0]), np.array([0.0, 5.0])), [0.0, 1.0])


class TestIdx:
    def test_accepts_float_subscript(self):
        assert K.idx(3.0) == 3
        assert K.idx(np.array([[7.0]])) == 7

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            K.idx(2.5)

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            K.idx(np.array([1.0, 2.0]))

    def test_tolerates_fp_noise(self):
        assert K.idx(3.0000000000001) == 3


class TestNamedFunctions:
    def test_fn_lookup(self):
        assert K.sqrt(4.0) == 2.0
        assert K.mod(7.0, 3.0) == 1.0

    def test_sqrt_negative_scalar(self):
        out = K.sqrt(-4.0)
        assert complex(out) == 2j

    def test_every_registered_elementwise_has_kernel(self):
        from repro.ir.lower import _EW_BUILTINS

        for name in _EW_BUILTINS:
            assert callable(getattr(K, name)), name


class TestPowScanFastPath:
    """K.pow_'s complex-promotion check must not scan the arrays when a
    scalar operand already decides the answer (the ``x .^ 2`` hot path
    the native tier's constant rewrites rely on)."""

    def _count_scans(self, a, b):
        calls = []
        real_any = np.any

        def counting_any(*args, **kwargs):
            calls.append(args)
            return real_any(*args, **kwargs)

        orig = K.np.any
        K.np.any = counting_any
        try:
            K._pow_needs_complex(K._num(a), K._num(b))
        finally:
            K.np.any = orig
        return len(calls)

    def test_integral_scalar_exponent_scans_nothing(self):
        big = np.linspace(-5.0, 5.0, 101)
        for exp in (0.0, 1.0, 2.0, -1.0, 7.0, np.inf, -np.inf):
            assert self._count_scans(big, exp) == 0, exp

    def test_fractional_scalar_exponent_scans_base_once(self):
        big = np.linspace(1.0, 5.0, 101)
        assert self._count_scans(big, 0.5) == 1

    def test_scalar_nonnegative_base_scans_nothing(self):
        exps = np.linspace(-2.0, 2.0, 101)
        assert self._count_scans(2.0, exps) == 0
        assert self._count_scans(np.nan, exps) == 0

    def test_scalar_negative_base_scans_exponents_once(self):
        exps = np.linspace(-2.0, 2.0, 101)
        assert self._count_scans(-2.0, exps) == 1

    def test_semantics_unchanged(self):
        # negative base, fractional exponent: complex promotion
        out = K.pow_(np.array([-4.0, 4.0]), 0.5)
        assert np.iscomplexobj(out)
        np.testing.assert_allclose(out, [2j, 2.0], atol=1e-12)
        # integral scalar exponent: stays real even with negative bases
        out = K.pow_(np.array([-3.0, 3.0]), 2.0)
        assert not np.iscomplexobj(out)
        np.testing.assert_array_equal(out, [9.0, 9.0])
        # NaN exponent with a negative base promotes (NaN is "fractional")
        assert np.iscomplexobj(K.pow_(np.array([-2.0, 1.0]), np.nan))
        # NaN exponent with non-negative bases stays real
        assert not np.iscomplexobj(K.pow_(np.array([2.0, 1.0]), np.nan))
        # infinite exponents are integral: no promotion
        assert not np.iscomplexobj(K.pow_(np.array([-2.0, 2.0]), np.inf))
        # array-array mixed case still promotes exactly where needed
        out = K.pow_(np.array([-2.0, -2.0]), np.array([2.0, 2.5]))
        assert np.iscomplexobj(out)


# ---------------------------------------------------------------------- #
# the operators emitted code spells inline
# ---------------------------------------------------------------------- #

_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_OPERANDS = st.one_of(
    _FLOATS,
    _COMPLEX,
    hnp.arrays(np.float64, 3, elements=_FLOATS),
    hnp.arrays(np.complex128, 3, elements=_COMPLEX),
)


def _bits(value):
    """A value's type and exact bytes (NaN payloads and zero signs
    included)."""
    arr = np.asarray(value)
    return type(value), arr.dtype.str, arr.shape, arr.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(op=st.sampled_from(sorted(op for op, row in OPS.items() if row.py_op)),
       a=_OPERANDS, b=_OPERANDS)
def test_inline_operator_is_its_kernel_bit_for_bit(op, a, b):
    text = spec_to_py(single_op_spec(op))
    assert "K." not in text
    inline = eval(text, {"K": K})
    args = (a, b)[:OPS[op].arity]
    with np.errstate(over="ignore"):
        assert _bits(inline(*args)) == _bits(OPS[op].kernel(*args))
