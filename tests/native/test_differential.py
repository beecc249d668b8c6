"""Hypothesis differential suite: random elementwise op trees executed
by the native tier must be bitwise identical to the numpy reference —
or fall back (return ``None``), never silently diverge.

Bit-identity is modulo NaN representation: compilers may fold
``x + (-y)`` into ``x - y``, which propagates a NaN operand without the
sign flip numpy's separate negate performs.  NaN sign/payload bits are
unspecified by IEEE-754 and not part of the tier's contract (the
first-call verify gate still compares strict bytes and conservatively
falls back on such chains); value positions and all non-NaN bits must
match exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.ewops import EXACT, OPS, reference, single_op_spec, spec_to_c
from repro.native import generate_source, get_engine
from repro.native.engine import probe_samples

engine = get_engine()

pytestmark = pytest.mark.skipif(
    not engine.available,
    reason="no C compiler / cffi: native tier unavailable")

#: EXACT ops with no semantic guard: a kernel can never abort mid-loop
SAFE_OPS = sorted(op for op, info in OPS.items()
                  if info.kind == EXACT and info.guard is None)
ALL_OPS = sorted(op for op in OPS if not op.startswith("pow:"))

SPECIALS = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
            1e308, -1e308, 5e-324, 0.5, 2.0, np.pi]

elements = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

NSLOTS = 3


@st.composite
def spec_trees(draw, ops, max_depth=3):
    """A random op tree over ``@0..@{NSLOTS-1}`` slots and float
    constants, rooted at an operator and guaranteed to use slot 0."""

    def node(depth):
        if depth >= max_depth or draw(st.integers(0, 2)) == 0:
            if draw(st.booleans()):
                return f"@{draw(st.integers(0, NSLOTS - 1))}"
            return draw(st.floats(min_value=-100, max_value=100,
                                  allow_nan=False))
        op = draw(st.sampled_from(ops))
        return (op, *(node(depth + 1) for _ in range(OPS[op].arity)))

    op = draw(st.sampled_from(ops))
    tree = (op, *(node(1) for _ in range(OPS[op].arity)))
    if "@0" not in repr(tree):
        tree = ("+", "@0", tree)
    return tree


@st.composite
def operand_lists(draw):
    """NSLOTS operands: slot 0 is always an array; the rest may be
    arrays of the same shape or Python floats.  Size >= 2 because a
    size-1 array demotes to a scalar argument and a chain with no array
    operands never reaches the tier."""
    n = draw(st.integers(min_value=2, max_value=7))
    out = [np.ascontiguousarray(
        draw(st.lists(elements, min_size=n, max_size=n)))]
    for _ in range(NSLOTS - 1):
        if draw(st.booleans()):
            out.append(np.ascontiguousarray(
                draw(st.lists(elements, min_size=n, max_size=n))))
        else:
            out.append(draw(elements))
    return out


def _bits_match(out, ref):
    if out.tobytes() == ref.tobytes():
        return True
    if out.shape != ref.shape:
        return False
    nan_both = np.isnan(out) & np.isnan(ref)
    same = np.ascontiguousarray(out).view(np.uint64) == \
        np.ascontiguousarray(ref).view(np.uint64)
    return bool(np.all(nan_both | same))


def _check(spec, args, engine=engine):
    with np.errstate(all="ignore"):     # the samples overflow on purpose
        _check_quietly(spec, args, engine)


def _check_quietly(spec, args, engine):
    ref_fn = reference(spec)
    try:
        ref = np.asarray(ref_fn(*args))
    except Exception:
        # the numpy path itself errors (complex intermediate into a
        # real-only ufunc): a guard must have aborted the kernel first,
        # so the tier either raised identically or fell back
        try:
            out = engine.run(spec, args, ref_fn)
        except Exception:
            return
        assert out is None
        return
    out = engine.run(spec, args, ref_fn)
    if out is None:
        return  # fallback is always legal; divergence never is
    if np.iscomplexobj(ref):
        pytest.fail(f"native produced real bits where numpy promotes "
                    f"to complex: {spec!r}")
    assert out.dtype == np.float64
    assert _bits_match(out, np.ascontiguousarray(ref)), (
        f"native bits diverged for {spec!r}\n"
        f"native: {out!r}\nnumpy:  {ref!r}")


_SIGNED_ZEROS = np.array([1.0, -0.0, 3.0, 0.0])


#: the engine is the same for every example of a test
_ONE_ENGINE = [HealthCheck.function_scoped_fixture]


@settings(max_examples=120, deadline=None, suppress_health_check=_ONE_ENGINE)
@given(spec=spec_trees(SAFE_OPS), args=operand_lists())
@example(spec=("fn:sign", "@0"), args=[_SIGNED_ZEROS, 0.0, 0.0])
@example(spec=("./", 1.0, ("fn:sign", "@0")), args=[_SIGNED_ZEROS, 0.0, 0.0])
@example(spec=("fn:sign", (".*", "@0", "@1")),
         args=[_SIGNED_ZEROS, -1.0, 0.0])
def test_exact_chains_never_diverge(native_build, spec, args):
    """Under the flags this host's kernels are built with, and the
    baseline flags (``native_build``)."""
    _check(spec, args, native_build)


def test_sign_of_negative_zero_after_verification():
    """First-call verification sees no negative zero; the kernel it
    admitted must still answer ``sign(-0.0) == +0.0`` as numpy does —
    ``1 ./ sign(x)`` turns the zero's sign into ``-Inf`` vs ``+Inf``."""
    # a spec no other test runs: its first call here is the verification
    spec = ("./", 1.0, ("fn:sign", ("-", "@0", "@1")))
    ref_fn = reference(spec)
    clean = np.array([1.0, -2.0, 3.0, 0.0])
    with np.errstate(divide="ignore"):
        assert engine.run(spec, [clean, 0.0], ref_fn) is not None
        out = engine.run(spec, [_SIGNED_ZEROS, 0.0], ref_fn)
        want = ref_fn(_SIGNED_ZEROS, 0.0)
    assert out is not None
    assert out.tobytes() == want.tobytes()
    assert out[1] == np.inf


@settings(max_examples=120, deadline=None)
@given(spec=spec_trees(ALL_OPS), args=operand_lists())
def test_full_surface_never_diverges(spec, args):
    _check(spec, args)


@settings(max_examples=40, deadline=None)
@given(args=operand_lists())
def test_pow_const_chains_never_diverge(args):
    for const in (0.0, 1.0, 2.0, -1.0):
        _check((".^", ("+", "@0", "@1"), const), args)


def test_every_safe_op_engages():
    """Engagement, deterministically: every guard-free EXACT op must be
    served natively on benign finite inputs (no probe can reject it, no
    guard can abort it, verification must pass)."""
    a = np.array([1.5, 2.5, -3.5, 0.25])
    b = np.array([0.5, -2.0, 4.0, 8.0])
    for op in SAFE_OPS:
        arity = OPS[op].arity
        spec = (op, *(f"@{i}" for i in range(arity)))
        out = engine.run(spec, [a, b][:arity], reference(spec))
        assert out is not None, f"{op} fell back on benign inputs"
        ref = np.asarray(reference(spec)(*[a, b][:arity]))
        assert out.tobytes() == ref.tobytes(), op


@pytest.mark.parametrize("op", sorted(OPS))
def test_c_column_has_the_bits_of_the_numpy_column(native_build, op):
    """One row, both columns, over the probe's samples: the C template
    — the text ``c_emitter`` lists, compiled here through the renderer
    it calls — against the kernel the emitted lambda names, under both
    builds (``native_build``).  An ``exact`` row must run natively and
    agree bit for bit; a ``probed`` row must agree whenever this host's
    probe admitted it."""
    engine = native_build
    row = OPS[op]
    spec = single_op_spec(op)
    domain = "pairs" if (row.arity, row.domain) == (2, "all") else row.domain
    samples = probe_samples(domain)[:row.arity]
    if row.guard is not None:   # stay off the complex-promotion abort
        samples = [np.abs(s) for s in samples]
    ref_fn = reference(spec)
    if op == ".^":
        # the tier takes no variable exponent; the listing spells libm's
        assert spec_to_c(spec, str) == "pow(@0, @1)"
        assert engine.run(spec, samples, ref_fn) is None
        return
    # the kernel's statements are the row's template, as listed
    listed = spec_to_c(spec, lambda slot: f"a{slot[1:]}[i]")
    assert f"= {listed};" in generate_source(spec, "a" * row.arity, "k")[0]
    with np.errstate(all="ignore"):     # the samples overflow on purpose
        out = engine.run(spec, samples, ref_fn)
        want = np.asarray(ref_fn(*samples))
    if row.kind == EXACT:
        assert out is not None, f"{op} fell back"
    elif out is None:
        pytest.skip(f"{op}: not admitted by this host's probe")
    assert out.tobytes() == want.tobytes(), op
