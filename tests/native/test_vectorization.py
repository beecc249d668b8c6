"""The native tier's loops are vector loops.

Every :data:`repro.ewops.OPS` row the tier compiles is built as its
single-op kernel — one array operand (``a``), or for a binary row two
arrays (``aa``) and an array and a scalar (``as``) — with the engine's
own :data:`~repro.native.cache.BUILD_FLAGS` plus gcc's
``-fopt-info-vec-optimized``, which names the loops it turned into SIMD
lanes.  Every row not listed below as scalar by design must vectorize
(or, for a plain copy or fill, become one ``memcpy``/``memset``).  gcc
only: other compilers report differently, so the test skips there.
"""

import subprocess

import pytest

from repro.ewops import OPS, UnsupportedSpecError, single_op_spec
from repro.native import find_compiler
from repro.native.cache import BUILD_FLAGS
from repro.native.codegen import generate_source

_LIBM = "a libm call per element: glibc's vector variants are not the " \
        "scalar function's bits"
_GUARD = "early-exit guard: `return 1` on a complex-promoting operand is " \
         "control flow out of the loop"
_ROUNDING = "libm rounding: baseline x86-64 (SSE2) has no packed " \
            "floor/ceil/trunc (SSE4.1's roundpd)"

#: rows whose loop stays scalar on purpose, and why
SCALAR_BY_DESIGN = {
    "fn:sqrt": _GUARD,
    "fn:log": _GUARD, "fn:log2": _GUARD, "fn:log10": _GUARD,
    **{op: _LIBM for op in (
        "fn:exp", "fn:sin", "fn:cos", "fn:tan", "fn:asin", "fn:acos",
        "fn:atan", "fn:sinh", "fn:cosh", "fn:tanh", "fn:angle", "fn:atan2",
        "fn:hypot", "fn:rem", "fn:mod", "fn:power")},
    **{op: _ROUNDING for op in (
        "fn:floor", "fn:ceil", "fn:fix", "fn:round")},
}

#: rows whose loop is a plain copy or fill: gcc replaces it by a
#: ``memcpy``/``memset`` call, which is better than any vector loop
LIBRARY_CALL = {"u+", "fn:double", "fn:real", "fn:conj", "pow:1",
                "fn:imag"}


def _is_gcc(cc):
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return False
    return "Free Software Foundation" in out and "clang" not in out


CC = find_compiler()

pytestmark = pytest.mark.skipif(
    CC is None or not _is_gcc(CC), reason="needs gcc's -fopt-info")


def _compiled_rows():
    cases = []
    for op, row in OPS.items():
        for sig in ("a",) if row.arity == 1 else ("aa", "as"):
            try:
                source, _ = generate_source(single_op_spec(op), sig, "k")
            except UnsupportedSpecError:
                continue        # ``.^``: refused before any compile
            cases.append(pytest.param(op, sig, source, id=f"{op}-{sig}"))
    return cases


def _opt_info(tmp_path, source):
    src = tmp_path / "k.c"
    src.write_text(source)
    proc = subprocess.run(
        [CC, *BUILD_FLAGS, "-fopt-info-vec-optimized",
         "-fopt-info-loop-optimized", str(src), "-o",
         str(tmp_path / "k.so"), "-lm"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


@pytest.mark.parametrize("op, sig, source", _compiled_rows())
def test_every_row_vectorizes_unless_scalar_by_design(tmp_path, op, sig,
                                                      source):
    info = _opt_info(tmp_path, source)
    if op in SCALAR_BY_DESIGN:
        return
    if op in LIBRARY_CALL:
        assert "library calls" in info, info
    else:
        assert "loop vectorized" in info, \
            f"{op} ({sig}) stayed scalar:\n{source}\n{info}"


def test_the_tables_name_real_rows():
    assert set(SCALAR_BY_DESIGN) <= set(OPS)
    assert LIBRARY_CALL <= set(OPS)
    assert not set(SCALAR_BY_DESIGN) & LIBRARY_CALL
