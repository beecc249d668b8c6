"""The native tier's loops are vector loops.

Every :data:`repro.ewops.OPS` row the tier compiles is built as its
single-op kernel — one array operand (``a``), or for a binary row two
arrays (``aa``) and an array and a scalar (``as``) — to assembly, with
the flags the engine builds with (``engine.flags``: the baseline
:data:`~repro.native.cache.BUILD_FLAGS`, plus ``-march=x86-64-v3`` on a
host that runs it) plus gcc's ``-fopt-info-vec-optimized``, which names
the loops it turned into SIMD lanes.  Every row not listed below as
scalar by design must vectorize (or, for a plain copy or fill, become
one ``memcpy``/``memset``), and no kernel may hold an FMA instruction:
x86-64-v3 has them, ``-ffp-contract=off`` keeps them out.  gcc only:
other compilers report differently, so the test skips there.
"""

import re
import subprocess

import pytest

from repro.ewops import OPS, UnsupportedSpecError, single_op_spec
from repro.native import get_engine
from repro.native.codegen import generate_source

_LIBM = "a libm call per element: glibc's vector variants are not the " \
        "scalar function's bits"
_ROUNDING = "libm rounding: baseline x86-64 (SSE2) has no packed " \
            "floor/ceil/trunc (SSE4.1's roundpd, which x86-64-v3 has: " \
            "there these rows vectorize)"

#: rows whose loop stays scalar on purpose, and why (a guard is not a
#: reason: it folds into a flag, and ``sqrt`` of one array vectorizes)
SCALAR_BY_DESIGN = {
    **{op: _LIBM for op in (
        "fn:log", "fn:log2", "fn:log10",
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


ENGINE = get_engine()
V3 = ENGINE.available and ENGINE.isa == "x86-64-v3"

pytestmark = pytest.mark.skipif(
    not ENGINE.available or not _is_gcc(ENGINE.cc),
    reason="needs the native tier, built by gcc (-fopt-info)")

#: an FMA instruction (``vfmadd231pd``, ``vfnmsub132sd``, ...)
FMA = re.compile(r"\bvfn?m(add|sub)")


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
    """What gcc says it vectorized in ``source``, compiled as the engine
    compiles it; fails on an FMA in the assembly."""
    src = tmp_path / "k.c"
    src.write_text(source)
    proc = subprocess.run(
        [ENGINE.cc, *ENGINE.flags, "-fopt-info-vec-optimized",
         "-fopt-info-loop-optimized", "-S", str(src), "-o",
         str(tmp_path / "k.s")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fma = FMA.search((tmp_path / "k.s").read_text())
    assert fma is None, f"{fma.group(0)} in\n{source}"
    return proc.stderr


@pytest.mark.parametrize("op, sig, source", _compiled_rows())
def test_every_row_vectorizes_unless_scalar_by_design(tmp_path, op, sig,
                                                      source):
    info = _opt_info(tmp_path, source)
    if op in SCALAR_BY_DESIGN and not (
            V3 and SCALAR_BY_DESIGN[op] is _ROUNDING):
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


def _group_kernel():
    """The C text of the image filter's step as ``ew_group`` alone makes
    it: one group of ten members (``blur`` ... ``max``) over the four
    shifted images, ``img`` and ``tau``."""
    from repro.bench.workloads import image_filter
    from repro.compiler import compile_source
    from repro.ir.nodes import EwGroup, group_spec
    from repro.tuning import DEFAULT_PLAN, Plan

    ir = compile_source(image_filter(n=32, steps=1).source, plan=Plan(
        fusion=tuple(name for name in DEFAULT_PLAN.fusion
                     if name not in ("halo", "lean")))).ir
    groups = [stmt for block in ir.walk() for stmt in block
              if isinstance(stmt, EwGroup)]
    assert [len(group.members) for group in groups] == [10]
    members, operands = group_spec(groups[0])
    sig = "a" * 5 + "s"      # north, south, west, east, img; tau
    assert [op.name for op in operands] == [
        "north", "south", "west", "east", "img", "tau"]
    source, _ = generate_source(
        tuple((spec, slots) for spec, _, slots, _ in members), sig, "k")
    assert source.count("out") == 2 * 10 and "bad = " in source
    return source


def _tap_kernel(variant):
    """The C text of the image filter's step with its four shifts as
    halo taps: the ``lean`` variant of a step before the last, or the
    ``full`` one of the last."""
    from repro.bench.workloads import image_filter
    from repro.compiler import compile_source
    from repro.ir.nodes import LIVE, EwGroup, group_spec

    ir = compile_source(image_filter(n=32, steps=2).source).ir
    groups = [stmt for block in ir.walk() for stmt in block
              if isinstance(stmt, EwGroup)]
    assert [len(group.members) for group in groups] == [14]
    members, operands = group_spec(groups[0])
    assert [op.name for op in operands] == ["img", "tau"]
    outs = tuple(k for k, mark in enumerate(groups[0].live)
                 if mark == LIVE or variant == "full" and mark)
    assert len(outs) == {"lean": 1, "full": 13}[variant]
    source, _ = generate_source(
        tuple((spec, slots) for spec, _, slots, _ in members), "as", "k",
        outs)
    assert source.count("out") == 2 * len(outs)
    assert source.count("p0[j + d0]") == 1 and "long ur3, long uc3" in source
    return source


def test_image_filters_group_kernel_vectorizes(tmp_path):
    """The group's one loop — ten outputs, the ``sqrt`` guard in a
    flag, the NaN-aware ``min``/``max`` selects — is a vector loop
    under the engine's own flags."""
    source = _group_kernel()
    info = _opt_info(tmp_path, source)
    assert "loop vectorized" in info, f"{source}\n{info}"


@pytest.mark.parametrize("variant", ["lean", "full"])
def test_image_filters_tap_kernels_vectorize(tmp_path, variant):
    """With its four shifts as halo taps the step's group reads ``img``
    once: the kernel of a step before the last writes ``img`` alone (the
    *lean* variant), the last step's every member but the temporaries
    — and each segment of a row is a vector loop either way."""
    source = _tap_kernel(variant)
    info = _opt_info(tmp_path, source)
    assert "loop vectorized" in info, f"{source}\n{info}"


@pytest.mark.skipif(not V3, reason="the host does not run x86-64-v3")
@pytest.mark.parametrize("variant", ["group", "lean", "full"])
def test_image_filters_kernels_take_avx2_lanes(tmp_path, variant):
    """Where the CPU runs x86-64-v3, the engine builds for it: the step
    kernels' vector loops are four doubles wide."""
    source = _group_kernel() if variant == "group" else _tap_kernel(variant)
    info = _opt_info(tmp_path, source)
    assert "using 32 byte vectors" in info, f"{source}\n{info}"
