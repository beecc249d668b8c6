"""Spec tree -> C source for the native kernel tier.

A *spec* (``repro.ewops``) is the elementwise op tree the emitter lowers
into the ``rt.ew`` lambda, serialized as nested tuples.  Together with
the call-site *signature* (one ``'a'``/``'s'`` char per slot: float64
array or real scalar) a spec maps deterministically to one C translation
unit: a single loop, one statement per op node, zero intermediate arrays.

Kernels return ``int``: 0 on success, 1 when a semantic guard fired
(e.g. ``sqrt`` of a negative — MATLAB promotes to complex, C cannot),
in which case the caller discards the output buffer and re-runs the
chain through numpy.
"""

from __future__ import annotations

import hashlib
import itertools

from ..ewops import UnsupportedSpecError, c_literal, spec_to_c

#: bump whenever generated code or the calling convention changes — the
#: version participates in the content hash, so stale on-disk kernels
#: from older ABIs are never dlopen'ed
ABI_VERSION = 5


def spec_key(spec, sig: str, build: str) -> str:
    """Content hash identifying one compiled kernel.

    Covers the canonical op tree, the slot signature, the codegen ABI
    version and ``build`` (the engine's
    :func:`~repro.native.cache.build_identity`: flags and compiler);
    dtype and shape-class are implied (float64, flat C-contiguous)
    because the signature gate admits nothing else.
    """
    text = f"repro-native:{ABI_VERSION}:{build}:{sig}:{spec!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def generate_source(spec, sig: str, name: str) -> tuple[str, set[str]]:
    """Render the kernel C source.

    Returns ``(source, ops_used)`` where ``ops_used`` is the set of op
    registry keys the kernel depends on (the engine gates PROBED ops on
    their one-time differential probe before compiling).

    Raises :class:`UnsupportedSpecError` for anything outside the
    compilable subset — the caller records the spec as permanently
    numpy-only.
    """
    if not isinstance(spec, tuple):
        raise UnsupportedSpecError("spec is not an op tree")
    body: list[str] = []
    ops_used: set[str] = set()
    temps = itertools.count()

    def leaf(node) -> str:
        if not isinstance(node, str):
            return c_literal(node)
        if not node.startswith("@"):
            raise UnsupportedSpecError(f"leaf {node!r}")
        slot = int(node[1:])
        if slot < 0 or slot >= len(sig):
            raise UnsupportedSpecError(f"slot {node!r} out of range")
        return f"a{slot}[i]" if sig[slot] == "a" else f"s{slot}"

    def bind(op, row, args) -> str:
        if op == ".^":
            raise UnsupportedSpecError(".^ exponent")
        ops_used.add(op)
        if row.guard is not None:
            body.append(f"        if {row.guard.format(*args)} return 1;")
        tmp = f"t{next(temps)}"
        body.append(f"        double {tmp} = {row.c.format(*args)};")
        return tmp

    result = spec_to_c(spec, leaf, bind)
    params = "".join(
        f", const double *restrict a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    lines = [
        "#include <math.h>",
        "",
        f"int {name}(long n, double *restrict out{params})",
        "{",
        "    long i;",
        "    for (i = 0; i < n; i++) {",
        *body,
        f"        out[i] = {result};",
        "    }",
        "    return 0;",
        "}",
        "",
    ]
    return "\n".join(lines), ops_used


def cdef_signature(sig: str, name: str) -> str:
    """The cffi ``cdef`` declaration matching :func:`generate_source`."""
    params = "".join(
        f", const double *a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    return f"int {name}(long n, double *out{params});"
