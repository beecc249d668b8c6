"""Spec tree -> C source for the native kernel tier.

A *spec* (``repro.ewops``) is the elementwise op tree the emitter lowers
into the ``rt.ew`` lambda, serialized as nested tuples.  Together with
the call-site *signature* (one ``'a'``/``'s'`` char per slot: float64
array or real scalar) a spec maps deterministically to one C translation
unit: a single loop, one statement per op node, zero intermediate arrays.

A *group spec* (pass 6's ``ew_group``, :func:`repro.ir.nodes.group_spec`)
is a tuple of member ``(spec, slots)`` pairs and maps to the same loop
with one output per member: a member's ``"@N"`` reads group operand
``slots[N]`` or, for ``"#K"``, the value member ``K`` left in a
register.  A plain spec is the group of one.

Kernels return ``int``: 0 on success, 1 when a semantic guard fired
(e.g. ``sqrt`` of a negative — MATLAB promotes to complex, C cannot),
in which case the caller discards the output buffers and re-runs the
chain through numpy.  A guard does not leave the loop: it folds into a
flag with a select (``bad = cond ? 1.0 : bad``), which keeps the loop
free of control flow, so it vectorizes.
"""

from __future__ import annotations

import hashlib
import itertools

from ..ewops import UnsupportedSpecError, c_literal, spec_to_c

#: bump whenever generated code or the calling convention changes — the
#: version participates in the content hash, so stale on-disk kernels
#: from older ABIs are never dlopen'ed
ABI_VERSION = 6


def members(spec) -> tuple:
    """A spec or a group spec as the group's ``(spec, slots)`` members;
    a plain spec's slots are its own (``slots`` ``None``)."""
    return spec if spec[0].__class__ is tuple else ((spec, None),)


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
    """Render the kernel C source of a spec or a group spec.

    Returns ``(source, ops_used)`` where ``ops_used`` is the set of op
    registry keys the kernel depends on (the engine gates PROBED ops on
    their one-time differential probe before compiling).

    Raises :class:`UnsupportedSpecError` for anything outside the
    compilable subset — the caller records the spec as permanently
    numpy-only.
    """
    if not isinstance(spec, tuple) or not spec:
        raise UnsupportedSpecError("spec is not an op tree")
    body: list[str] = []
    ops_used: set[str] = set()
    temps = itertools.count()
    guarded = False
    #: each member's value, as C names it (an array's: every member's is)
    values: list[str] = []

    def bind(op, row, args) -> str:
        nonlocal guarded
        if op == ".^":
            raise UnsupportedSpecError(".^ exponent")
        ops_used.add(op)
        if row.guard is not None:
            guarded = True
            body.append(f"        bad = {row.guard.format(*args)} "
                        f"? 1.0 : bad;")
        tmp = f"t{next(temps)}"
        body.append(f"        double {tmp} = {row.c.format(*args)};")
        return tmp

    for k, (tree, slots) in enumerate(members(spec)):
        if not isinstance(tree, tuple):
            raise UnsupportedSpecError("member is not an op tree")
        reads_array = False

        def leaf(node) -> str:
            nonlocal reads_array
            if not isinstance(node, str):
                return c_literal(node)
            if not node.startswith("@"):
                raise UnsupportedSpecError(f"leaf {node!r}")
            slot = int(node[1:])
            if slots is not None:
                if slot >= len(slots):
                    raise UnsupportedSpecError(f"slot {node!r} out of range")
                slot = slots[slot]
                if slot.__class__ is str:   # "#K": an earlier member
                    member = int(slot[1:])
                    if not 0 <= member < k:
                        raise UnsupportedSpecError(f"member {slot!r}")
                    reads_array = True
                    return values[member]
            if slot < 0 or slot >= len(sig):
                raise UnsupportedSpecError(f"slot {node!r} out of range")
            if sig[slot] == "a":
                reads_array = True
                return f"a{slot}[i]"
            return f"s{slot}"

        values.append(spec_to_c(tree, leaf, bind))
        if not reads_array:
            # its value is one scalar: ``rt.ew`` would not return an array
            raise UnsupportedSpecError(f"member {k} reads no array")
        body.append(f"        out{k}[i] = {values[-1]};")
    outs = "".join(f", double *restrict out{k}" for k in range(len(values)))
    params = "".join(
        f", const double *restrict a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    lines = [
        "#include <math.h>",
        "",
        f"int {name}(long n{outs}{params})",
        "{",
        "    long i;",
        *(["    double bad = 0.0;"] if guarded else []),
        "    for (i = 0; i < n; i++) {",
        *body,
        "    }",
        "    return bad != 0.0;" if guarded else "    return 0;",
        "}",
        "",
    ]
    return "\n".join(lines), ops_used


def cdef_signature(sig: str, name: str, nout: int = 1) -> str:
    """The cffi ``cdef`` declaration matching :func:`generate_source`."""
    outs = "".join(f", double *out{k}" for k in range(nout))
    params = "".join(
        f", const double *a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    return f"int {name}(long n{outs}{params});"
