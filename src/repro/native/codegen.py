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

from ..ewops import TAP, UnsupportedSpecError, c_literal, spec_to_c

#: bump whenever generated code or the calling convention changes — the
#: version participates in the content hash, so stale on-disk kernels
#: from older ABIs are never dlopen'ed
ABI_VERSION = 6


def members(spec) -> tuple:
    """A spec or a group spec as the group's ``(spec, slots)`` members;
    a plain spec's slots are its own (``slots`` ``None``)."""
    return spec if spec[0].__class__ is tuple else ((spec, None),)


def spec_key(spec, sig: str, build: str, outs=None, carry=None) -> str:
    """Content hash identifying one compiled kernel.

    Covers the canonical op tree, the slot signature, the codegen ABI
    version, ``build`` (the engine's
    :func:`~repro.native.cache.build_identity`: flags and compiler) and
    a group's ``outs`` or ``carry`` variant (:func:`generate_source`);
    dtype and shape-class are implied (float64, C-contiguous) because
    the signature gate admits nothing else.
    """
    variant = "" if outs is None else f"{outs!r}:"
    if carry is not None:
        variant = f"count:{carry!r}:"
    text = f"repro-native:{ABI_VERSION}:{build}:{sig}:{variant}{spec!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def tap_count(spec) -> int:
    """How many halo taps a spec's group has (a plain spec: none)."""
    return sum(tree[0] == TAP for tree, _ in members(spec))


def generate_source(spec, sig: str, name: str, outs=None,
                    carry=None) -> tuple[str, set[str]]:
    """Render the kernel C source of a spec or a group spec.

    ``outs`` names the members that get an output array, in member
    order (``None``: every member) — a *variant* of the group's kernel:
    a member left out stays in registers, and gcc drops what only it
    needed (its guard, if any, still flags).

    ``carry`` makes the *count* variant of a loop whose body is the
    group (pass 6's ``loop_group``): ``(operand, member)`` pairs, in
    member order, the members the outputs.  Its first argument is a
    count of iterations, and each member gets two output arrays it
    writes in turn; after an iteration the operand reads the array the
    member just wrote, so the operand's own array is never written.  A
    guard returns 1 at the end of the iteration it fired in.

    A group with halo taps (``("tap", "@0", kr, kc)`` members) is a
    loop over the rows of the arrays and, in each row, over column
    segments: a tap reads its source's row ``r - ur`` and column ``j -
    uc`` with both wrapped around (``circshift``'s rotation, which the
    caller passes as ``ur``/``uc`` per tap after the operands), so the
    wrap moves only at a segment boundary and each segment's inner loop
    reads through one offset per tap — a vector loop.  With no column
    shift the rows are one row.

    Returns ``(source, ops_used)`` where ``ops_used`` is the set of op
    registry keys the kernel depends on (the engine gates PROBED ops on
    their one-time differential probe before compiling).

    Raises :class:`UnsupportedSpecError` for anything outside the
    compilable subset — the caller records the spec as permanently
    numpy-only.
    """
    if carry is not None:
        return _count_source(spec, sig, name, carry)
    return _step_source(spec, sig, name, outs, "")


def _step_source(spec, sig: str, name: str, outs,
                 storage: str) -> tuple[str, set[str]]:
    """:func:`generate_source`'s one pass over the arrays, its function
    declared with ``storage`` (``"static "`` inside a count variant)."""
    if not isinstance(spec, tuple) or not spec:
        raise UnsupportedSpecError("spec is not an op tree")
    body: list[str] = []
    ops_used: set[str] = set()
    temps = itertools.count()
    guarded = False
    #: each member's value, as C names it (an array's: every member's is)
    values: list[str] = []
    #: per tap, the group operand it rotates
    taps: list[int] = []
    group = members(spec)
    outs = range(len(group)) if outs is None else outs
    #: the index of an element in the output arrays and the operands
    at = "o + j" if tap_count(spec) else "i"

    def bind(op, row, args) -> str:
        nonlocal guarded
        if op == ".^":
            raise UnsupportedSpecError(".^ exponent")
        ops_used.add(op)
        if row.guard is not None:
            guarded = True
            body.append(f"bad = {row.guard.format(*args)} ? 1.0 : bad;")
        tmp = f"t{next(temps)}"
        body.append(f"double {tmp} = {row.c.format(*args)};")
        return tmp

    for k, (tree, slots) in enumerate(group):
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
                return f"a{slot}[{at}]"
            return f"s{slot}"

        if tree[0] == TAP:
            # its one slot: an array operand of the group
            slot = slots[0] if slots is not None and slots else None
            if slot.__class__ is not int or not 0 <= slot < len(sig) \
                    or sig[slot] != "a":
                raise UnsupportedSpecError("a tap reads a group operand")
            reads_array = True
            t = len(taps)
            taps.append(slot)
            value = f"t{next(temps)}"
            body.append(f"double {value} = p{t}[j + d{t}];")
        else:
            value = spec_to_c(tree, leaf, bind)
        values.append(value)
        if not reads_array:
            # its value is one scalar: ``rt.ew`` would not return an array
            raise UnsupportedSpecError(f"member {k} reads no array")
        if k in outs:
            body.append(f"out{k}[{at}] = {value};")
    params = "".join(
        f", const double *restrict a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    params = "".join(f", double *restrict out{k}" for k in outs) + params
    head = ["#include <math.h>", ""]
    flag = ["    double bad = 0.0;"] if guarded else []
    tail = ["    return bad != 0.0;" if guarded else "    return 0;", "}", ""]
    if not taps:
        return "\n".join([
            *head, f"{storage}int {name}(long n{params})", "{", "    long i;",
            *flag,
            "    for (i = 0; i < n; i++) {",
            *[f"        {line}" for line in body], "    }", *tail]), ops_used
    shifts = "".join(f", long ur{t}, long uc{t}" for t in range(len(taps)))
    flat = " && ".join(f"uc{t} == 0" for t in range(len(taps)))
    lines = [
        *head, f"{storage}int {name}(long rows, long cols{params}{shifts})",
        "{",
        "    long r, o, lo, hi, j;", *flag,
        f"    if ({flat}) {{",
        "        /* no column shift: the rows are one row */",
        *[f"        uc{t} = ur{t} * cols;" for t in range(len(taps))],
        *[f"        ur{t} = 0;" for t in range(len(taps))],
        "        cols *= rows;",
        "        rows = 1;",
        "    }",
        "    for (r = 0; r < rows; r++) {",
        "        o = r * cols;",
        *[f"        const double *restrict p{t} = a{slot} + (r >= ur{t} ? "
          f"r - ur{t} : r - ur{t} + rows) * cols;"
          for t, slot in enumerate(taps)],
        "        for (lo = 0; lo < cols; lo = hi) {",
        "            hi = cols;",
        *[f"            if (uc{t} > lo && uc{t} < hi) hi = uc{t};"
          for t in range(len(taps))],
        *[f"            long d{t} = lo >= uc{t} ? -uc{t} : cols - uc{t};"
          for t in range(len(taps))],
        "            for (j = lo; j < hi; j++) {",
        *[f"                {line}" for line in body],
        "            }",
        "        }",
        "    }",
        *tail]
    return "\n".join(lines), ops_used


def _count_source(spec, sig: str, name: str,
                  carry) -> tuple[str, set[str]]:
    """The count variant: the lean step as a static function, called
    once per iteration by a loop that swaps each carried operand for
    the array its member wrote."""
    outs = tuple([k for _, k in carry])
    for slot, k in carry:
        if not 0 <= slot < len(sig) or sig[slot] != "a" \
                or not 0 <= k < len(members(spec)):
            raise UnsupportedSpecError("a carried value is an array")
    step, ops_used = _step_source(spec, sig, f"{name}_step", outs,
                                  "static ")
    ntaps = tap_count(spec)
    extent = ("rows", "cols") if ntaps else ("n",)
    pair = "".join(f", double *out{k}_0, double *out{k}_1" for k in outs)
    params = "".join(
        f", const double *a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    shifts = "".join(f", long ur{t}, long uc{t}" for t in range(ntaps))
    args = ", ".join([*extent, *[f"d{k}" for k in outs],
                      *[f"{kind}{i}" for i, kind in enumerate(sig)],
                      *[f"u{axis}{t}" for t in range(ntaps)
                        for axis in "rc"]])
    lines = [
        step,
        f"int {name}(long count, long {', long '.join(extent)}"
        f"{pair}{params}{shifts})",
        "{",
        "    long it;",
        "    for (it = 0; it < count; it++) {",
        *[f"        double *d{k} = it & 1 ? out{k}_1 : out{k}_0;"
          for k in outs],
        f"        if ({name}_step({args})) return 1;",
        *[f"        a{slot} = d{k};" for slot, k in carry],
        "    }",
        "    return 0;",
        "}",
        ""]
    return "\n".join(lines), ops_used


def cdef_signature(sig: str, name: str, nout: int = 1,
                   ntaps: int = 0, counted: bool = False) -> str:
    """The cffi ``cdef`` declaration matching :func:`generate_source`
    (``nout`` output arrays, ``ntaps`` halo taps; ``counted``: a count
    variant, whose ``nout`` outputs are pairs)."""
    outs = "".join(f", double *out{k}" for k in range(nout * (1 + counted)))
    params = "".join(
        f", const double *a{i}" if kind == "a" else f", double s{i}"
        for i, kind in enumerate(sig))
    count = "long count, " if counted else ""
    if not ntaps:
        return f"int {name}({count}long n{outs}{params});"
    shifts = "".join(f", long ur{t}, long uc{t}" for t in range(ntaps))
    return f"int {name}({count}long rows, long cols{outs}{params}{shifts});"
