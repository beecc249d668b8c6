"""Distributed structural operations: reshape, shifts, flips, triangles,
diag, repmat, and a parallel sample sort.

``reshape``, ``repmat`` and ``flipud`` (and a vector's flips) are each
one :func:`~repro.runtime.remap.remap`: only the pieces that change rank
move, in one alltoall.  Triangle masking (`tril`/`triu`) and a matrix's
``fliplr`` are fully local — each rank knows the global indices of its
block.  ``diag``, ``sort``'s fallback and ``circshift``'s cyclic path
gather the operand.  ``circshift`` along the distributed
axis of a block-distributed array (a vector's elements, a matrix's rows)
is a single ring boundary exchange for stencil-sized shifts (an alltoall
of per-destination pieces for larger ones).  ``sort`` uses a parallel
*sample sort* (an extension the
paper lists as future work for the run-time library): local sort, sample,
broadcast splitters, alltoall exchange, local merge.
"""

from __future__ import annotations

import numpy as np

from ..errors import MatlabRuntimeError
from ..interp import values as V
from .matrix import DMatrix, FusedDMatrix, RValue
from .remap import remap

# Fused-backend paths: same per-block kernels and the same charges as
# lockstep (see linalg.py); communication becomes in-process permutation.


def reshape(rt, value: RValue, rows: RValue, cols: RValue) -> RValue:
    r = rt.int_scalar(rows, "reshape")
    c = rt.int_scalar(cols, "reshape")
    shape = rt.shape_of(value)
    if r * c != shape[0] * shape[1]:
        raise MatlabRuntimeError("reshape: element counts must match")
    if isinstance(value, DMatrix):
        # column-major order is kept: element e of the result is e of A
        linear = np.arange(r)[:, None] + r * np.arange(c)
        return remap(rt, value, linear % shape[0], linear // shape[0],
                     (r, c))
    full = V.as_matrix(value)
    rt.comm.compute(mem=full.size)
    out = full.reshape((r, c), order="F")
    return rt.distribute_full(out) if out.size > 1 else V.simplify(out)


def repmat(rt, value: RValue, m: RValue, n: RValue) -> RValue:
    # a negative count tiles nothing, as a zero does
    mv = max(rt.int_scalar(m, "repmat"), 0)
    nv = max(rt.int_scalar(n, "repmat"), 0)
    if isinstance(value, DMatrix):
        rows, cols = value.shape
        return remap(rt, value, (np.arange(mv * rows) % rows)[:, None],
                     (np.arange(nv * cols) % cols)[None, :],
                     (mv * rows, nv * cols))
    full = V.as_matrix(value)
    out = np.tile(full, (mv, nv))
    rt.comm.compute(mem=out.size // max(rt.size, 1))
    return rt.distribute_full(out) if out.size > 1 else V.simplify(out)


def _shift_amounts(rt, shift: RValue) -> tuple[int, int | None]:
    """MATLAB's shift argument: a scalar (shift along the first
    non-singleton dimension) or a two-element vector ``[rows cols]``."""
    if isinstance(shift, float):        # the stencil's circshift(v, 1)
        if shift != int(shift):
            raise MatlabRuntimeError("circshift: expected an integer")
        return int(shift), None
    if shift.__class__ is tuple:
        # an immediate: a constant ``[rows cols]`` pass 6 checked (two
        # whole numbers) and passed by value — nothing to gather
        kr, kc = [int(v) for row in shift for v in row]
        return kr, kc
    if isinstance(shift, DMatrix):
        shift = rt.gather_full(shift)
    arr = V.as_matrix(shift)
    if arr.size == 1:
        return rt.int_scalar(shift, "circshift"), None
    if arr.size == 2:
        vals = [v.real if isinstance(v, complex) else v for v in arr.flat]
        if any(float(v) != int(v) for v in vals):
            raise MatlabRuntimeError("circshift: expected an integer")
        return int(vals[0]), int(vals[1])
    raise MatlabRuntimeError(
        "circshift: shift must be a scalar or a two-element vector")


_FLOAT64 = np.dtype(np.float64)


def _rotated(mat: DMatrix, k: int, axis: int) -> DMatrix:
    """``np.roll`` of what ``mat`` holds by ``k`` along ``axis``, as the
    two slice copies it is made of (a sixth of ``np.roll``'s cost on a
    stencil-sized vector) — into a recycled buffer when ``mat`` has
    them (``mat.spare``: a fused descriptor) and holds float64."""
    held = mat.held
    n = held.shape[axis]
    k %= n
    spare = mat.spare
    out = spare.take(held.shape) \
        if spare is not None and held.dtype is _FLOAT64 \
        else np.empty(held.shape, held.dtype)
    if axis == 0:
        out[:k] = held[n - k:]
        out[k:] = held[:n - k]
    else:
        out[:, :k] = held[:, n - k:]
        out[:, k:] = held[:, :n - k]
    return mat.like(out)


#: a shift step that moves nothing: a whole turn, still a fresh copy
COPY = ("copy",)


def shift_plan(value: FusedDMatrix, kr: int, kc: int | None):
    """How ``circshift(value, [kr kc])`` (``kc`` ``None``:
    ``circshift(value, kr)``) moves a fused array when it gathers
    nothing: ``(ur, uc, col, row)``, the rotation of what ``value``
    holds along its rows and columns (``0 <= ur < rows``, ``0 <= uc <
    cols``), whether a column step runs and the step along the
    distributed axis — ``None``, :data:`COPY`, ``("ring", nbytes,
    forward)`` or ``("alltoall", piece)``.  ``None`` for the gathering
    paths: cyclic maps, a matrix with fewer rows than ranks, an empty
    array.

    The one answer both readers take: :func:`circshift`'s fused arm and
    a group's halo tap (:meth:`Group.tap
    <repro.runtime.context.Group.tap>`), which charges
    :func:`charge_shift` of it for the shift it does not make."""
    geom = value.geom
    rows, cols = geom.shape
    col = 0
    if kc is not None:
        if geom.is_vector:
            # one non-singleton dimension: the scalar shift along it
            kr = kc if rows == 1 else kr
        else:
            col = kc % cols if cols else 0
            if rows == 0 or kr % rows == 0:
                return (0, col, True, None) if col else (0, 0, False, COPY)
    if geom.scheme != "block" or not (geom.is_vector
                                      or rows >= geom.nprocs):
        return None
    amap = geom.map
    n = amap.n
    if n == 0:
        return None
    k = kr % n
    if k == 0:
        row = COPY
    elif geom.nprocs > 1 and (k <= amap.base or n - k <= amap.base):
        # |k| up to the smallest block: one ring boundary exchange (a
        # large positive shift is a small negative one)
        signed = k if k <= amap.base else k - n
        row = ("ring", abs(signed) * geom.width * value.held.itemsize,
               signed > 0)
    else:
        # the largest piece is a (dest-indices int64, values) tuple, as
        # the lockstep path packs it
        c0 = geom.shift_overlap(k)
        row = ("alltoall",
               c0 * 8 + c0 * geom.width * value.held.itemsize + 8)
    if rows == 1:
        return (0, k, bool(col), row)
    return (k, col, bool(col), row)


def charge_shift(comm, load, plan) -> None:
    """Everything :func:`circshift` charges for a :func:`shift_plan`,
    in its order: the column step is a local pass, the distributed one
    a ring exchange, an alltoall or (a whole turn) the overhead alone."""
    _, _, col, row = plan
    if col:
        comm.charge(mem=load)
    if row is None:
        return
    kind = row[0]
    if kind == "ring":
        comm.ring_exchange(row[1], forward=row[2])
        comm.charge(mem=load)
    elif kind == "alltoall":
        comm.charge(mem=load)
        comm.charge_alltoall(row[1])
    else:
        comm.overhead()


def circshift(rt, value: RValue, shift: RValue) -> RValue:
    kr, kc = _shift_amounts(rt, shift)
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.compute(mem=arr.size)
        if kc is not None:
            return V.simplify(np.roll(arr, (kr, kc), axis=(0, 1)))
        axis = 1 if arr.shape[0] == 1 else 0
        return V.simplify(np.roll(arr, kr, axis=axis))
    if value.__class__ is FusedDMatrix:
        # P boundary exchanges (or one alltoall), charged in closed
        # form; the movement is one rotation of the full array per step
        plan = shift_plan(value, kr, kc)
        if plan is not None:
            charge_shift(rt.comm, value.load, plan)
            ur, uc, col, row = plan
            if col:
                value = _rotated(value, uc, 1)
            if row is None:
                return value
            if row is COPY:
                return value.like(value.held.copy())
            return _rotated(value, uc, 1) if value.rows == 1 \
                else _rotated(value, ur, 0)
    if kc is not None:
        return _circshift2(rt, value, kr, kc)
    if (value.is_vector or value.rows >= rt.size) \
            and value.scheme == "block":
        return _circshift_block(rt, value, kr)
    # cyclic maps, and matrices with fewer rows than ranks (some blocks
    # are empty, so no neighbour holds the boundary)
    full = rt.gather_full(value, copy=False)  # np.roll allocates fresh
    axis = 1 if value.rows == 1 else 0
    rt.comm.compute(mem=full.size)
    return rt.distribute_full(np.roll(full, kr, axis=axis))


def _circshift2(rt, value: DMatrix, kr: int, kc: int) -> RValue:
    """``circshift(A, [kr kc])``: row component then column component.

    A vector has one non-singleton dimension, so the matching component
    routes through the scalar path.  For a matrix the *column* component
    never crosses rank boundaries under the row-contiguous distribution
    — every rank rolls its own rows locally, no communication — which
    is what makes two-element ``circshift`` the stencil-friendly way to
    reach horizontal neighbours (the scalar form would need a transpose
    sandwich); the *row* component is the scalar path too: whole rows
    move between ranks exactly as a vector's elements do."""
    if value.is_vector:
        k = kc if value.rows == 1 else kr
        return circshift(rt, value, float(k))
    if value.cols == 0 or kc % value.cols == 0:
        kc = 0
    if kc:
        rt.comm.charge(mem=value.load)
        value = _rotated(value, kc, 1)
    if value.rows == 0 or kr % value.rows == 0:
        if kc:
            return value
        rt.comm.overhead()  # pure no-op shift still returns a fresh copy
        return value.like(value.held.copy())
    return circshift(rt, value, float(kr))


def _circshift_block(rt, vec: DMatrix, k: int) -> DMatrix:
    """Shift along the distributed axis of a block-distributed array:
    the elements of a vector, the rows of a matrix (``vec.geom.width``
    elements each) — one rank's block (the fused arm is
    :func:`shift_plan`'s).

    Small shifts (|k| up to the smallest block) are a single ring
    boundary exchange — the stencil-friendly fast path.  Larger shifts
    fall back to an alltoall of per-destination pieces."""
    n = vec.geom.map.n
    if n == 0:
        return vec
    k = k % n
    if k == 0:
        rt.comm.overhead()
        return vec.like(vec.held.copy())
    min_count = vec.geom.map.base       # a block map's smallest block
    if rt.size > 1 and (k <= min_count or n - k <= min_count):
        # (a large positive shift is a small negative one)
        return _circshift_ring(rt, vec, k if k <= min_count else k - n)
    # Pack one (indices, values) array pair per destination rank — no
    # per-element Python: owners() is pure arithmetic, a stable argsort
    # groups elements (rows) by destination, and each piece is a
    # contiguous slice.  sizeof() is O(1) on these payloads.
    gidx = vec.global_row_indices()
    dest_global = (gidx + k) % n
    owners = vec.geom.map.owners(dest_global)
    order = np.argsort(owners, kind="stable")
    sorted_dest = dest_global[order]
    sorted_vals = vec.local[order]
    counts = np.bincount(owners, minlength=rt.size)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    outgoing = [(sorted_dest[offsets[r]:offsets[r + 1]],
                 sorted_vals[offsets[r]:offsets[r + 1]])
                for r in range(rt.size)]
    rt.comm.charge(mem=vec.load)
    incoming = rt.comm.alltoall(outgoing)
    new_local = np.empty_like(vec.local)
    for piece_dest, piece_vals in incoming:
        new_local[vec.geom.map.local_indices(piece_dest)] = piece_vals
    return vec.like(new_local)


def _circshift_ring(rt, vec: DMatrix, k: int) -> DMatrix:
    """Shift by |k| <= min block: each rank's last k elements (rows) go
    to the next rank's front (for k < 0, its first |k| to the previous
    rank's back) in one ring step, instead of an alltoall."""
    local = vec.local
    forward = k > 0
    boundary = np.ascontiguousarray(local[-k:] if forward else local[:-k])
    received = rt.comm.ring_step(boundary, forward)
    if not local.size:
        new_local = local.copy()
    elif forward:
        new_local = np.concatenate([received, local[:-k]])
    else:
        new_local = np.concatenate([local[-k:], received])
    rt.comm.charge(mem=vec.load)
    return vec.like(np.asarray(new_local, dtype=vec.local.dtype))


def flip(rt, value: RValue, axis: int) -> RValue:
    """fliplr (axis=1) / flipud (axis=0)."""
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.compute(mem=arr.size)
        return V.simplify(np.flip(arr, axis=axis))
    if axis == 1 and not value.is_vector:
        # column flip is local for row-distributed matrices
        rt.comm.charge(mem=value.load)
        return value.like(np.ascontiguousarray(np.flip(value.held, axis=1)))
    # a permutation along the axis: the pieces that change rank move
    rows, cols = (np.arange(n) for n in value.shape)
    if axis == 0:
        rows = rows[::-1]
    else:
        cols = cols[::-1]
    return remap(rt, value, rows[:, None], cols[None, :], value.shape)


def triangle(rt, value: RValue, k: RValue, lower: bool) -> RValue:
    kv = 0 if k is None else rt.int_scalar(k, "tril/triu")
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.compute(elems=arr.size)
        return V.simplify(np.tril(arr, kv) if lower else np.triu(arr, kv))
    # local masking using the held items' global indices (a vector's
    # elements, a matrix's rows) — no communication
    gidx = value.global_row_indices()
    if not value.is_vector:
        row, col = gidx[:, None], np.arange(value.cols)[None, :]
    elif value.rows == 1:
        row, col = 0, gidx
    else:
        row, col = gidx, 0
    mask = col <= row + kv if lower else col >= row + kv
    rt.comm.charge(elems=value.load)
    held = value.held
    return value.like(np.where(mask.reshape(held.shape), held,
                               0.0).astype(held.dtype))


def diag(rt, value: RValue) -> RValue:
    shape = rt.shape_of(value)
    if shape[0] == 1 or shape[1] == 1:
        # vector -> diagonal matrix: local rows pick their own element
        full_v = (rt.gather_full(value) if isinstance(value, DMatrix)
                  else V.as_matrix(value)).reshape(-1)
        n = full_v.size
        out = np.diag(full_v)
        rt.comm.compute(mem=n)
        return rt.distribute_full(out) if out.size > 1 else V.simplify(out)
    # matrix -> main diagonal column vector: local extraction + assembly
    full = rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)
    out = np.diag(full).reshape(-1, 1)
    rt.comm.compute(mem=out.size)
    return rt.distribute_full(out) if out.size > 1 else V.simplify(out)


def _sort_cost(n: int) -> int:
    """What sorting ``n`` elements is charged, in elements."""
    return n * max(int(np.log2(n)) if n > 1 else 1, 1)


def sort(rt, value: RValue) -> RValue:
    """Ascending sort; vectors use a parallel sample sort."""
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.compute(elems=_sort_cost(arr.size))
        axis = 1 if arr.shape[0] == 1 else 0
        return V.simplify(np.sort(arr, axis=axis))
    if value.is_vector and value.scheme == "block" and rt.size > 1:
        return _sample_sort(rt, value)
    full = rt.gather_full(value)
    rt.comm.compute(elems=_sort_cost(full.size))
    axis = 1 if value.rows == 1 else 0
    return rt.distribute_full(np.sort(full, axis=axis))


def _sample_sort(rt, vec: DMatrix) -> DMatrix:
    """Classic sample sort returning the paper's block distribution,
    over the blocks these ranks hold.  What each rank sorts, sends and
    merges depends on the data, so its loads are listed per held rank
    (``comm.own``) and its collectives take one item per held rank."""
    p = rt.size
    comm = rt.comm
    blocks = [np.sort(np.real(block).astype(float))
              for run in vec.stacked() for block in run]
    comm.charge(elems=comm.own([_sort_cost(block.size) for block in blocks]))
    # sample p-1 splitters from every block (or fewer when it is small)
    samples = [block[np.linspace(0, block.size - 1, p + 1)[1:-1].astype(int)]
               if block.size else np.zeros(0) for block in blocks]
    all_samples = np.concatenate(comm.collect(samples))
    all_samples.sort()
    if all_samples.size >= p - 1 and p > 1:
        step = all_samples.size / p
        splitters = all_samples[(np.arange(1, p) * step).astype(int)
                                .clip(0, all_samples.size - 1)]
    else:
        splitters = all_samples[:p - 1]
    # partition every block by splitter buckets and exchange
    outgoing = []
    for block in blocks:
        bucket_ids = np.searchsorted(splitters, block, side="right") \
            if splitters.size else np.zeros(block.size, dtype=int)
        outgoing.append([block[bucket_ids == b] for b in range(p)])
    merged = [np.sort(np.concatenate(incoming))
              for incoming in comm.route(outgoing)]
    comm.compute_own(elems=comm.own([_sort_cost(m.size) for m in merged]))
    # rebalance to the canonical block distribution
    counts = comm.collect([int(m.size) for m in merged])
    offsets = np.cumsum([0] + counts)
    full = np.empty(vec.numel)
    for r, part in enumerate(comm.collect(merged)):
        full[offsets[r]:offsets[r + 1]] = part
    out = full.reshape((vec.rows, vec.cols), order="F")
    result = rt.distribute_full(out)
    assert isinstance(result, DMatrix)
    return result
