"""Distributed structural operations: reshape, shifts, flips, triangles,
diag, repmat, and a parallel sample sort.

Triangle masking (`tril`/`triu`) is fully local — each rank knows the
global row indices of its block.  ``circshift`` along the distributed
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

# Fused-backend paths: same per-block kernels and the same charges as
# lockstep (see linalg.py); communication becomes in-process permutation.


def reshape(rt, value: RValue, rows: RValue, cols: RValue) -> RValue:
    r = rt.int_scalar(rows, "reshape")
    c = rt.int_scalar(cols, "reshape")
    shape = rt.shape_of(value)
    if r * c != shape[0] * shape[1]:
        raise MatlabRuntimeError("reshape: element counts must match")
    full = rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)
    rt.comm.compute(mem=full.size)
    out = full.reshape((r, c), order="F")
    return rt.distribute_full(out) if out.size > 1 else V.simplify(out)


def repmat(rt, value: RValue, m: RValue, n: RValue) -> RValue:
    mv = rt.int_scalar(m, "repmat")
    nv = rt.int_scalar(n, "repmat")
    full = rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)
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
        comm.overhead()
        comm.compute_own(mem=load)
    if row is None:
        return
    kind = row[0]
    if kind == "ring":
        comm.ring_exchange(row[1], forward=row[2])
        comm.overhead()
        comm.compute_ranks(mem=load)
    elif kind == "alltoall":
        comm.overhead()
        comm.compute_ranks(mem=load)
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
        rt.comm.overhead()
        rt.comm.compute_own(mem=value.load)
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
    if 0 < k <= min_count and rt.size > 1:
        return _circshift_ring(rt, vec, k)
    if 0 < (n - k) <= min_count and rt.size > 1:
        # a large positive shift is a small negative one
        return _circshift_ring(rt, vec, k - n)
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
    rt.comm.overhead()
    rt.comm.compute(mem=vec.load)
    incoming = rt.comm.alltoall(outgoing)
    new_local = np.empty_like(vec.local)
    for piece_dest, piece_vals in incoming:
        new_local[vec.geom.map.local_indices(piece_dest)] = piece_vals
    return vec.like(new_local)


def _circshift_ring(rt, vec: DMatrix, k: int) -> DMatrix:
    """Shift by |k| <= min block: one sendrecv with the ring neighbour.

    Shifting right by k moves each rank's last k elements (rows) to the
    next rank's front (and symmetrically for k < 0) — two messages per
    step of a stencil instead of an alltoall.
    """
    local = vec.local
    p = rt.size
    if k > 0:
        dest = (rt.rank + 1) % p
        source = (rt.rank - 1) % p
        boundary = np.ascontiguousarray(local[-k:])
        received = rt.comm.sendrecv(boundary, dest=dest, source=source)
        new_local = np.concatenate([received, local[:-k]]) \
            if local.size else local.copy()
    else:
        kk = -k
        dest = (rt.rank - 1) % p
        source = (rt.rank + 1) % p
        boundary = np.ascontiguousarray(local[:kk])
        received = rt.comm.sendrecv(boundary, dest=dest, source=source)
        new_local = np.concatenate([local[kk:], received]) \
            if local.size else local.copy()
    rt.comm.overhead()
    rt.comm.compute(mem=vec.load)
    return vec.like(np.asarray(new_local, dtype=vec.local.dtype))


def flip(rt, value: RValue, axis: int) -> RValue:
    """fliplr (axis=1) / flipud (axis=0)."""
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.compute(mem=arr.size)
        return V.simplify(np.flip(arr, axis=axis))
    if value.is_vector:
        # a flip is a permutation; reuse the gather-free shift machinery
        # only when trivial, otherwise gather (vectors are cheap to gather)
        full = rt.gather_full(value)
        out = np.flip(full, axis=1 if value.rows == 1 else 0)
        rt.comm.compute(mem=out.size)
        return rt.distribute_full(np.ascontiguousarray(out))
    if axis == 1:
        # column flip is local for row-distributed matrices
        rt.comm.overhead()
        rt.comm.compute_own(mem=value.load)
        return value.like(np.ascontiguousarray(np.flip(value.held, axis=1)))
    full = rt.gather_full(value)
    rt.comm.compute(mem=full.size)
    return rt.distribute_full(np.ascontiguousarray(np.flip(full, axis=0)))


def triangle(rt, value: RValue, k: RValue, lower: bool) -> RValue:
    kv = 0 if k is None else rt.int_scalar(k, "tril/triu")
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.compute(elems=arr.size)
        return V.simplify(np.tril(arr, kv) if lower else np.triu(arr, kv))
    if value.is_vector:
        full = rt.gather_full(value)
        out = np.tril(full, kv) if lower else np.triu(full, kv)
        return rt.distribute_full(out)
    # local masking using global row indices — no communication
    gidx = value.global_row_indices()
    cols = np.arange(value.cols)
    if lower:
        mask = cols[None, :] <= gidx[:, None] + kv
    else:
        mask = cols[None, :] >= gidx[:, None] + kv
    rt.comm.overhead()
    rt.comm.compute_own(elems=value.load)
    held = value.held
    return value.like(np.where(mask, held, 0.0).astype(held.dtype))


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


def sort(rt, value: RValue) -> RValue:
    """Ascending sort; vectors use a parallel sample sort."""
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        n = arr.size
        rt.comm.compute(elems=n * max(int(np.log2(n)) if n > 1 else 1, 1))
        axis = 1 if arr.shape[0] == 1 else 0
        return V.simplify(np.sort(arr, axis=axis))
    if value.is_vector and value.scheme == "block" and rt.size > 1:
        return _sample_sort(rt, value)
    full = rt.gather_full(value)
    n = full.size
    rt.comm.compute(elems=n * max(int(np.log2(n)) if n > 1 else 1, 1))
    axis = 1 if value.rows == 1 else 0
    return rt.distribute_full(np.sort(full, axis=axis))


def _sample_sort(rt, vec: DMatrix) -> DMatrix:
    """Classic sample sort returning the paper's block distribution."""
    if isinstance(vec, FusedDMatrix):
        return _sample_sort_fused(rt, vec)
    p = rt.size
    local = np.sort(np.real(vec.local).astype(float))
    n_local = local.size
    rt.comm.overhead()
    rt.comm.compute(elems=n_local * max(int(np.log2(n_local))
                                        if n_local > 1 else 1, 1))
    # sample p-1 local splitters (or fewer when the block is small)
    if n_local:
        picks = np.linspace(0, n_local - 1, p + 1)[1:-1]
        samples = local[picks.astype(int)]
    else:
        samples = np.zeros(0)
    all_samples = np.concatenate(rt.comm.allgather(samples))
    all_samples.sort()
    if all_samples.size >= p - 1 and p > 1:
        step = all_samples.size / p
        splitters = all_samples[(np.arange(1, p) * step).astype(int)
                                .clip(0, all_samples.size - 1)]
    else:
        splitters = all_samples[:p - 1]
    # partition local data by splitter buckets and exchange
    bucket_ids = np.searchsorted(splitters, local, side="right") \
        if splitters.size else np.zeros(n_local, dtype=int)
    outgoing = [local[bucket_ids == b] for b in range(p)]
    incoming = rt.comm.alltoall(outgoing)
    merged = np.sort(np.concatenate(incoming)) if incoming else np.zeros(0)
    rt.comm.compute(elems=merged.size * max(int(np.log2(merged.size))
                                            if merged.size > 1 else 1, 1))
    # rebalance to the canonical block distribution
    counts = rt.comm.allgather(int(merged.size))
    offsets = np.cumsum([0] + counts)
    full = np.empty(vec.numel)
    gathered = rt.comm.allgather(merged)
    for r, part in enumerate(gathered):
        full[offsets[r]:offsets[r + 1]] = part
    out = full.reshape((vec.rows, vec.cols), order="F")
    result = rt.distribute_full(out)
    assert isinstance(result, DMatrix)
    return result


def _sample_sort_fused(rt, vec: FusedDMatrix) -> DMatrix:
    """All ranks' sample sort in one pass, charge-for-charge identical to
    the lockstep pipeline above."""
    p = rt.size

    def sort_cost(n):
        return n * max(int(np.log2(n)) if n > 1 else 1, 1)

    locals_ = [np.sort(np.real(blk).astype(float)) for blk in vec.blocks()]
    rt.comm.overhead()
    rt.comm.compute_ranks(elems=[sort_cost(lv.size) for lv in locals_])
    # splitter sampling (replicated arithmetic on every rank)
    sample_lists = []
    for lv in locals_:
        if lv.size:
            picks = np.linspace(0, lv.size - 1, p + 1)[1:-1]
            sample_lists.append(lv[picks.astype(int)])
        else:
            sample_lists.append(np.zeros(0))
    rt.comm.charge_allgather(max(s.nbytes for s in sample_lists))
    all_samples = np.concatenate(sample_lists)
    all_samples.sort()
    if all_samples.size >= p - 1 and p > 1:
        step = all_samples.size / p
        splitters = all_samples[(np.arange(1, p) * step).astype(int)
                                .clip(0, all_samples.size - 1)]
    else:
        splitters = all_samples[:p - 1]
    # bucket exchange: each source's piece-to-rank-0 prices the alltoall
    outgoing = []
    for lv in locals_:
        bucket_ids = np.searchsorted(splitters, lv, side="right") \
            if splitters.size else np.zeros(lv.size, dtype=int)
        outgoing.append([lv[bucket_ids == b] for b in range(p)])
    rt.comm.charge_alltoall(max(row[0].nbytes for row in outgoing))
    merged = [np.sort(np.concatenate([outgoing[src][dst]
                                      for src in range(p)]))
              for dst in range(p)]
    rt.comm.compute_ranks(elems=[sort_cost(m.size) for m in merged])
    # rebalance to the canonical block distribution
    rt.comm.charge_allgather(8)  # the int block counts
    offsets = np.cumsum([0] + [int(m.size) for m in merged])
    full = np.empty(vec.numel)
    rt.comm.charge_allgather(max(m.nbytes for m in merged))
    for r, part in enumerate(merged):
        full[offsets[r]:offsets[r + 1]] = part
    out = full.reshape((vec.rows, vec.cols), order="F")
    result = rt.distribute_full(out)
    assert isinstance(result, DMatrix)
    return result
