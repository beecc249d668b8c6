"""One redistribution for every op that moves elements: ``remap``.

A distributed array is a map plus each rank's part of it (pMatlab's
view): an op that only moves elements — a subscript, a transpose, a
flip, a reshape, a tiling, an indexed store — is one function from the
positions of its result to the positions of its operand.  Every rank
can evaluate that function for every element, and both maps answer
``owners()``, so every rank knows which elements cross ranks without a
message: an element whose source and destination rank agree is copied
where it lies, and only the pieces that cross ranks move, in one
alltoall of their values (``comm.exchange``) — none at all when nothing
crosses.  The whole array is never assembled on a rank.

The op body is written once, over ``stacked()``: the target's items are
cut as the ranks the descriptor stands for hold them — one rank's block
under ``lockstep``, every rank under fusion — so the same arithmetic
picks what is copied (an element whose source these ranks hold), what
is sent (a crossing element whose source they hold and whose
destination they do not) and where what arrives goes (by source, then
position).  Under fusion every element is held, so nothing is sent and
``FusedComm.exchange`` only prices the pieces.

The index arrays broadcast: a transpose, a flip or a tiling passes a
row and a column vector, so the owners of the sources and destinations
are computed per row or column, not per element.  Nothing is kept
between calls.
"""

from __future__ import annotations

import functools

import numpy as np

from ..interp import values as V
from .distribution import get_geometry
from .matrix import DMatrix, RValue


def _find(held: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Where each of ``ids`` (all of them there) sits in the ascending
    ``held``."""
    if held.size and held[-1] - held[0] + 1 == held.size:
        # one run of ids: a block map's part, or all of them
        return ids - held[0] if held[0] else ids
    return np.searchsorted(held, ids)


def _span(index: np.ndarray):
    """A vector ``index`` as the slice it walks when it steps by one,
    up or down; ``None`` otherwise."""
    flat = index.reshape(-1)
    if flat.size < 2:
        return None
    step = int(flat[1] - flat[0])
    if abs(step) != 1 or not (np.diff(flat) == step).all():
        return None
    stop = int(flat[-1]) + step
    return slice(int(flat[0]), None if stop < 0 else stop, step)


def _positions(flags: list, shape: tuple[int, int]):
    """``(item, spot)``, item-major, of the elements of an ``(items,
    width)`` array where every one of ``flags`` (each broadcastable to
    it) is set — enumerated from the flags' own shapes when each varies
    along one axis only, so that a transpose, a row selection or a
    column store costs what it yields, not the whole array."""
    per_item = np.ones((shape[0], 1), dtype=bool)
    per_spot = np.ones((1, shape[1]), dtype=bool)
    for flag in flags:
        if flag.shape[1] == 1:
            per_item = per_item & flag
        elif flag.shape[0] == 1:
            per_spot = per_spot & flag
        else:
            return np.divmod(np.flatnonzero(np.broadcast_to(
                functools.reduce(np.logical_and, flags), shape)), shape[1])
    item, spot = np.flatnonzero(per_item), np.flatnonzero(per_spot)
    return np.repeat(item, spot.size), np.tile(spot, item.size)


def remap(rt, value: RValue, rows: np.ndarray, cols: np.ndarray,
          shape: tuple[int, int], into: DMatrix | None = None) -> RValue:
    """``out[i, j] = value[rows[i, j], cols[i, j]]`` — 0-based index
    arrays that broadcast to ``shape`` — as a ``shape`` array
    distributed by the run's scheme.  With ``into`` (an array of
    ``shape``), the result is distributed as ``into`` is and an element
    whose row or column index is negative keeps ``into``'s value: an
    indexed store.  A replicated ``value`` (a store's right side) is on
    every rank already, so nothing moves.

    Charges the exchange (when a piece crosses ranks) and one pass over
    the result's local part; a result of one element is the owner's
    broadcast (:meth:`~repro.runtime.context.RuntimeContext.element`),
    an empty one is replicated."""
    numel = shape[0] * shape[1]
    if into is None:
        if numel <= 1:
            if numel == 0:
                return np.zeros(shape, dtype=value.dtype)
            return rt.element(value, int(np.asarray(rows).flat[0]),
                              int(np.asarray(cols).flat[0]))
        target = get_geometry(*shape, rt.size, rt.scheme)
        holder = value
    else:
        target = into.geom
        holder = into
    moving = isinstance(value, DMatrix)
    arr = value if moving else V.as_matrix(value)
    width = target.width
    flip = target.is_vector and shape[0] == 1   # a row's items: columns

    def laid(a):
        """Index array ``a`` with the target's distributed axis first."""
        a = np.asarray(a)
        return a.T if flip else a

    def cut(a, items):
        """``a`` at the target's ``items`` (still broadcastable)."""
        a = laid(a)
        return a if a.shape[0] == 1 else a[items]

    # the target's items these ranks hold, one run of ranks at a time
    runs = holder.stacked(np.arange(target.map.n), target)
    items = np.concatenate([run.reshape(-1) for run in runs])
    part = (items.size, width)
    if np.array_equal(items, np.arange(target.map.n)):
        items = slice(None)     # all of them, in order: cut nothing
    if into is None:
        out = np.empty(part, dtype=arr.dtype)
        wanted = True
    else:
        out = np.concatenate([run.reshape(-1, width) for run in
                              into.stacked()]).astype(
            np.result_type(into.dtype, arr.dtype))
        wanted = (cut(rows, items) >= 0) & (cut(cols, items) >= 0)
    if not moving:
        spots = np.broadcast_to(wanted, part)
        out[spots] = arr[np.broadcast_to(cut(rows, items), part)[spots],
                         np.broadcast_to(cut(cols, items), part)[spots]]
    else:
        geom = value.geom
        vector = geom.is_vector
        # a source element's item of ``value`` (a vector's element, a
        # matrix's row), the target element's owner, and what a store
        # writes (the rest it keeps)
        source = np.maximum(cols if geom.rows == 1 else rows, 0)
        dest = laid(target.map.owners(np.arange(target.map.n))[:, None])
        stored = [] if into is None else [rows >= 0, cols >= 0]

        def owner(at):
            """Who holds the sources of the target's items ``at``."""
            return geom.map.owners(cut(source, at))

        def crossing(at):
            """The owners of the target's items ``at`` and which of
            their elements cross ranks."""
            held_by = owner(at)
            moves = held_by != cut(dest, at)
            for flag in stored:
                moves = moves & cut(flag, at)
            return held_by, moves

        # which items of ``value`` and which ranks these ranks hold
        held = value.global_row_indices()
        has = np.zeros(geom.map.n, dtype=bool)
        has[held] = True
        holds = np.zeros(rt.size, dtype=bool)
        holds[geom.map.owners(held)] = True
        vals = value.held.reshape(held.size, geom.width)

        def take(item, col):
            """The values of source ``item``/``col`` (these ranks'): a
            view of ``vals`` when a row and a column index each step by
            one (a transpose, a flip, a block), else a gather."""
            at = _find(held, item)
            if vector:
                return vals[at, 0]
            if at.ndim == col.ndim == 2 and 1 in at.shape and 1 in col.shape \
                    and at.shape != col.shape:
                span, cspan = _span(at), _span(col)
                if span is not None and cspan is not None:
                    block = vals[span, cspan]
                    return block if at.shape[1] == 1 else block.T
            return vals[at, col]

        # the elements whose source these ranks hold are copied (all of
        # them when they hold every source) ...
        mine = None if holds.all() else owner(items)
        fill = wanted if mine is None else wanted & holds[mine]
        if part[0] and np.all(fill):
            out[...] = take(cut(source, items), cut(cols, items))
        else:
            fill = np.broadcast_to(fill, part)
            out[fill] = take(np.broadcast_to(cut(source, items), part)[fill],
                             np.broadcast_to(cut(cols, items), part)[fill])
        # whether anything crosses: rank 0's part first, which also
        # prices the alltoall (the most values any rank sends to it)
        senders, first = crossing(target.slices[0])
        if first.any() or crossing(slice(None))[1].any():
            # ... the crossing ones move: each rank sends those whose
            # source it holds and whose destination it does not, in
            # position order, and places what it receives by source,
            # then position, as it was sent
            leaving = ~holds[laid(dest)]
            values, dests = vals[:0, 0], np.zeros(0, dtype=np.intp)
            if leaving.any():
                item, spot = _positions(
                    [laid(flag) for flag in stored]
                    + [has[laid(source)], leaving],
                    (target.map.n, width))
                values = take(laid(np.broadcast_to(source, shape))[item, spot],
                              laid(np.broadcast_to(cols, shape))[item, spot])
                dests = laid(np.broadcast_to(dest, shape))[item, spot]
            size = (target.map.count(0), width)
            senders = np.broadcast_to(senders, size)[
                np.broadcast_to(first, size)]
            got = rt.comm.exchange(values, dests, int(
                np.bincount(senders, minlength=1).max()))
            if got.size:
                land = np.flatnonzero(~fill & wanted)
                mine = np.broadcast_to(mine, part).reshape(-1)[land]
                out.reshape(-1)[land[np.argsort(mine, kind="stable")]] = got
    # back into runs of ranks
    tail = () if target.is_vector else (target.cols,)
    parts, start = [], 0
    for run in runs:
        parts.append(out[start:start + run.size].reshape(run.shape + tail))
        start += run.size
    result = holder.unstacked(parts, geom=target)
    rt.comm.charge(mem=result.load)
    return result


# -- subscripts as remap indices: the interpreter's, applied to ids ---------- #


def read(rt, mat: DMatrix, subs: list) -> RValue:
    """``mat(subs...)`` by the interpreter's rules: ``A(I, J)`` takes
    the rows and columns ``values.read_axes`` names; for ``A(K)`` the
    interpreter's read of ``mat``'s column-major element ids (its result
    shape, orientation and errors) says which element lands where."""
    if len(subs) == 2:
        r, c = V.read_axes(mat.shape, subs)
        return remap(rt, mat, r[:, None], c[None, :], (r.size, c.size))
    rows = mat.rows
    ids = V.as_matrix(V.index_read(
        np.arange(mat.geom.numel).reshape(mat.shape, order="F"), subs))
    return remap(rt, mat, ids % rows, ids // rows, ids.shape)


def assign(rt, mat: DMatrix, subs: list, rhs: RValue) -> RValue | None:
    """``mat(subs...) = rhs`` as a remap of ``rhs`` into ``mat``, by the
    interpreter's rules (its errors too).  ``A(I, J) = B`` stores
    ``values.assign_block``'s block at the rows and columns
    ``values.assign_axes`` names — a row and a column index vector, a
    later duplicate subscript winning, when the block is ``B`` itself or
    its one element; otherwise the interpreter's store of ``B``'s
    column-major element ids into an array of -1 says which element
    goes where.  ``None`` for a store that grows ``mat`` or deletes
    from it, which the caller gathers."""
    rhs_shape = rt.shape_of(rhs)
    count = rhs_shape[0] * rhs_shape[1]
    if count == 0:
        return None
    ids = np.arange(count).reshape(rhs_shape, order="F")
    if len(subs) == 2:
        r, c, grown = V.assign_axes(mat.shape, subs, rhs_shape)
        if grown != mat.shape:
            return None
        block = V.assign_block(ids, (r.size, c.size))
        if np.shape(block) in ((), rhs_shape):
            rows, cols = np.full(mat.rows, -1), np.full(mat.cols, -1)
            rows[r] = 0 if count == 1 else np.arange(r.size)
            cols[c] = 0 if count == 1 else np.arange(c.size)
            return remap(rt, rhs, rows[:, None], cols[None, :], mat.shape,
                         into=mat)
    ids = V.as_matrix(V.index_assign(np.full(mat.shape, -1), subs, ids))
    if ids.shape != mat.shape:
        return None
    kept = ids < 0
    return remap(rt, rhs, np.where(kept, -1, ids % rhs_shape[0]),
                 np.where(kept, 0, ids // rhs_shape[0]), mat.shape, into=mat)
