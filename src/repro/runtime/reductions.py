"""Distributed reductions: sum/mean/prod/min/max, norms, trapz, scans.

MATLAB reduction semantics: vectors reduce to a scalar; matrices reduce
column-wise to a row vector.  With the row-contiguous distribution a
column-wise reduction is a local partial per rank plus one allreduce of a
``cols``-length vector; vector reductions are a local partial plus a
scalar allreduce.

Each of these is one body for both backends: the partials are computed
over the operand's ``stacked()`` runs — one rank's block on lockstep,
every rank's under fusion, never one numpy call per rank — and
``comm.fold`` combines them in rank order (an allreduce of this rank's
partial, or :func:`~repro.mpi.fused.fold_ranks` of all of them).  Only
batched forms that are bit-identical to the per-rank call are used (the
same pairwise routine per contiguous row, the same BLAS routine per item
of a batched matmul); each is pinned by
tests/runtime/test_batched_partials.py and docs/SCALING.md lists the
ones that failed.  ``find``, ``[m, k] = max(v)`` and the scans are
written the same way over their collectives: ``comm.collect`` of each
held rank's hits, ``comm.combine`` of its ``(value, index)`` pair,
``comm.prefixes`` of its block total — messages on lockstep, the same
collective priced in closed form under fusion.
"""

from __future__ import annotations

import numpy as np

from ..errors import MatlabRuntimeError
from ..interp import values as V
from ..interp.values import np_trapz
from ..mpi import comm as mpi_ops
from ..mpi.fused import fold_ranks
from .distribution import get_geometry, rank_axis
from .matrix import DMatrix, RValue


def _partials(runs: list[np.ndarray], local_fn, identity) -> np.ndarray:
    """``local_fn`` down every rank's block of the stacked ``runs``,
    rank axis first; a rank that holds nothing contributes
    ``identity``."""
    if len(runs) == 1 and runs[0].shape[1]:
        return local_fn(runs[0], axis=1)    # one run, nobody empty
    return rank_axis([
        local_fn(run, axis=1) if run.shape[1] else
        np.full(run.shape[:1] + run.shape[2:], identity, dtype=run.dtype)
        for run in runs])


def _replicated_scalar(total):
    """A reduction's result as V.simplify's canonical scalar: a Python
    number, complex only with an imaginary part."""
    if isinstance(total, complex):
        return total if total.imag != 0 else total.real
    return float(total)


def _reduced(rt, mat: DMatrix, local_fn, combine_op, identity):
    """``mat`` reduced over everything the ranks hold, replicated: one
    library call, a pass over the local elements, one allreduce of the
    partials — a vector's total (a Python number) or, column by column,
    a matrix's (a ``cols``-long array)."""
    parts = _partials(mat.stacked(), local_fn, identity)
    rt.comm.charge(elems=mat.load)
    return rt.comm.fold(parts, combine_op)


def _column_reduce(rt, mat: DMatrix, local_fn, combine_op, identity):
    """The column totals as a distributed row vector."""
    result = np.asarray(_reduced(rt, mat, local_fn, combine_op,
                                 identity)).reshape(1, -1)
    return rt.distribute_full(result) if result.size > 1 else V.simplify(result)


#: name -> (local kernel, combine op, what an empty block contributes);
#: the kernels are ``np.sum``/``prod``/``max``/``min`` without their
#: Python wrappers (axis 0 unless told otherwise)
_REDUCERS = {
    "sum": (np.add.reduce, mpi_ops.SUM, 0.0),
    "prod": (np.multiply.reduce, mpi_ops.PROD, 1.0),
    "max": (np.maximum.reduce, mpi_ops.MAX, -np.inf),
    "min": (np.minimum.reduce, mpi_ops.MIN, np.inf),
}


def reduce_op(rt, name: str, value: RValue,
              dim: int | None = None) -> RValue:
    """sum/prod/max/min with MATLAB column-wise semantics; sum/prod/mean
    also accept an explicit ``dim`` (1 = columns, 2 = rows)."""
    if dim is not None and dim not in (1, 2):
        raise MatlabRuntimeError("dim must be 1 or 2")
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        if arr.size == 0:
            # the sum of nothing is 0 and its product 1; its extremum is
            # nothing, as MATLAB's of a 0-by-0 operand
            return 0.0 if name == "sum" else 1.0 if name == "prod" \
                else np.zeros((0, 0))
        fn = _REDUCERS[name][0]
        rt.comm.charge(elems=arr.size, calls=0)
        if dim is not None:
            out = np.asarray(fn(arr, axis=dim - 1))
            out = out.reshape(1, -1) if dim == 1 else out.reshape(-1, 1)
            return rt.distribute_full(out) if out.size > 1 \
                else V.simplify(out)
        if arr.shape[0] == 1 or arr.shape[1] == 1:
            return V.simplify(fn(arr.reshape(-1)))
        return rt.distribute_full(np.asarray(
            fn(arr, axis=0)).reshape(1, -1))
    local_fn, combine, identity = _REDUCERS[name]
    if dim == 2 and not value.is_vector:
        return _row_reduce(rt, value, local_fn)
    if dim == 1 and not value.is_vector:
        return _column_reduce(rt, value, local_fn, combine, identity)
    if value.is_vector:
        # explicit dim on a vector: reduce only along that dim
        rows, cols = value.shape
        if (dim == 1 and rows == 1) or (dim == 2 and cols == 1):
            rt.comm.charge()
            return value  # reducing a singleton dimension is the identity
        return _replicated_scalar(
            _reduced(rt, value, local_fn, combine, identity))
    return _column_reduce(rt, value, local_fn, combine, identity)


def _row_reduce(rt, mat: DMatrix, local_fn):
    """Row-wise reduction of a row-distributed matrix: fully local — each
    rank reduces its own rows; the result is a column vector whose block
    layout coincides with the row blocks (the matrix has at least two
    rows: one row is a vector)."""
    # a row never leaves its rank, so whatever rows are held reduce in
    # one call
    held = mat.held
    part = local_fn(held, axis=1) if held.size \
        else np.zeros(0, dtype=held.dtype)
    rt.comm.charge(elems=mat.load)
    return mat.like(part, shape=(mat.rows, 1))


def reduce2(rt, name: str, value: RValue) -> RValue:
    """``name(name(A))``, the reduction of a whole matrix, as one call
    (pass 6's ``reduce2``): column partials and ONE allreduce of the
    partial row; what the second call would have computed with a second,
    scalar allreduce — the row cut into the pieces its distribution
    gives the ranks, each piece reduced as its rank reduces it, the
    pieces folded in rank order — every rank then computes on its own
    copy of the row, so the value is the two calls' by construction.
    ``all``/``any`` test the operand against zero first (the second
    test, of a row of zeros and ones, changes nothing).  A vector or a
    scalar is finished by one reduction: it takes the two calls."""
    if not isinstance(value, DMatrix) or value.is_vector:
        return rt.call_builtin(name, [rt.call_builtin(name, [value])])
    if name in _TESTS:
        name, value = _TESTS[name], _nonzero(rt, value)
    local_fn, combine, identity = _REDUCERS[name]
    row = np.asarray(_reduced(rt, value, local_fn, combine, identity))
    pieces = get_geometry(1, row.size, rt.size, rt.scheme).stacked(row)
    rt.comm.charge(elems=row.size, calls=0)
    return _replicated_scalar(fold_ranks(
        combine, _partials(pieces, local_fn, identity)))


def reduce_batch(rt, name: str, values: list) -> tuple:
    """``name(v)`` of every vector in ``values`` (pass 6's
    ``batch_reduce``; ``sum``/``mean``/``max``/``min``/``prod``) with
    one allreduce: one partial per vector, combined component-wise — each
    component folds in rank order exactly as its own allreduce would.
    Anything but distributed real vectors takes the separate calls."""
    if not all(isinstance(v, DMatrix) and v.is_vector
               and v.dtype.kind == "f" for v in values):
        return tuple([rt.call_builtin(name, [v]) for v in values])
    local_fn, combine, identity = _REDUCERS["sum" if name == "mean"
                                            else name]
    parts = np.array([_partials(v.stacked(), local_fn, identity)
                      for v in values]).T       # (ranks, vectors)
    rt.comm.charge()
    for v in values:
        rt.comm.charge(elems=v.load, calls=0)
    totals = rt.comm.fold(parts, combine).tolist()
    if name == "mean":
        totals = [V.simplify(np.asarray(total) / v.numel)
                  for total, v in zip(totals, values)]
    return tuple(totals)


def mean(rt, value: RValue, dim: int | None = None) -> RValue:
    shape = rt.shape_of(value)
    total = reduce_op(rt, "sum", value, dim=dim)
    if dim is None and (shape[0] == 1 or shape[1] == 1):
        n = shape[0] * shape[1]
        return rt.ew(lambda s: s / n, 1, total) if isinstance(total, DMatrix) \
            else V.simplify(np.asarray(total) / n)
    denom = shape[0] if dim in (None, 1) else shape[1]
    if isinstance(total, DMatrix):
        return rt.ew(lambda s: s / denom, 1, total)
    return V.simplify(np.asarray(V.as_matrix(total)) / denom)


def std_var(rt, name: str, value: RValue) -> RValue:
    """Sample standard deviation / variance (normalized by n-1), with
    MATLAB's vector/column-wise semantics, via distributed moments."""
    shape = rt.shape_of(value)
    is_vec = shape[0] == 1 or shape[1] == 1
    n = shape[0] * shape[1] if is_vec else shape[0]
    if n < 2:
        return 0.0 if is_vec else rt.ew(lambda x: x * 0.0, 1,
                                        reduce_op(rt, "sum", value))
    mu = mean(rt, value)
    if is_vec:
        dev = rt.ew(lambda x, m: (x - m) * np.conj(x - m), 2, value, mu) \
            if isinstance(value, DMatrix) else \
            V.simplify(np.abs(V.as_matrix(value) - mu) ** 2)
        ss = reduce_op(rt, "sum", dev)
        variance = float(np.real(ss)) / (n - 1)
    else:
        # column-wise: subtract the (replicated row-vector) column means
        mu_full = rt.gather_full(mu) if isinstance(mu, DMatrix) \
            else V.as_matrix(mu)
        if isinstance(value, DMatrix):
            dev = rt.ew(lambda x: (x - mu_full) * np.conj(x - mu_full), 2,
                        value)
        else:
            dev = V.simplify(np.abs(V.as_matrix(value) - mu_full) ** 2)
        ss = reduce_op(rt, "sum", dev)
        scaled = rt.ew(lambda x: np.real(x) / (n - 1), 1, ss) \
            if isinstance(ss, DMatrix) else \
            V.simplify(np.real(V.as_matrix(ss)) / (n - 1))
        if name == "var":
            return scaled
        return rt.ew(np.sqrt, 1, scaled) if isinstance(scaled, DMatrix) \
            else V.simplify(np.sqrt(V.as_matrix(scaled)))
    return variance if name == "var" else float(np.sqrt(variance))


def median(rt, value: RValue) -> RValue:
    """Median (vector -> scalar, matrix -> column medians); uses the
    distributed sample sort for vectors."""
    shape = rt.shape_of(value)
    is_vec = shape[0] == 1 or shape[1] == 1
    if isinstance(value, DMatrix) and is_vec:
        from . import structural

        ordered = structural.sort(rt, value)
        n = shape[0] * shape[1]
        if n % 2:
            return rt.element(ordered, (n - 1) // 2)
        lo = rt.element(ordered, n // 2 - 1)
        hi = rt.element(ordered, n // 2)
        return (lo + hi) / 2.0
    full = rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)
    rt.comm.charge(elems=full.size * max(int(np.log2(full.size))
                                         if full.size > 1 else 1, 1),
                   calls=0)
    if is_vec:
        return float(np.median(np.real(full)))
    out = np.median(np.real(full), axis=0).reshape(1, -1)
    return rt.distribute_full(out) if out.size > 1 else V.simplify(out)


def find(rt, value: RValue) -> RValue:
    """1-based linear indices of nonzeros, column-major order.

    Dynamic-size output: each rank finds its local nonzeros; an
    allgather assembles the global index vector (shape known only now —
    exactly the run-time shape propagation the paper describes).
    """
    shape = rt.shape_of(value)
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.charge(elems=arr.size, calls=0)
        flat = arr.reshape(-1, order="F")
        idx = np.flatnonzero(flat != 0).astype(float) + 1.0
        if idx.size == 0:
            return np.zeros((0, 0))
        out = idx.reshape(1, -1) if (arr.shape[0] == 1 and arr.shape[1] > 1) \
            else idx.reshape(-1, 1)
        return rt.distribute_full(out) if out.size > 1 else V.simplify(out)
    # each held rank's hits as 1-based global linear indices; the ranks'
    # lists, allgathered and sorted, are the nonzeros of the whole array
    # in column-major order
    pieces = []
    for run, ids in zip(value.stacked(),
                        value.stacked(np.arange(value.geom.map.n))):
        if value.is_vector:
            rank, at = np.nonzero(run)
            hits = ids[rank, at] + 1.0
        else:
            rank, row, col = np.nonzero(run)
            hits = col * value.rows + ids[rank, row] + 1.0
        ends = np.cumsum(np.bincount(rank, minlength=len(run)))
        pieces += np.split(hits, ends[:-1])
    rt.comm.charge(elems=value.load)
    all_hits = np.sort(np.concatenate(rt.comm.collect(pieces)))
    if all_hits.size == 0:
        return np.zeros((0, 0))
    out = all_hits.reshape(1, -1) \
        if (value.rows == 1 and value.cols > 1) else all_hits.reshape(-1, 1)
    return rt.distribute_full(out) if out.size > 1 else V.simplify(out)


#: the truth reductions: the reduction of the operand's nonzero test
_TESTS = {"all": "min", "any": "max"}


def _nonzero(rt, value: RValue) -> RValue:
    return rt.ew(lambda x: (x != 0).astype(float), 1, value) \
        if isinstance(value, DMatrix) else \
        V.simplify((V.as_matrix(value) != 0).astype(float))


def all_any(rt, name: str, value: RValue) -> RValue:
    if not isinstance(value, DMatrix) and V.as_matrix(value).size == 0:
        return 0.0      # the interpreter's answer for any empty operand
    return reduce_op(rt, _TESTS[name], _nonzero(rt, value))


def minmax_with_index(rt, name: str, value: RValue) -> tuple:
    """[m, k] = max(v): value and 1-based index of the extremum."""
    pick_max = name == "max"
    if not isinstance(value, DMatrix):
        flat = V.as_matrix(value).reshape(-1, order="F")
        if not flat.size:
            return np.zeros((0, 0)), np.zeros((0, 0))
        idx = int(np.argmax(flat) if pick_max else np.argmin(flat))
        return V.simplify(flat[idx]), float(idx + 1)
    if not value.is_vector:
        raise MatlabRuntimeError(
            f"[m, k] = {name}(..) is supported for vectors only")
    # a rank that holds nothing: loses to every element, ties included
    nothing = (-np.inf if pick_max else np.inf, value.numel)

    def pick(a, b):
        # np.argmax's answer for the whole vector — the first NaN if it
        # holds one, else the first occurrence of the extremum — in any
        # combining order, so it cannot depend on which rank holds what
        a_nan, b_nan = a[0] != a[0], b[0] != b[0]
        if a_nan != b_nan:
            return a if a_nan else b
        if a_nan or a[0] == b[0]:
            return a if a[1] <= b[1] else b
        return a if (a[0] > b[0]) == pick_max else b

    arg = np.argmax if pick_max else np.argmin
    candidates = []
    for run, ids in zip(value.stacked(),
                        value.stacked(np.arange(value.numel))):
        if run.shape[1]:
            at = (np.arange(len(run)), arg(run, axis=1))
            candidates += zip(run[at].real.tolist(), ids[at].tolist())
        else:
            candidates += [nothing] * len(run)
    rt.comm.charge(elems=value.load)
    best = rt.comm.combine(candidates, pick)
    return best[0], float(best[1] + 1)


def norm(rt, value: RValue, mode: RValue | None = None) -> float:
    shape = rt.shape_of(value)
    is_vec = shape[0] == 1 or shape[1] == 1
    if isinstance(mode, str):
        if mode != "fro":
            raise MatlabRuntimeError(f"norm: unsupported mode {mode!r}")
        sq = rt.ew(lambda x: (x * np.conj(x)).real, 2, value) \
            if isinstance(value, DMatrix) else \
            V.simplify((V.as_matrix(value) * np.conj(V.as_matrix(value))).real)
        total = reduce_op(rt, "sum", sq)
        if isinstance(total, DMatrix):
            total = reduce_op(rt, "sum", total)
        return float(np.sqrt(float(np.real(total))))
    p = 2.0 if mode is None else float(np.real(rt.scalar(mode, "norm")))
    if is_vec:
        if p == 2.0:
            absq = rt.ew(lambda x: (x * np.conj(x)).real, 2, value) \
                if isinstance(value, DMatrix) else \
                V.simplify((V.as_matrix(value)
                            * np.conj(V.as_matrix(value))).real)
            total = reduce_op(rt, "sum", absq)
            return float(np.sqrt(float(np.real(total))))
        powv = rt.ew(lambda x: np.abs(x) ** p, 3, value) \
            if isinstance(value, DMatrix) else \
            V.simplify(np.abs(V.as_matrix(value)) ** p)
        total = reduce_op(rt, "sum", powv)
        return float(float(np.real(total)) ** (1.0 / p))
    # matrix 2-norm: gathered SVD, replicated
    full = rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)
    n = min(full.shape)
    rt.comm.charge(flops=8 * n ** 3, calls=0)
    return float(np.linalg.norm(full, 2))


def _trapz_weights(gidx: np.ndarray, n: int,
                   x_full: np.ndarray | None) -> np.ndarray:
    """Trapezoid weight of each of the ``n`` samples named by ``gidx``:
    half the distance between its neighbours (unit spacing when no
    abscissae are given), the end samples counting their one side."""
    if x_full is None:
        return np.where((gidx == 0) | (gidx == n - 1), 0.5, 1.0)
    left = np.where(gidx > 0, x_full[np.maximum(gidx - 1, 0)], x_full[0])
    right = np.where(gidx < n - 1, x_full[np.minimum(gidx + 1, n - 1)],
                     x_full[n - 1])
    return (right - left) / 2.0


def trapz(rt, x: RValue | None, y: RValue) -> RValue:
    """trapz(y) with unit spacing, or trapz(x, y).

    Uniform weights make this a weighted local sum + allreduce; the
    non-uniform form gathers the (small) abscissa vector first.
    """
    shape = rt.shape_of(y)
    is_vec = shape[0] == 1 or shape[1] == 1
    if not is_vec:
        # column-wise trapz over the rows of a matrix
        full_y = rt.gather_full(y) if isinstance(y, DMatrix) else V.as_matrix(y)
        xa = None if x is None else (
            rt.gather_full(x) if isinstance(x, DMatrix)
            else V.as_matrix(x)).reshape(-1)
        rt.comm.charge(elems=full_y.size * 2, calls=0)
        out = np_trapz(full_y, xa, axis=0).reshape(1, -1)
        return rt.distribute_full(out) if out.size > 1 else V.simplify(out)
    n = shape[0] * shape[1]
    if n < 2:
        return 0.0
    if isinstance(y, DMatrix):
        x_full = None if x is None else (
            rt.gather_full(x) if isinstance(x, DMatrix)
            else V.as_matrix(x)).reshape(-1)
        # the weights multiply elementwise (position-independent), then
        # every rank sums its block of the products
        weights = _trapz_weights(np.arange(n), n, x_full)
        parts = _partials([w * run for w, run in
                           zip(y.stacked(weights), y.stacked())],
                          np.add.reduce, 0.0)
        rt.comm.charge(elems=y.load * 2)
        return rt.comm.fold(parts, mpi_ops.SUM)
    ya = V.as_matrix(y).reshape(-1)
    xa = None if x is None else V.as_matrix(x).reshape(-1)
    rt.comm.charge(elems=ya.size * 2, calls=0)
    return float(np_trapz(ya, xa))


def trapz2(rt, z: RValue, dx: RValue = 1.0, dy: RValue = 1.0) -> float:
    """2-D trapezoidal integration with uniform spacings — the
    ocean-engineering script's kernel.  Separable weights keep it a
    weighted local sum + one allreduce."""
    dxv = float(np.real(rt.scalar(dx, "trapz2")))
    dyv = float(np.real(rt.scalar(dy, "trapz2")))
    shape = rt.shape_of(z)
    rows, cols = shape
    if rows < 2 or cols < 2:
        return 0.0
    wr, wc = np.ones(rows), np.ones(cols)
    wr[0] = wr[-1] = wc[0] = wc[-1] = 0.5
    if isinstance(z, DMatrix):
        # per rank: its rows' weights . (its rows . the column weights)
        parts = rank_axis([
            (rw[:, None, :] @ (rz.real @ wc)[:, :, None])[:, 0, 0]
            for rw, rz in zip(z.stacked(wr), z.stacked())])
        rt.comm.charge(elems=z.load * 3)
        return float(rt.comm.fold(parts, mpi_ops.SUM) * dxv * dyv)
    full = V.as_matrix(z)
    rt.comm.charge(elems=full.size * 3, calls=0)
    return float(wr @ (full.real @ wc) * dxv * dyv)


#: name -> (the scan's ufunc, the combine op of the exclusive scan over
#: the ranks' totals)
_SCANS = {
    "cumsum": (np.add, mpi_ops.SUM),
    "cumprod": (np.multiply, mpi_ops.PROD),
}


def cumulative(rt, name: str, value: RValue) -> RValue:
    """cumsum/cumprod via local scan + exclusive scan of block totals."""
    ufunc, op = _SCANS[name]
    np_fn = ufunc.accumulate            # np.cumsum / np.cumprod, axis 0
    if not isinstance(value, DMatrix):
        arr = V.as_matrix(value)
        rt.comm.charge(elems=arr.size, calls=0)
        axis = 1 if arr.shape[0] == 1 else 0
        return V.simplify(np_fn(arr, axis=axis))
    if value.is_vector:
        # a rank's offset is the fold of the *preceding* ranks' totals,
        # which is only its prefix when each rank owns one contiguous run
        value = rt.realign(value, "block")
        # what a rank with no elements contributes (typed like the data,
        # so every rank's contribution has the same wire size)
        identity = value.dtype.type(name == "cumprod").item()
        scans = [np_fn(run, axis=1) for run in value.stacked()]
        # the totals are Python scalars, folded in rank order by the
        # exscan's own combine (never recovered by subtracting or
        # dividing a rank's own total back out: inf - inf, x / 0)
        totals = []
        for scan in scans:
            totals += scan[:, -1].tolist() if scan.shape[1] \
                else [identity] * len(scan)
        rt.comm.charge(elems=value.load)
        offsets = iter(rt.comm.prefixes(totals, op))
        for scan in scans:
            for row, offset in zip(scan, offsets):
                if offset is not None and row.size:
                    # not ``out=row``: numpy's in-place loop rounds a
                    # complex product of ONE element differently from
                    # the rank's own ``scan * offset``
                    row[...] = op(row, offset)
        return value.unstacked(scans, geom=value.geom)
    # matrix: per-column scans stay within row blocks only if P == 1;
    # gather-based general path
    full = rt.gather_full(value)
    rt.comm.charge(elems=full.size, calls=0)
    return rt.distribute_full(np_fn(full, axis=0))
