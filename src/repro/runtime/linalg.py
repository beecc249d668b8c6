"""Distributed linear algebra (ML_matrix_multiply and friends).

All routines take the :class:`~repro.runtime.context.RuntimeContext` as
first argument and are exposed on it via thin delegating methods.

Algorithms (for the row-contiguous block distribution):

* ``matmul`` (matrix x matrix): allgather B, then each rank multiplies its
  row block of A — the classic replicated-B SUMMA degenerate that the
  original run-time library used.
* ``matvec``: allgather the (block-distributed) vector, local GEMV.
* ``vecmat`` (row-vector x matrix): each rank forms a partial product from
  its row block, combined with an allreduce.
* ``dot`` (row-vector x column-vector): local partial dot + allreduce —
  ML_dot, the paper's peephole target for ``r' * r``.
* ``outer`` (column x row): allgather the row vector, local outer product.
* vector transpose is free (both orientations share the element-block
  layout); matrix transpose is one ``remap`` (the corner turn): an
  alltoall of the pieces whose row block changes rank, never a gather.
* ``solve`` (``\\`` and ``/``): gathered and solved redundantly on every
  rank — the run-time library has no parallel factorization, and the
  cost model charges the full sequential flops, honestly showing no
  speedup for scripts that lean on it.
"""

from __future__ import annotations

import numpy as np

from ..errors import MatlabRuntimeError
from ..interp import values as V
from ..mpi.comm import SUM
from .distribution import rank_axis
from .matrix import DMatrix, RValue
from .remap import remap


def _as_full(rt, value: RValue) -> np.ndarray:
    return rt.gather_full(value) if isinstance(value, DMatrix) \
        else V.as_matrix(value)


# Each op below is one body over ``stacked()``, which both descriptors
# answer: every rank the descriptor stands for, one ``(ranks, items per
# rank, ...)`` array per run — a lockstep rank's block as a run of one,
# all ranks' blocks under fusion.  A batched ``matmul`` runs on each
# item the same BLAS routine a rank runs on its block, and ``comm.fold``
# combines the partials in rank order (an allreduce of one rank's, the
# fold of all ranks'), so results and charges are the same on both
# backends.  Each batched form is pinned against the per-rank call by
# tests/runtime/test_batched_partials.py; multiplying the *whole* matrix
# in one gemv/gemm is not among them (docs/SCALING.md).


def _vector_dot(rt, a: DMatrix, b: DMatrix, conj: bool = False) -> RValue:
    """ML_dot of two vectors distributed alike (``conj``: of ``a``'s
    conjugate): ``np.dot`` of each rank's blocks, then an allreduce."""
    parts = []
    for ra, rb in zip(a.stacked(), b.stacked()):
        if conj:
            ra = ra.conj()
        if ra.shape[1] == 1:
            # np.dot multiplies one-element vectors as scalars, which
            # no batched call reproduces (-0.0 * x stays -0.0; matmul
            # adds it to 0.0): vectors this short keep the rank's call
            parts.append(np.array([np.dot(x, y) for x, y in zip(ra, rb)]))
        else:
            parts.append((ra[:, None, :] @ rb[:, :, None])[:, 0, 0])
    rt.comm.charge(flops=a.load * 2)
    return rt.comm.fold(rank_axis(parts), SUM)


def matmul(rt, a: RValue, b: RValue) -> RValue:
    """MATLAB ``a * b`` (including every scalar/vector special case)."""
    rt._check_numeric(a, "*")
    rt._check_numeric(b, "*")
    a_shape, b_shape = rt.shape_of(a), rt.shape_of(b)
    if a_shape == (1, 1) or b_shape == (1, 1):
        return rt.ew(lambda x, y: x * y, 1, a, b,
                     spec=('.*', '@0', '@1'))
    if a_shape[1] != b_shape[0]:
        raise MatlabRuntimeError(
            f"inner matrix dimensions must agree ({a_shape} * {b_shape})")

    # dot product: (1 x k) * (k x 1)
    if a_shape[0] == 1 and b_shape[1] == 1:
        return dot(rt, a, b)
    # outer product: (m x 1) * (1 x n)
    if a_shape[1] == 1 and b_shape[0] == 1:
        return outer(rt, a, b)
    # matrix x column vector
    if b_shape[1] == 1:
        return matvec(rt, a, b)
    # row vector x matrix
    if a_shape[0] == 1:
        return vecmat(rt, a, b)
    return _matmat(rt, a, b)


def dot(rt, a: RValue, b: RValue) -> RValue:
    """(1 x k) * (k x 1): local partial + allreduce (ML_dot)."""
    if (isinstance(a, DMatrix) and isinstance(b, DMatrix)
            and a.scheme != b.scheme):
        b = rt.realign(b, a.scheme)
    if isinstance(a, DMatrix) and isinstance(b, DMatrix):
        return _vector_dot(rt, a, b)
    full_a = _as_full(rt, a).reshape(-1)
    full_b = _as_full(rt, b).reshape(-1)
    rt.comm.charge(flops=2 * full_a.size, calls=0)
    return V.simplify(np.dot(full_a, full_b))


def outer(rt, a: RValue, b: RValue) -> RValue:
    """(m x 1) * (1 x n): allgather the row vector, local outer rows."""
    m = rt.shape_of(a)[0]
    n = rt.shape_of(b)[1]
    b_full = _as_full(rt, b).reshape(-1)
    if isinstance(a, DMatrix):
        # the held elements of a are the held rows of the result
        # (elementwise products: the outer of everything is every rank's
        # outer, stacked), and each costs one pass over them
        out = a.like(np.outer(a.held, b_full), shape=(m, n))
        rt.comm.charge(flops=out.load, mem=out.load)
        return out
    full = np.outer(_as_full(rt, a).reshape(-1), b_full)
    rt.comm.charge(flops=full.size, mem=full.size, calls=0)
    return rt.distribute_full(full)


def matvec(rt, a: RValue, x: RValue) -> RValue:
    """(m x k) * (k x 1): ML_matrix_vector_multiply — allgather the
    vector, multiply each rank's rows; the rows of A coincide with the
    elements of y under A's own scheme, so y inherits it."""
    if isinstance(a, DMatrix) and not a.is_vector:
        x_full = _as_full(rt, x).reshape(-1)
        y = a.unstacked([run @ x_full for run in a.stacked()], 1)
        rt.comm.charge(flops=a.load * 2)
        return y
    full = _as_full(rt, a) @ _as_full(rt, x)
    rt.comm.charge(flops=2 * _as_full(rt, a).size, calls=0)
    return rt.distribute_full(full) if full.size > 1 else V.simplify(full)


def vecmat(rt, x: RValue, a: RValue) -> RValue:
    """(1 x k) * (k x n): partial products over row blocks + allreduce."""
    if isinstance(a, DMatrix) and not a.is_vector:
        # each rank: its elements of x times its rows of a (ranks that
        # hold nothing get matmul's zeros)
        parts = rank_axis([
            (rx[:, None, :] @ ra)[:, 0, :] for rx, ra in
            zip(a.stacked(_as_full(rt, x).reshape(-1)), a.stacked())])
        rt.comm.charge(flops=a.load * 2)
        result = np.asarray(rt.comm.fold(parts, SUM)).reshape(1, -1)
        return rt.distribute_full(result) if result.size > 1 \
            else V.simplify(result)
    full = _as_full(rt, x) @ _as_full(rt, a)
    rt.comm.charge(flops=2 * _as_full(rt, a).size, calls=0)
    return rt.distribute_full(full) if full.size > 1 else V.simplify(full)


def _matmat(rt, a: RValue, b: RValue) -> RValue:
    """(m x k) * (k x n): allgather B, multiply local row block of A."""
    b_full = _as_full(rt, b)
    if isinstance(a, DMatrix) and not a.is_vector:
        n = b_full.shape[1]
        out = a.unstacked([run @ b_full for run in a.stacked()], n)
        rt.comm.charge(flops=a.load * (2 * n))
        return out
    a_full = _as_full(rt, a)
    rt.comm.charge(flops=2 * a_full.shape[0] * a_full.shape[1]
                   * b_full.shape[1] // max(rt.size, 1), calls=0)
    return rt.distribute_full(a_full @ b_full)


def transpose(rt, a: RValue, conjugate: bool = True) -> RValue:
    if not isinstance(a, DMatrix):
        if isinstance(a, str):
            raise MatlabRuntimeError("cannot transpose a string")
        arr = V.as_matrix(a)
        out = arr.conj().T if conjugate else arr.T
        return V.simplify(np.ascontiguousarray(out))
    if a.is_vector:
        # both orientations share the element-block layout: free relabel
        held = a.held
        rt.comm.charge()
        return a.like(held.conj() if conjugate and np.iscomplexobj(held)
                      else held.copy(), shape=(a.cols, a.rows))
    # the corner turn: element (i, j) of the result is (j, i) of ``a``,
    # and only the pieces whose row block changes rank move
    out = remap(rt, a, np.arange(a.rows)[None, :], np.arange(a.cols)[:, None],
                (a.cols, a.rows))
    if conjugate and a.dtype.kind == "c":
        return out.like(out.held.conj())
    return out


def solve(rt, a: RValue, b: RValue, left: bool = True) -> RValue:
    """``a \\ b`` (left) or ``a / b`` (right) via gathered LAPACK solve,
    replicated on every rank."""
    a_full = _as_full(rt, a)
    b_full = _as_full(rt, b)
    if left:
        n = a_full.shape[0]
        nrhs = b_full.shape[1]
        result = _lstsq_or_solve(a_full, b_full)
    else:
        # X = A/B <=> B' X' = A'
        n = b_full.shape[0]
        nrhs = a_full.shape[0]
        xt = _lstsq_or_solve(b_full.conj().T if np.iscomplexobj(b_full)
                             else b_full.T,
                             a_full.conj().T if np.iscomplexobj(a_full)
                             else a_full.T)
        result = xt.conj().T if np.iscomplexobj(xt) else xt.T
    rt.comm.charge(flops=2 * n ** 3 // 3 + 2 * n ** 2 * nrhs)
    return rt.distribute_full(result) if result.size > 1 \
        else V.simplify(result)


def _lstsq_or_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[0] == A.shape[1]:
        try:
            return np.linalg.solve(A, B)
        except np.linalg.LinAlgError:
            pass
    result, *_ = np.linalg.lstsq(A, B, rcond=None)
    return result


def matrix_power(rt, a: RValue, k: RValue) -> RValue:
    power = rt.scalar(k, "^")
    p = float(np.real(power))
    if p != int(p) or p < 0:
        raise MatlabRuntimeError("matrix powers must be nonnegative integers")
    shape = rt.shape_of(a)
    if shape[0] != shape[1]:
        raise MatlabRuntimeError("matrix power: matrix must be square")
    p = int(p)
    if p == 0:
        return rt.eye(float(shape[0]), float(shape[0]))
    result = a
    for _ in range(p - 1):
        result = matmul(rt, result, a)
    return result


def _transposed_products(a: DMatrix, b_runs: list[np.ndarray],
                         conjugate: bool) -> np.ndarray:
    """Every rank's ``A_p' @ B_p``, rank axis first (matmul's zeros for
    a rank that holds nothing)."""
    conj = conjugate and a.dtype.kind == "c"
    return rank_axis([(ra.conj() if conj else ra).transpose(0, 2, 1) @ rb
                      for ra, rb in zip(a.stacked(), b_runs)])


def matmul_t(rt, a: RValue, b: RValue, conjugate: bool = True) -> RValue:
    """Fused ``a' * b`` (pass 6's transpose+multiply rewrite).

    With both operands distributed over the *same* row blocks,
    ``A' * B = sum_p A_p' B_p`` — one local product and one allreduce,
    with no transpose materialization and no allgather.  For column
    vectors this degenerates to ML_dot.
    """
    both = isinstance(a, DMatrix) and isinstance(b, DMatrix)
    if both and a.scheme != b.scheme:
        b = rt.realign(b, a.scheme)
    a_shape, b_shape = (a.shape, b.shape) if both \
        else (rt.shape_of(a), rt.shape_of(b))
    if a_shape == (1, 1) or b_shape == (1, 1):
        at = transpose(rt, a, conjugate)
        return rt.ew(lambda x, y: x * y, 1, at, b,
                     spec=('.*', '@0', '@1'))
    if a_shape[0] != b_shape[0]:
        raise MatlabRuntimeError(
            f"inner matrix dimensions must agree "
            f"({a_shape[::-1]} * {b_shape})")
    # column-vector case: a (k x 1), b (k x 1) -> scalar dot
    if a_shape[1] == 1 and b_shape[1] == 1 and both:
        return _vector_dot(rt, a, b, conjugate and a.dtype.kind == "c")
    if both and not a.is_vector and not b.is_vector:
        # The inner-product algorithm allreduces the full m x n result;
        # when that volume exceeds the gather traffic of the unfused
        # transpose+multiply, fall back (the run-time library picks the
        # cheaper plan, as a real ML_matrix_multiply_at would).
        result_bytes = a.cols * b.cols * 8
        gather_bytes = (a.rows * a.cols + b.rows * b.cols) * 8 // rt.size
        if result_bytes > 2 * gather_bytes and rt.size > 1:
            return matmul(rt, transpose(rt, a, conjugate), b)
        parts = _transposed_products(a, b.stacked(), conjugate)
        rt.comm.charge(flops=a.load * (2 * b.cols))
        return rt.distribute_full(rt.comm.fold(parts, SUM))
    # matrix' * vector: partial products over row blocks + one small
    # allreduce — no transpose materialization, no matrix gather
    if both and not a.is_vector and b.cols == 1:
        parts = _transposed_products(
            a, [rb[:, :, None] for rb in b.stacked()], conjugate)[:, :, 0]
        rt.comm.charge(flops=a.load * 2)
        total = np.asarray(rt.comm.fold(parts, SUM))
        if total.size == 1:
            return V.simplify(total.reshape(1, 1))
        return rt.distribute_full(total.reshape(-1, 1))
    # mixed/vector fallbacks: materialize the transpose
    return matmul(rt, transpose(rt, a, conjugate), b)
