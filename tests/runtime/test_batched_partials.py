"""Bit-equality of the batched partial kernels with the per-rank loops.

An op body computes its partials with one numpy call per *run* of
``stacked()`` — every rank's block under fusion, one rank's block as a
run of one on lockstep — only in a form that is bit-identical to the
per-rank call on that rank's own block.  Both backends run the same
body, so fused == lockstep no longer checks that arithmetic: this file
does.  Every form the runtime uses is pinned here against the loop over
``geom.slices`` (P = 1 and runs of one rank included); a form that
cannot pass stays per-rank and is listed in docs/SCALING.md.  The folds
that combine the partials are pinned against the rank-order Python loop
of ``Comm``'s reduction.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.mpi import comm as mpi_ops
from repro.mpi.fused import fold_ranks
from repro.runtime.distribution import get_geometry
from repro.runtime.matrix import DMatrix, FusedDMatrix
from repro.runtime.reductions import _REDUCERS, _SCANS

RANKS = (1, 2, 3, 7, 16, 33)
#: items per rank: empty parts, below and past numpy's 8-way unrolled
#: and 128-element pairwise blocks, past OpenBLAS's unroll tails
PER_RANK = (0, 1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 255, 1025, 4097)
WIDTHS = (1, 2, 3, 8, 17, 130)
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310)


@st.composite
def cases(draw, matrix=False):
    """A geometry (both schemes; one run, two runs, ranks holding
    nothing) and a value generator for arrays laid out along it."""
    nprocs = draw(st.sampled_from(RANKS))
    scheme = draw(st.sampled_from(("block", "cyclic")))
    cols = draw(st.sampled_from(WIDTHS[1:])) if matrix else 1
    per = draw(st.sampled_from(
        [c for c in PER_RANK if c * nprocs * cols <= 300_000]))
    extent = per * nprocs + draw(st.integers(0, nprocs - 1))
    assume(not matrix or extent != 1)       # a 1 x n matrix is a vector
    geom = get_geometry(extent, cols, nprocs, scheme) if matrix \
        else get_geometry(1, extent, nprocs, scheme)
    cplx = draw(st.booleans())
    spread = draw(st.sampled_from((0, 5, 300)))
    special = draw(st.sampled_from((0.0, 0.02, 0.3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def reals(shape):
        out = rng.choice((-1.0, 1.0), shape) * rng.uniform(1.0, 10.0, shape) \
            * 10.0 ** rng.integers(-spread, spread, shape, endpoint=True)
        return np.where(rng.random(shape) < special,
                        rng.choice(SPECIALS, shape), out)

    def values(*shape):
        with quiet():       # inf * 1j
            return reals(shape) + 1j * reals(shape) if cplx \
                else reals(shape)

    return geom, values


def per_rank(geom, base):
    """Every rank's block, one slice per rank: the per-rank loop's
    operands."""
    return [base[span] for span in geom.slices]


def bits(array):
    """The array's bytes with every NaN made the same NaN.  Which
    operand's NaN (sign, payload) an x86 multiply or add returns depends
    on the operand order the compiler picked — numpy's vector body and
    scalar tail differ there, as do CPython's ``a * b`` and
    ``operator.mul`` — and nothing in MATLAB semantics can observe it."""
    array = np.array(array)
    for part in (array.real, array.imag) if array.dtype.kind == "c" \
            else (array,):
        if part.dtype.kind == "f":
            part[np.isnan(part)] = np.nan
    return array.tobytes()


def same_bits(batched, looped):
    """``batched``: one result array per run, ranks first; ``looped``:
    one result per rank."""
    rows = [row for run in batched for row in run]
    assert len(rows) == len(looped)
    for rank, (got, want) in enumerate(zip(rows, looped)):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape, rank
        assert bits(got) == bits(want), f"rank {rank}"


def quiet():
    return np.errstate(all="ignore")


forms = settings(max_examples=60, deadline=None)


# -- the rank axis ---------------------------------------------------------- #


@forms
@given(case=cases(matrix=True))
def test_stacked_is_the_blocks_and_unstacked_inverts_it(case):
    geom, values = case
    base = values(geom.rows, geom.cols)
    runs = geom.stacked(base)
    assert 1 <= len(runs) <= 2
    same_bits(runs, per_rank(geom, base))
    assert geom.unstacked(runs).tobytes() == base.tobytes()
    if geom.scheme == "block":
        assert all(np.shares_memory(run, base) for run in runs if run.size)
        # splitting the distributed axis never copies, whatever the
        # strides of the array it is applied to
        strided = np.asfortranarray(base)
        assert all(np.shares_memory(run, strided)
                   for run in geom.stacked(strided) if run.size)
    for rank, table in enumerate(
            row for table in geom.run_indices() for row in table):
        assert np.array_equal(table, geom.global_indices(rank))


@forms
@given(case=cases(matrix=True), matrix=st.booleans())
def test_a_ranks_stacked_is_its_row_of_the_fused_runs(case, matrix):
    """What makes one body serve both backends: a lockstep rank's
    ``stacked()`` (of its block, or of an array along the distributed
    axis) is its own row of the fused descriptor's runs, as a run of
    one rank, and ``unstacked`` puts a per-row result back."""
    geom, values = case
    if not matrix:
        geom = get_geometry(1, geom.numel, geom.nprocs, geom.scheme)
    full = values(geom.rows, geom.cols)
    labels = np.arange(geom.map.n)
    fused = FusedDMatrix(geom, full.dtype, full)
    rows = [row for run in fused.stacked() for row in run]
    tables = [row for run in fused.stacked(labels) for row in run]
    for rank in range(geom.nprocs):
        mine = DMatrix.from_full(full, geom.nprocs, rank, geom.scheme)
        [run], [table] = mine.stacked(), mine.stacked(labels)
        assert run.shape == (1,) + rows[rank].shape
        assert bits(run[0]) == bits(rows[rank])
        assert table[0].tolist() == tables[rank].tolist() \
            == geom.global_indices(rank).tolist()
        if matrix and geom.rows > 1 and geom.cols > 1:
            column = mine.unstacked([run[:, :, 0]], 1)
            assert column.shape == (geom.rows, 1)
            assert bits(column.held) == bits(run[0][:, 0])


def test_cached_index_tables_are_read_only():
    for scheme in ("block", "cyclic"):
        geom = get_geometry(1, 11, 4, scheme)
        assert geom.run_indices() is geom.run_indices()
        for table in geom.run_indices():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 7
        # what stacked returns under the cyclic map is a fresh gather,
        # never the table
        run = geom.stacked(np.arange(11.0))[0]
        run[0, 0] = -1.0
        assert geom.run_indices()[0][0, 0] == 0


# -- reductions ------------------------------------------------------------- #


@forms
@given(case=cases(), name=st.sampled_from(("sum", "prod", "max", "min")))
def test_vector_partials(case, name):
    geom, values = case
    fn = _REDUCERS[name][0]
    base = values(geom.numel)
    with quiet():
        batched = [fn(run, axis=1) for run in geom.stacked(base)
                   if run.shape[1]]
        looped = [fn(blk) for blk in per_rank(geom, base) if blk.size]
    same_bits(batched, looped)


def test_empty_vector_partials_are_the_identity():
    empty = get_geometry(1, 2, 5, "block").stacked(np.ones(2))[1]
    assert empty.shape == (3, 0)
    assert np.sum(empty, axis=1).tolist() == [0.0] * 3
    assert np.prod(empty, axis=1).tolist() == [1.0] * 3


@forms
@given(case=cases(matrix=True),
       name=st.sampled_from(("sum", "prod", "max", "min")))
def test_column_partials(case, name):
    geom, values = case
    fn = _REDUCERS[name][0]
    base = values(geom.rows, geom.cols)
    with quiet():
        batched = [fn(run, axis=1) for run in geom.stacked(base)
                   if run.shape[1]]
        looped = [fn(blk, axis=0) for blk in per_rank(geom, base)
                  if blk.size]
    same_bits(batched, looped)


@forms
@given(case=cases(matrix=True), name=st.sampled_from(("sum", "prod")))
def test_row_reduction_needs_no_rank_axis(case, name):
    geom, values = case
    fn = _REDUCERS[name][0]
    base = values(geom.rows, geom.cols)
    with quiet():
        whole = fn(base, axis=1)
        looped = [fn(blk, axis=1) for blk in per_rank(geom, base)]
    same_bits(geom.stacked(whole), looped)


@forms
@given(case=cases(), pick_max=st.booleans())
def test_argmax_partials(case, pick_max):
    geom, values = case
    fn = np.argmax if pick_max else np.argmin
    base = values(geom.numel)
    batched = [fn(run, axis=1) for run in geom.stacked(base)
               if run.shape[1]]
    looped = [fn(blk) for blk in per_rank(geom, base) if blk.size]
    same_bits(batched, looped)


@forms
@given(case=cases(matrix=True))
def test_nonzero_counts(case):
    geom, values = case
    base = np.where(np.abs(values(geom.rows, geom.cols)) > 3.0, 0.0,
                    values(geom.rows, geom.cols))
    batched = [np.count_nonzero(run.reshape(len(run), -1), axis=1)
               for run in geom.stacked(base)]
    looped = [np.intp(np.count_nonzero(blk != 0))
              for blk in per_rank(geom, base)]
    same_bits(batched, looped)


@forms
@given(case=cases(), name=st.sampled_from(("cumsum", "cumprod")))
def test_scan_partials(case, name):
    geom, values = case
    fn = _SCANS[name][0].accumulate
    base = values(geom.numel)
    with quiet():
        batched = [fn(run, axis=1) for run in geom.stacked(base)]
        looped = [fn(blk) for blk in per_rank(geom, base)]
    same_bits(batched, looped)


@forms
@given(case=cases(), name=st.sampled_from(("cumsum", "cumprod")))
def test_scan_offsets(case, name):
    """The second half of a distributed scan: every rank above 0
    combines one scalar into its block (always a block map)."""
    geom, values = case
    geom = get_geometry(1, geom.numel, geom.nprocs, "block")
    ufunc = np.add if name == "cumsum" else np.multiply
    base, offsets = values(geom.numel), values(geom.nprocs - 1)
    with quiet():
        flat = base.copy()
        rest = flat[geom.counts[0]:]
        # out of place: ``out=rest`` rounds a ONE-element complex product
        # differently (46 % of random operands, numpy 2.4)
        rest[...] = ufunc(rest, np.repeat(offsets, geom.counts[1:]))
        looped = [blk if not rank else ufunc(blk, offsets[rank - 1].item())
                  for rank, blk in enumerate(per_rank(geom, base))]
    same_bits(geom.stacked(flat), looped)


@forms
@given(case=cases())
def test_weighted_sum_partials(case):
    """trapz: the weights multiply elementwise, then the sum form."""
    geom, values = case
    base, weights = values(geom.numel), np.real(values(geom.numel))
    with quiet():
        batched = [np.sum(run, axis=1)
                   for run in geom.stacked(weights * base)]
        looped = [np.sum(w * blk) for w, blk in
                  zip(per_rank(geom, weights), per_rank(geom, base))]
    same_bits(batched, looped)


# -- products --------------------------------------------------------------- #


@forms
@given(case=cases(), conj=st.booleans())
def test_dot_partials(case, conj):
    """Not for one-element blocks: ``np.dot`` multiplies those as
    scalars, no batched call does (``-0.0 * 1.0`` stays ``-0.0`` there
    and becomes ``0.0 + -0.0`` in matmul; complex ones round apart)."""
    geom, values = case
    a, b = values(geom.numel), values(geom.numel)
    with quiet():
        batched = [((ra.conj() if conj else ra)[:, None, :]
                    @ rb[:, :, None])[:, 0, 0]
                   for ra, rb in zip(geom.stacked(a), geom.stacked(b))
                   if ra.shape[1] != 1]
        looped = [np.dot(av.conj() if conj else av, bv)
                  for av, bv in zip(per_rank(geom, a), per_rank(geom, b))
                  if av.size != 1]
    same_bits(batched, looped)


@forms
@given(case=cases(matrix=True))
def test_matvec_partials(case):
    geom, values = case
    a, x = values(geom.rows, geom.cols), values(geom.cols)
    with quiet():
        batched = [run @ x for run in geom.stacked(a)]
        looped = [blk @ x for blk in per_rank(geom, a)]
    same_bits(batched, looped)


@forms
@given(case=cases(matrix=True))
def test_vecmat_partials(case):
    geom, values = case
    a, x = values(geom.rows, geom.cols), values(geom.rows)
    with quiet():
        batched = [(rx[:, None, :] @ ra)[:, 0, :] for rx, ra in
                   zip(geom.stacked(x), geom.stacked(a)) if ra.shape[1]]
        looped = [x[geom.global_indices(r)] @ blk
                  for r, blk in enumerate(per_rank(geom, a)) if blk.size]
    same_bits(batched, looped)


@forms
@given(case=cases(matrix=True), width=st.sampled_from(WIDTHS))
def test_matmat_partials(case, width):
    geom, values = case
    a, b = values(geom.rows, geom.cols), values(geom.cols, width)
    with quiet():
        batched = [run @ b for run in geom.stacked(a)]
        looped = [blk @ b for blk in per_rank(geom, a)]
    same_bits(batched, looped)


@forms
@given(case=cases(matrix=True), width=st.sampled_from(WIDTHS),
       conj=st.booleans(), same=st.booleans())
def test_transposed_product_partials(case, width, conj, same):
    """``A' * B`` over common row blocks (``same``: ``A' * A``, where
    numpy may pick syrk)."""
    geom, values = case
    a = values(geom.rows, geom.cols)
    b = a if same else values(geom.rows, width)
    with quiet():
        batched = [(ra.conj() if conj else ra).transpose(0, 2, 1) @ rb
                   for ra, rb in zip(geom.stacked(a), geom.stacked(b))]
        looped = [np.ascontiguousarray(
            (ab.conj().T if conj else ab.T) @ bb)
            for ab, bb in zip(per_rank(geom, a), per_rank(geom, b))]
    same_bits(batched, looped)


@forms
@given(case=cases(matrix=True), conj=st.booleans())
def test_transposed_matvec_partials(case, conj):
    geom, values = case
    a, w = values(geom.rows, geom.cols), values(geom.rows)
    with quiet():
        batched = [((ra.conj() if conj else ra).transpose(0, 2, 1)
                    @ rw[:, :, None])[:, :, 0]
                   for ra, rw in zip(geom.stacked(a), geom.stacked(w))
                   if ra.shape[1]]
        looped = [(ab.conj() if conj else ab).T @ wb for ab, wb in
                  zip(per_rank(geom, a), per_rank(geom, w)) if ab.size]
    same_bits(batched, looped)


@forms
@given(case=cases(matrix=True))
def test_trapz2_partials(case):
    geom, values = case
    z = values(geom.rows, geom.cols)
    wr, wc = np.real(values(geom.rows)), np.real(values(geom.cols))
    with quiet():
        batched = [(rw[:, None, :] @ (rz.real @ wc)[:, :, None])[:, 0, 0]
                   for rw, rz in zip(geom.stacked(wr), geom.stacked(z))
                   if rz.shape[1]]
        looped = [wb @ (blk.real @ wc) for wb, blk in
                  zip(per_rank(geom, wr), per_rank(geom, z)) if blk.size]
    same_bits(batched, looped)


# -- folding the partials --------------------------------------------------- #

FOLDS = {"sum": mpi_ops.SUM, "prod": mpi_ops.PROD,
         "max": mpi_ops.MAX, "min": mpi_ops.MIN}


def rank_order_loop(parts, op):
    """``Comm``'s reduction: ``acc = op(acc, item)`` in rank order."""
    return functools.reduce(op, parts)


@forms
@given(case=cases(), name=st.sampled_from(sorted(FOLDS)))
def test_scalar_fold(case, name):
    geom, values = case
    parts = values(geom.nprocs)
    if name in ("max", "min"):
        parts = np.real(parts)      # ordering reductions are real
    with quiet():
        got = fold_ranks(FOLDS[name], parts)
        want = rank_order_loop(parts.tolist(), FOLDS[name])
    assert type(got) is type(want)
    assert bits(got) == bits(want)


@forms
@given(case=cases(), name=st.sampled_from(sorted(FOLDS)),
       width=st.sampled_from(WIDTHS))
def test_array_fold(case, name, width):
    geom, values = case
    parts = values(geom.nprocs, width)
    if name in ("max", "min"):
        parts = np.real(parts)
    with quiet():
        got = fold_ranks(FOLDS[name], parts)
        want = rank_order_loop(list(parts), FOLDS[name])
    assert got.dtype == want.dtype
    assert bits(got) == bits(want)


def test_scalar_sum_fold_is_python_arithmetic():
    """Overflow saturates silently, as the lockstep fold of Python
    floats does (numpy would warn), and the order is rank order."""
    parts = np.array([1e308, 1e308, -1e308])
    assert fold_ranks(mpi_ops.SUM, parts) == np.inf
    assert fold_ranks(mpi_ops.SUM, parts[::-1]) == 1e308
    assert fold_ranks(mpi_ops.SUM, np.array([1e16, 1.0, 1.0])) \
        == (1e16 + 1.0) + 1.0
