"""Distribution-map tests (plus hypothesis properties)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import DistributionError
from repro.runtime.distribution import BlockMap, CyclicMap, get_geometry


class TestBlockMap:
    def test_even_split(self):
        m = BlockMap(8, 4)
        assert m.counts() == [2, 2, 2, 2]
        assert m.starts() == [0, 2, 4, 6]

    def test_remainder_to_first_ranks(self):
        m = BlockMap(10, 4)
        assert m.counts() == [3, 3, 2, 2]

    def test_more_ranks_than_items(self):
        m = BlockMap(2, 5)
        assert m.counts() == [1, 1, 0, 0, 0]

    def test_owner_matches_ranges(self):
        m = BlockMap(10, 3)
        for i in range(10):
            r = m.owner(i)
            assert m.start(r) <= i < m.stop(r)

    def test_local_index(self):
        m = BlockMap(10, 3)
        assert m.local_index(0) == 0
        assert m.local_index(4) == 0  # first item of rank 1 (counts 4,3,3)

    def test_out_of_range(self):
        with pytest.raises(DistributionError):
            BlockMap(5, 2).owner(5)
        with pytest.raises(DistributionError):
            BlockMap(5, 2).owner(-1)


class TestCyclicMap:
    def test_round_robin_owner(self):
        m = CyclicMap(10, 3)
        assert [m.owner(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_counts(self):
        m = CyclicMap(10, 3)
        assert m.counts() == [4, 3, 3]

    def test_global_indices(self):
        m = CyclicMap(10, 3)
        np.testing.assert_array_equal(m.global_indices(1), [1, 4, 7])

    def test_local_index(self):
        m = CyclicMap(10, 3)
        assert m.local_index(7) == 2


@given(n=st.integers(0, 500), p=st.integers(1, 17))
def test_block_partition_covers_exactly(n, p):
    """Partition property: counts sum to n, blocks are contiguous and
    disjoint, sizes differ by at most one."""
    m = BlockMap(n, p)
    counts = m.counts()
    assert sum(counts) == n
    assert max(counts) - min(counts) <= 1
    seen = []
    for r in range(p):
        seen.extend(range(m.start(r), m.stop(r)))
    assert seen == list(range(n))


@given(n=st.integers(1, 300), p=st.integers(1, 9))
def test_block_owner_local_roundtrip(n, p):
    m = BlockMap(n, p)
    for i in range(0, n, max(n // 7, 1)):
        r = m.owner(i)
        assert m.start(r) + m.local_index(i) == i


@given(n=st.integers(0, 300), p=st.integers(1, 9))
def test_cyclic_partition_covers_exactly(n, p):
    m = CyclicMap(n, p)
    assert sum(m.counts()) == n
    all_indices = np.concatenate(
        [m.global_indices(r) for r in range(p)]) if n else np.array([])
    assert sorted(all_indices.tolist()) == list(range(n))


@given(n=st.integers(1, 200), p=st.integers(1, 8))
def test_cyclic_owner_consistent_with_indices(n, p):
    m = CyclicMap(n, p)
    for r in range(p):
        for i in m.global_indices(r):
            assert m.owner(int(i)) == r


@pytest.mark.parametrize("cls", [BlockMap, CyclicMap])
@given(n=st.integers(1, 400), p=st.integers(1, 23))
def test_vectorized_owners_match_scalar(cls, n, p):
    """owners()/local_indices() agree element-wise with owner()/
    local_index() — including base == 0 (more ranks than elements)."""
    m = cls(n, p)
    idx = np.arange(n)
    np.testing.assert_array_equal(
        m.owners(idx), [m.owner(i) for i in range(n)])
    np.testing.assert_array_equal(
        m.local_indices(idx), [m.local_index(i) for i in range(n)])


@pytest.mark.parametrize("cls", [BlockMap, CyclicMap])
def test_vectorized_owners_more_ranks_than_elements(cls):
    """The base == 0 edge explicitly: every element fits in the first
    extra-sized blocks (block) or the first ranks (cyclic)."""
    m = cls(3, 8)
    idx = np.arange(3)
    np.testing.assert_array_equal(
        m.owners(idx), [m.owner(i) for i in range(3)])
    np.testing.assert_array_equal(
        m.local_indices(idx), [m.local_index(i) for i in range(3)])


@pytest.mark.parametrize("cls", [BlockMap, CyclicMap])
def test_vectorized_owners_out_of_range(cls):
    m = cls(5, 2)
    with pytest.raises(DistributionError):
        m.owners(np.array([0, 5]))
    with pytest.raises(DistributionError):
        m.owners(np.array([-1, 2]))


@pytest.mark.parametrize("cls", [BlockMap, CyclicMap])
def test_vectorized_owners_empty(cls):
    m = cls(5, 2)
    assert m.owners(np.array([], dtype=int)).size == 0
    assert m.local_indices(np.array([], dtype=int)).size == 0


# -- the interned geometry descriptor ------------------------------------- #

_SCHEMES = {"block": BlockMap, "cyclic": CyclicMap}


@pytest.mark.parametrize("scheme", sorted(_SCHEMES))
@given(n=st.integers(0, 200), p=st.sampled_from((1, 2, 3, 7, 16, 64)),
       cols=st.sampled_from((1, 3)))
def test_geometry_tables_match_scalar_queries(scheme, n, p, cols):
    """Every per-rank table entry equals the scalar map query it
    replaces — vectors (cols == 1, distributed by elements) and matrices
    (distributed by rows), including n < P."""
    geom = get_geometry(n, cols, p, scheme)
    assert geom.shape == (n, cols) and geom.numel == n * cols
    assert geom.is_vector == (n == 1 or cols == 1)
    per_item = 1 if geom.is_vector else cols
    ref = _SCHEMES[scheme](n * cols // per_item, p)
    assert sum(geom.counts) == n * cols
    assert geom.max_count == max(geom.counts)
    assert geom.counts * 3 == tuple(3 * c for c in geom.counts)
    assert geom.counts * 3 is geom.counts * 3       # the charge-memo key
    assert geom.counts * 1 is geom.counts
    assert geom.counts * 2 * 3 == geom.counts * 6   # scales, never repeats
    for r in range(p):
        count = ref.count(r)
        assert geom.counts[r] == count * per_item
        assert geom.local_shapes[r] == \
            ((count,) if geom.is_vector else (count, cols))
        if scheme == "block":
            assert geom.starts[r] == ref.start(r)
            assert geom.slices[r] == slice(ref.start(r), ref.stop(r))
            want = np.arange(ref.start(r), ref.stop(r))
        else:
            want = ref.global_indices(r)
        np.testing.assert_array_equal(geom.global_indices(r), want)
        np.testing.assert_array_equal(
            np.arange(ref.n)[geom.slices[r]], want)


def test_geometry_is_interned_and_tables_are_read_only():
    geom = get_geometry(10, 4, 3, "block")
    assert get_geometry(10, 4, 3, "block") is geom
    assert get_geometry(10, 4, 3, "cyclic") is not geom
    for g in (geom, get_geometry(10, 1, 3, "cyclic")):
        indices = g.global_indices(1)
        assert g.global_indices(1) is indices
        with pytest.raises(ValueError):
            indices[0] = 99


@given(n=st.integers(1, 120), p=st.sampled_from((1, 2, 3, 7, 16, 64)),
       k=st.integers(1, 400), shape=st.sampled_from(("row", "column", 5)))
def test_shift_overlap_matches_owner_count(n, p, k, shape):
    """The closed-form interval overlap equals what the alltoall sizing
    used to count: per source rank, the elements (of a vector; rows, of
    an ``n x 5`` matrix) whose shifted destination rank 0 owns."""
    geom = get_geometry(*{"row": (1, n), "column": (n, 1)}.get(
        shape, (n, shape)), p, "block")
    n = geom.map.n
    k %= n
    want = max(int(np.count_nonzero(
        geom.map.owners((geom.global_indices(r) + k) % n) == 0))
        for r in range(p))
    assert geom.shift_overlap(k) == want


# -- the descriptor protocol: held / load / like --------------------------- #


@pytest.mark.parametrize("scheme", sorted(_SCHEMES))
@pytest.mark.parametrize("nprocs", (1, 2, 3, 4, 7, 16))
@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 23), (40, 1),
                                   (3, 4), (9, 2), (16, 16), (2, 33)])
def test_descriptors_answer_held_load_like(shape, nprocs, scheme):
    """One rank's descriptor and the all-ranks one, over the same array
    (ranks that hold nothing included): ``held`` is the real block / the
    whole array, ``load`` is read off the one and off the geometry for
    the other — and they agree, rank by rank — and ``like`` wraps new
    data in this geometry or in a same-scheme one of another shape."""
    from repro.mpi.comm import Comm
    from repro.mpi.fused import FusedComm
    from repro.runtime.matrix import DMatrix, FusedDMatrix

    full = np.arange(1.0, shape[0] * shape[1] + 1).reshape(shape)
    fused = FusedDMatrix.from_full(full, nprocs, 0, scheme)
    geom = fused.geom
    assert fused.held is fused.full is full
    assert fused.load is geom.counts and sum(fused.load) == full.size
    column = (geom.map.n, 1)        # what a row reduction of it returns
    for rank, block in enumerate(fused.blocks()):
        local = DMatrix.from_full(full, nprocs, rank, scheme)
        assert local.geom is geom
        assert local.held is local.local
        np.testing.assert_array_equal(local.held, block)
        assert type(local.load) is int
        assert local.load == local.held.size == fused.load[rank]
        assert local.load * 3 == (fused.load * 3)[rank]
        np.testing.assert_array_equal(local.global_row_indices(),
                                      fused.global_row_indices()[
                                          geom.slices[rank]])
        twin = local.like(local.held + 1)
        assert twin.geom is geom and twin.rank == rank
        part = np.zeros(geom.local_shapes[rank][0])
        other = local.like(part, shape=column)
        assert other.shape == column and other.scheme == scheme
        assert other.load == part.size
    assert fused.like(full + 1).geom is geom
    other = fused.like(np.zeros(column[0]), shape=column)
    assert other.held.shape == column and other.scheme == scheme
    with pytest.raises(DistributionError):
        fused.like(np.zeros((shape[0] + 1, shape[1])))
    # one comm name charges "each rank its own load", with no frame added
    assert Comm.compute_own is Comm.compute
    assert FusedComm.compute_own is FusedComm.compute_ranks
