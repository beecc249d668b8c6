"""Message sizing and SPMD-executor behaviour tests."""

import numpy as np
import pytest

from repro.errors import MpiError
from repro.mpi.datatypes import sizeof
from repro.mpi.executor import run_spmd
from repro.mpi.machine import MEIKO_CS2


class TestSizeof:
    def test_arrays(self):
        assert sizeof(np.zeros(10)) == 80
        assert sizeof(np.zeros(10, dtype=np.float32)) == 40
        assert sizeof(np.zeros((3, 3), dtype=complex)) == 144

    def test_scalars(self):
        assert sizeof(1.5) == 8
        assert sizeof(3) == 8
        assert sizeof(1 + 2j) == 16

    def test_none_and_strings(self):
        assert sizeof(None) == 0
        assert sizeof("abcd") == 4

    def test_containers(self):
        assert sizeof([1.0, 2.0]) == 24  # 2 floats + header
        assert sizeof({"k": 1.0}) == 17  # key + value + header

    def test_numpy_scalars_sized_by_itemsize(self):
        """Regression: np.int64(3) is not an `int` instance and used to
        fall through to the 64-byte opaque guess."""
        assert sizeof(np.int64(3)) == 8
        assert sizeof(np.int32(3)) == 4
        assert sizeof(np.float32(1.5)) == 4
        assert sizeof(np.float64(1.5)) == 8  # float subclass, same answer
        assert sizeof(np.complex128(1 + 2j)) == 16
        assert sizeof(np.bool_(True)) == 1

    def test_array_pair_payload_is_shallow(self):
        """The packed alltoall payload shape: a flat (indices, values)
        tuple of arrays — sized from .nbytes, not element recursion."""
        idx = np.arange(100, dtype=np.int64)
        vals = np.ones(100)
        assert sizeof((idx, vals)) == idx.nbytes + vals.nbytes + 8


class TestExecutor:
    def test_single_rank_fast_path_no_threads(self):
        import threading

        before = threading.active_count()
        res = run_spmd(1, MEIKO_CS2, lambda c: c.rank)
        assert res.results == [0]
        assert threading.active_count() == before

    def test_results_ordered_by_rank(self):
        res = run_spmd(5, MEIKO_CS2, lambda c: c.rank * 10)
        assert res.results == [0, 10, 20, 30, 40]

    def test_elapsed_is_slowest_rank(self):
        def fn(comm):
            comm.compute(flops=int(1e6) * (comm.rank + 1))

        res = run_spmd(3, MEIKO_CS2, fn)
        assert res.elapsed == max(res.times)
        assert res.times[2] > res.times[0]

    def test_lowest_failing_rank_reported(self):
        def fn(comm):
            if comm.rank in (1, 3):
                raise ValueError(f"rank {comm.rank}")

        with pytest.raises(MpiError, match="rank 1"):
            run_spmd(4, MEIKO_CS2, fn)

    def test_zero_ranks_rejected(self):
        with pytest.raises(MpiError):
            run_spmd(0, MEIKO_CS2, lambda c: None)

    def test_kwargs_forwarded(self):
        def fn(comm, base, scale=1):
            return base * scale + comm.rank

        res = run_spmd(2, MEIKO_CS2, fn, 100, scale=2)
        assert res.results == [200, 201]
