"""Simulated-MPI communicator tests."""

import numpy as np
import pytest

from repro.errors import MpiError
from repro.mpi import (
    MAX,
    MEIKO_CS2,
    MIN,
    PROD,
    SPARC20_CLUSTER,
    SUM,
    run_spmd,
)


def spmd(p, fn, machine=MEIKO_CS2):
    return run_spmd(p, machine, fn)


class TestPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1, tag=5)
                return None
            if comm.rank == 1:
                return comm.recv(source=0, tag=5)
            return None

        res = spmd(2, prog)
        assert res.results[1] == {"x": 42}

    def test_tag_matching(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            first = comm.recv(source=0, tag=2)
            second = comm.recv(source=0, tag=1)
            return (first, second)

        res = spmd(2, prog)
        assert res.results[1] == ("b", "a")

    def test_recv_advances_clock_past_arrival(self):
        def prog(comm):
            if comm.rank == 0:
                comm.charge(flops=10_000_000, calls=0)  # sender is busy first
                comm.send("late", dest=1)
                return comm.time
            comm.recv(source=0)
            return comm.time

        res = spmd(2, prog)
        assert res.times[1] >= res.times[0] - 1e-12

    def test_sendrecv_exchange(self):
        def prog(comm):
            other = 1 - comm.rank
            return comm.sendrecv(comm.rank * 10, dest=other, source=other)

        res = spmd(2, prog)
        assert res.results == [10, 0]

    def test_send_to_self_buffered(self):
        # MPI allows a rank to message itself: the send buffers through
        # the local queue and a later recv completes immediately
        def prog(comm):
            comm.send(comm.rank * 10 + 1, dest=comm.rank, tag=3)
            return comm.recv(source=comm.rank, tag=3)

        res = spmd(2, prog)
        assert res.results == [1, 11]
        assert res.messages_sent == 2

    def test_send_to_self_preserves_ordering(self):
        def prog(comm):
            comm.send("first", dest=comm.rank)
            comm.send("second", dest=comm.rank)
            return (comm.recv(source=comm.rank), comm.recv(source=comm.rank))

        res = spmd(1, prog)
        assert res.results[0] == ("first", "second")

    def test_invalid_destination(self):
        def prog(comm):
            comm.send(1, dest=99)

        with pytest.raises(MpiError):
            spmd(2, prog)

    def test_recv_parks_until_the_matching_send(self):
        # rank 0 runs first and finds no message: it parks, and rank 1's
        # send hands it the baton back
        def prog(comm):
            if comm.rank == 1:
                comm.send(7, dest=0)
                return None
            return comm.recv(source=1)

        assert spmd(2, prog).results[0] == 7


class TestCollectives:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_bcast(self, p):
        def prog(comm):
            payload = "hello" if comm.rank == 0 else None
            return comm.bcast(payload, root=0)

        res = spmd(p, prog)
        assert all(r == "hello" for r in res.results)

    def test_bcast_nonzero_root(self):
        def prog(comm):
            payload = comm.rank if comm.rank == 2 else None
            return comm.bcast(payload, root=2)

        assert all(r == 2 for r in spmd(4, prog).results)

    @pytest.mark.parametrize("op,expected", [
        (SUM, 0 + 1 + 2 + 3), (PROD, 0), (MAX, 3), (MIN, 0)])
    def test_allreduce_ops(self, op, expected):
        def prog(comm):
            return comm.allreduce(float(comm.rank), op=op)

        res = spmd(4, prog)
        assert all(r == expected for r in res.results)

    def test_allreduce_arrays(self):
        def prog(comm):
            return comm.allreduce(np.full(3, float(comm.rank)))

        res = spmd(4, prog)
        np.testing.assert_array_equal(res.results[0], [6.0, 6.0, 6.0])

    def test_allgather_ordered_by_rank(self):
        def prog(comm):
            return comm.allgather(comm.rank * 2)

        res = spmd(5, prog)
        assert res.results[3] == [0, 2, 4, 6, 8]

    def test_alltoall(self):
        def prog(comm):
            return comm.alltoall(
                [f"{comm.rank}->{d}" for d in range(comm.size)])

        res = spmd(3, prog)
        assert res.results[1] == ["0->1", "1->1", "2->1"]

    def test_barrier_synchronizes_clocks(self):
        def prog(comm):
            if comm.rank == 0:
                comm.charge(flops=50_000_000, calls=0)
            comm.barrier()
            return comm.time

        res = spmd(4, prog)
        assert max(res.times) - min(res.times) < 1e-9

    def test_collective_ordering_multiple_rounds(self):
        def prog(comm):
            total = 0.0
            for k in range(10):
                total += comm.allreduce(float(comm.rank + k))
            return total

        res = spmd(3, prog)
        assert len(set(res.results)) == 1


class TestVirtualTime:
    def test_compute_advances_clock(self):
        res = spmd(1, lambda c: c.charge(flops=65_000_000, calls=0) or c.time)
        assert abs(res.times[0] - 1.0) < 0.05  # ~65 Mflop/s model

    def test_communication_costs_scale_with_size(self):
        def prog_small(comm):
            comm.bcast(np.zeros(10) if comm.rank == 0 else None)
            return comm.time

        def prog_big(comm):
            comm.bcast(np.zeros(1_000_000) if comm.rank == 0 else None)
            return comm.time

        small = spmd(4, prog_small).elapsed
        big = spmd(4, prog_big).elapsed
        assert big > small * 5

    def test_cluster_slower_than_meiko_across_nodes(self):
        def prog(comm):
            comm.allgather(np.zeros(4096))
            return comm.time

        meiko = spmd(8, prog, MEIKO_CS2).elapsed
        cluster = spmd(8, prog, SPARC20_CLUSTER).elapsed
        assert cluster > meiko * 3

    def test_cluster_fast_within_one_node(self):
        def prog(comm):
            comm.allgather(np.zeros(4096))
            return comm.time

        within = spmd(4, prog, SPARC20_CLUSTER).elapsed
        across = spmd(8, prog, SPARC20_CLUSTER).elapsed
        assert across > within * 5

    def test_clock_cannot_go_backwards(self):
        def prog(comm):
            comm.advance(-1.0)

        with pytest.raises(MpiError):
            spmd(1, prog)


class TestFailures:
    def test_error_propagates_and_unblocks_peers(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 died")
            comm.barrier()

        with pytest.raises(MpiError, match="rank 1"):
            spmd(4, prog)

    def test_error_while_peer_waits_in_recv(self):
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("no message coming")
            comm.recv(source=0)

        with pytest.raises(MpiError):
            spmd(2, prog)

    def test_too_many_ranks_for_machine(self):
        with pytest.raises(MpiError):
            spmd(64, lambda c: None)

    def test_statistics_recorded(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), dest=1)
            elif comm.rank == 1:
                comm.recv(source=0)
            comm.barrier()

        res = spmd(2, prog)
        assert res.messages_sent == 1
        assert res.bytes_sent == 800
        assert res.collectives == 1


def test_one_size_prices_agreeing_slots_as_the_general_fold():
    """``_largest`` answers ``max(sizeof(s) for s in slots)`` for every
    mix of contributions a collective meets: one size computation when
    the slots agree in class (and, for arrays, shape and dtype)."""
    from repro.mpi.comm import _largest
    from repro.mpi.datatypes import sizeof

    cases = [
        [1.0] * 4, [1.0, 2], [3, 4, 5], [1j, 2j], [None, None], [1j, 1.0],
        [np.zeros(3)] * 3, [np.zeros(3), np.zeros(4)],
        [np.zeros(3), np.zeros(3, dtype=complex)],
        [np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(2), 1.0],
        [(1.0, 2), (3.0, 4)], ["ab", "abc"], [True, 1.0],
        [np.float64(1.0), 2.0], [np.zeros(0), np.zeros(2)],
    ]
    for slots in cases:
        assert _largest(slots) == max(sizeof(s) for s in slots), slots
