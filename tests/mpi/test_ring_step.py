"""The run-time library's ring step and a collective's ``unblock_all``.

``Comm.ring_step`` is ``sendrecv`` with neighbours it computes itself,
past the public API's argument checks; ``LockstepScheduler.unblock_all``
unparks a collective's peers in one call.  Neither may change what a
fault, an abort, a virtual timeout or a deadlock looks like.
"""

import traceback

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.errors import MpiError, MpiTimeoutError
from repro.mpi import MEIKO_CS2, run_spmd
from repro.mpi.comm import _Abort
from repro.mpi.scheduler import DeadlockError


def by_ring_step(comm):
    x = np.arange(6.0) + comm.rank
    for _ in range(3):
        x = comm.ring_step(x, True) + 2.0 * comm.ring_step(x[::-1], False)
    return x.tolist()


def by_sendrecv(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    x = np.arange(6.0) + comm.rank
    for _ in range(3):
        x = comm.sendrecv(np.ascontiguousarray(x), right, source=left) \
            + 2.0 * comm.sendrecv(np.ascontiguousarray(x[::-1]), left,
                                  source=right)
    return x.tolist()


def observed(res):
    report = res.recovery
    return (res.results, [t.hex() for t in res.times],
            list(res.rank_retries), res.messages_sent, res.bytes_sent,
            report.summary() if report is not None else None,
            report.events if report is not None else None)


class TestFaultsOnTheRing:
    @pytest.mark.parametrize("plan, policy", [
        ("seed=7; drop tag=0 count=2", "retry"),
        ("seed=7; corrupt tag=0 count=1", "retry"),
        ("seed=7; delay tag=0 count=3 delay=1e-4", "abort"),
        ("seed=7; duplicate tag=0 rank=1 count=1", "abort"),
        ("seed=7; crash rank=2 op=recv step=3", "restart"),
    ])
    def test_a_ring_step_is_the_sendrecv_it_replaces(self, plan, policy):
        """Fault rules, retries, checksums and crash checks act on a
        ring step exactly as on the public ``sendrecv`` between the
        same neighbours."""
        kw = dict(backend="lockstep", fault_plan=plan, on_fault=policy,
                  checkpoint_every=1, watchdog=20.0)
        try:
            want = observed(run_spmd(4, MEIKO_CS2, by_sendrecv, **kw))
        except MpiError as exc:
            with pytest.raises(type(exc)) as info:
                run_spmd(4, MEIKO_CS2, by_ring_step, **kw)
            assert str(info.value) == str(exc)
            return
        got = observed(run_spmd(4, MEIKO_CS2, by_ring_step, **kw))
        assert got == want
        if policy == "retry":
            assert sum(got[2]) > 0

    # a compiled circshift's ring messages under each healing rule: the
    # report, the per-rank clocks and the retry counts as the per-call
    # validating sendrecv path produced them
    SOURCE = ("u = 1:32;\nfor s = 1:3\n"
              "    u = circshift(u, 1) + circshift(u, -2);\nend\n"
              "disp(sum(u .* (1:32)));\n")
    PINNED = {
        ("seed=7; drop tag=0 count=2", "retry"): (
            "on_fault=retry attempts=1 retries=8 restarts=0 checkpoints=1 "
            "outcome=completed", "0x1.f3adee706677ep-10", [2, 2, 2, 2],
            32, 352),
        ("seed=7; corrupt tag=0 count=1", "retry"): (
            "on_fault=retry attempts=1 retries=4 restarts=0 checkpoints=1 "
            "outcome=completed", "0x1.2e4284825ac70p-10", [1, 1, 1, 1],
            28, 320),
        ("seed=7; crash rank=2 op=recv step=3", "restart"): (
            "on_fault=restart attempts=2 retries=0 restarts=1 "
            "checkpoints=1 outcome=completed", "0x1.eb672f75071c6p-10",
            [0, 0, 0, 0], 24, 288),
    }

    @pytest.mark.parametrize("plan, policy", sorted(PINNED))
    def test_circshift_heals_as_pinned(self, plan, policy):
        summary, clock, retries, messages, nbytes = self.PINNED[plan, policy]
        res = compile_source(self.SOURCE).run(
            nprocs=4, machine=MEIKO_CS2, backend="lockstep",
            fault_plan=plan, on_fault=policy, checkpoint_every=1,
            watchdog=20.0)
        spmd = res.spmd
        assert res.output == "       83456\n"
        assert spmd.recovery.summary() == summary
        assert [t.hex() for t in spmd.times] == [clock] * 4
        assert list(spmd.rank_retries) == retries
        assert (spmd.messages_sent, spmd.bytes_sent) == (messages, nbytes)


class TestAbortWhileParkedInARingStep:
    def test_the_originating_traceback_survives(self):
        seen = []

        def explode():
            raise ValueError("rank 3 gave up")

        def prog(comm):
            comm.barrier()
            if comm.rank == 3:
                # runs once ranks 0-2 have taken their ring steps
                comm.recv(source=2, tag=9)
                explode()
            try:
                comm.ring_step(np.ones(2), True)
            except _Abort as exc:
                seen.append((comm.rank, str(exc)))
                raise
            if comm.rank == 2:
                comm.send(0.0, dest=3, tag=9)

        with pytest.raises(MpiError, match="rank 3 failed") as info:
            run_spmd(4, MEIKO_CS2, prog, backend="lockstep")
        cause = info.value.__cause__
        assert isinstance(cause, ValueError)
        assert traceback.extract_tb(cause.__traceback__)[-1].name == \
            "explode"
        # rank 0 was parked in the ring step's receive (rank 3 never
        # sent) and unwound from there with the peer's error
        assert seen == [(0, "peer rank failed: "
                            "ValueError('rank 3 gave up')")]


class TestVirtualTimeout:
    def test_in_a_ring_receive(self):
        def prog(comm):
            comm.barrier()
            return comm.ring_step(float(comm.rank), False)

        with pytest.raises(MpiTimeoutError) as info:
            run_spmd(4, MEIKO_CS2, prog, backend="lockstep",
                     fault_plan="seed=1; timeout=1e-3; "
                                "delay tag=0 rank=2 delay=5e-3")
        assert str(info.value).startswith(
            "rank 1 timed out in recv(source=2, tag=0): waited ")

    def test_in_a_collective(self):
        def prog(comm):
            comm.barrier()
            if comm.rank == 2:
                comm.advance(5e-3)
            return comm.allreduce(1.0)

        with pytest.raises(MpiTimeoutError) as info:
            run_spmd(4, MEIKO_CS2, prog, backend="lockstep",
                     fault_plan="seed=1; timeout=1e-3")
        assert str(info.value).startswith(
            "rank 0 timed out in allreduce: waited ")


class TestDeadlockReport:
    def test_the_wait_graph_text(self):
        def prog(comm):
            comm.barrier()
            if comm.rank == 0:
                comm.ring_step(np.ones(3), True)
            comm.barrier()

        with pytest.raises(DeadlockError) as info:
            run_spmd(4, MEIKO_CS2, prog, backend="lockstep")
        assert str(info.value) == (
            "deadlock: no simulated rank can make progress\n"
            "  rank 0: blocked in recv(source=3, tag=0)\n"
            "  rank 1: blocked in barrier (2/4 arrived)\n"
            "  rank 2: blocked in barrier (3/4 arrived)\n"
            "  rank 3: blocked in barrier (1/4 arrived)")
