"""Lockstep scheduler: backend selection, determinism, and deadlock
detection."""

import pytest

from repro.mpi import (
    BACKENDS,
    MEIKO_CS2,
    DeadlockError,
    MpiError,
    run_spmd,
)

BACKEND_ENV_VAR = "REPRO_SPMD_BACKEND"


class TestBackendSelection:
    # default / environment / explicit precedence: tests/test_runconfig.py

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fused")
        res = run_spmd(2, MEIKO_CS2, lambda comm: comm.allreduce(1.0))
        assert res.backend == "fused"

    def test_exactly_two_backends(self, monkeypatch):
        # the free-running backend is gone, not aliased: its old name
        # fails like any other unknown one, naming what exists
        assert BACKENDS == ("lockstep", "fused")
        monkeypatch.setenv(BACKEND_ENV_VAR, "threads")
        with pytest.raises(MpiError, match="unknown SPMD backend "
                           "'threads'.*lockstep, fused"):
            run_spmd(2, MEIKO_CS2, lambda comm: None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(MpiError, match="unknown SPMD backend"):
            run_spmd(2, MEIKO_CS2, lambda comm: None, backend="fibers")

    def test_result_records_backend(self):
        for backend in BACKENDS:
            res = run_spmd(3, MEIKO_CS2, lambda comm: comm.rank,
                           backend=backend)
            # reading comm.rank is rank-dependent, so the fused backend
            # transparently falls back to lockstep and records that
            expected = "lockstep" if backend == "fused" else backend
            assert res.backend == expected
            assert res.results == [0, 1, 2]

    def test_fused_records_backend_for_rank_agnostic_program(self):
        res = run_spmd(3, MEIKO_CS2,
                       lambda comm: comm.allreduce(1.0), backend="fused")
        assert res.backend == "fused"
        assert res.results == [3.0, 3.0, 3.0]


class TestDeterminism:
    @staticmethod
    def _prog(comm):
        acc = float(comm.rank + 1)
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        for step in range(4):
            acc = comm.sendrecv(acc, dest=right, source=left, sendtag=step,
                                recvtag=step)
            comm.compute(flops=100 * (comm.rank + 1))
            acc = comm.allreduce(acc)
        return acc

    def test_repeated_lockstep_runs_identical(self):
        a = run_spmd(5, MEIKO_CS2, self._prog, backend="lockstep")
        b = run_spmd(5, MEIKO_CS2, self._prog, backend="lockstep")
        assert a.results == b.results
        assert a.times == b.times
        assert a.messages_sent == b.messages_sent
        assert a.bytes_sent == b.bytes_sent
        assert a.collective_counts == b.collective_counts


class TestDeadlockDetection:
    def test_recv_with_no_sender(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1)
            return None  # rank 1 exits without sending

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "no simulated rank can make progress" in message
        assert "rank 0: blocked in recv(source=1, tag=0)" in message
        assert "rank 1: done" in message

    def test_mutual_recv_cycle(self):
        def prog(comm):
            return comm.recv(source=1 - comm.rank)

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "rank 0: blocked in recv(source=1" in message
        assert "rank 1: blocked in recv(source=0" in message

    def test_collective_mismatch(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.recv(source=0)

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "barrier (1/2 arrived)" in message
        assert "recv(source=0" in message

    def test_single_rank_recv_never_satisfied(self):
        # p == 1 runs inline on the calling thread; the scheduler must
        # still turn "waits forever" into a report
        with pytest.raises(DeadlockError):
            run_spmd(1, MEIKO_CS2, lambda comm: comm.recv(source=0),
                     backend="lockstep")

    def test_deadlock_is_an_mpi_error(self):
        def prog(comm):
            return comm.recv(source=1 - comm.rank)

        with pytest.raises(MpiError):
            run_spmd(2, MEIKO_CS2, prog, backend="lockstep")


class TestWaitGraphTruncation:
    """Deadlock/watchdog reports stay readable (and cheap) at P=1024."""

    def _scheduler(self, nprocs):
        from repro.mpi.scheduler import BLOCKED, LockstepScheduler
        sched = LockstepScheduler(nprocs)
        for rank in range(nprocs):
            sched._state[rank] = BLOCKED
            # a recv chain with one genuine cycle at the front:
            # 0 <-> 1, everyone else waits on its predecessor
            source = 1 if rank == 0 else rank - 1
            sched.reason[rank] = ("recv", source, 7)
        return sched

    def test_small_world_report_is_unchanged(self):
        sched = self._scheduler(4)
        report = sched._wait_graph_locked()
        # every rank listed, no truncation markers
        for rank in range(4):
            assert f"rank {rank}: blocked in recv" in report
        assert "more blocked ranks" not in report
        assert "states:" not in report

    def test_p1024_report_is_truncated(self):
        from repro.mpi.scheduler import WAIT_REPORT_LIMIT

        sched = self._scheduler(1024)
        report = sched._wait_graph_locked()
        assert "recv cycle: 0 -> 1 -> 0" in report
        assert f"... and {1024 - 2 - WAIT_REPORT_LIMIT} more " \
            "blocked ranks" in report
        assert "states: blocked=1024" in report
        # bounded: cycle (2) + limit + cycle line + ellipsis + census
        assert len(report.splitlines()) <= WAIT_REPORT_LIMIT + 6
        assert "rank 1023" not in report

    def test_p1024_report_counts_non_blocked_states(self):
        from repro.mpi.scheduler import DONE
        sched = self._scheduler(1024)
        for rank in range(1000, 1024):
            sched._state[rank] = DONE
            sched.reason[rank] = None
        report = sched._wait_graph_locked()
        assert "states: blocked=1000, done=24" in report

    def test_find_wait_cycle(self):
        from repro.mpi.scheduler import find_wait_cycle

        assert find_wait_cycle({}) == []
        assert find_wait_cycle({0: 1, 1: 0}) == [0, 1]
        assert find_wait_cycle({0: 1, 1: 2, 2: 3}) == []  # chain, no cycle
        # cycle not containing the lowest waiter still found
        assert find_wait_cycle({0: 5, 5: 6, 6: 5}) == [5, 6]
        # self-wait is a 1-cycle
        assert find_wait_cycle({3: 3}) == [3]

    def test_snapshot_names_running_and_parked_ranks(self):
        # the watchdog's post-mortem is this same renderer, taken while
        # a rank is still running (a deadlock report never has one)
        from repro.mpi.scheduler import BLOCKED, RUNNING, LockstepScheduler

        sched = LockstepScheduler(3)
        sched._state = [BLOCKED, RUNNING, BLOCKED]
        sched.reason = [("recv", 1, 5), None,
                         ("collective", "barrier", 1, 3)]
        report = sched.wait_graph("ranks at expiry:")
        assert report.splitlines() == [
            "ranks at expiry:",
            "  rank 0: blocked in recv(source=1, tag=5)",
            "  rank 1: running",
            "  rank 2: blocked in barrier (1/3 arrived)"]

    def test_p1024_waiter_cap_without_a_cycle(self):
        from repro.mpi.scheduler import RUNNING, WAIT_REPORT_LIMIT

        sched = self._scheduler(1024)
        for rank in range(1023):
            sched.reason[rank] = ("recv", 1023, 0)
        sched._state[1023] = RUNNING
        sched.reason[1023] = None
        report = sched.wait_graph("ranks at expiry:")
        assert "recv cycle:" not in report
        assert report.count("blocked in recv") == WAIT_REPORT_LIMIT
        assert f"... and {1023 - WAIT_REPORT_LIMIT} more blocked ranks" \
            in report
        assert "states: blocked=1023, running=1" in report

    def test_live_deadlock_at_p64_reports_cycle(self):
        def prog(comm):
            # every rank waits on its right neighbour: a 64-cycle
            return comm.recv(source=(comm.rank + 1) % comm.size)

        from repro.mpi import FATTREE_CLUSTER

        with pytest.raises(DeadlockError) as excinfo:
            run_spmd(64, FATTREE_CLUSTER, prog, backend="lockstep")
        message = str(excinfo.value)
        assert "no simulated rank can make progress" in message
        assert "recv cycle:" in message
        assert len(message.splitlines()) < 100
