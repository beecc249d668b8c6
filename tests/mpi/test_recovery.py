"""Self-healing suite: retry-with-backoff, checkpoint/restart, degrade.

The anchor properties (mirrors docs/RESILIENCE.md):

1. **Heal to bit-identity** — a seeded chaos run that aborts under the
   default policy completes under ``on_fault=retry/restart`` with
   *bit-identical* data results to the fault-free baseline, on every
   backend (data never depends on the virtual clocks).
2. **Honest clocks** — recovery is never free: every recovered rank
   clock is ``>=`` its fault-free baseline, element-wise.
3. **Zero-fault transparency** — with a non-abort policy armed but no
   fault injected, results *and* clocks are exactly the baseline's and
   the trace records no recovery events.

No test here may rely on host waits longer than 30 s; the watchdog
tests use ~1 s budgets.
"""

import threading
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    MpiError,
    MpiRetryExhaustedError,
    RankCrashedError,
    SpmdWatchdogError,
)
from repro.mpi import MEIKO_CS2, run_spmd
from repro.mpi.comm import World
from repro.mpi.recovery import ActiveRecovery, retry_backoff
from repro.runconfig import RunConfig, resolve
from repro.trace import canonical_events

BACKENDS = ["lockstep", "fused"]


# ------------------------------------------------------------------------- #
# reference rank programs
# ------------------------------------------------------------------------- #


def ring(comm):
    """Each rank passes a token one hop right, then allreduces twice
    (two collective boundaries give checkpoints somewhere to land)."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(comm.rank * 10.0, dest=right, tag=1)
    got = comm.recv(source=left, tag=1)
    total = comm.allreduce(got)
    return comm.allreduce(total + comm.rank)


def collectives_only(comm):
    """Rank-agnostic program (stays fused on the fused backend)."""
    acc = 1.0
    for _ in range(4):
        acc = comm.allreduce(acc) / comm.size + 1.0
    return acc


def _clocks(result):
    return np.asarray(result.times)


# ------------------------------------------------------------------------- #
# policy resolution
# ------------------------------------------------------------------------- #


class TestPolicy:
    # where on_fault / max_restarts / checkpoint_every come from
    # (keyword, environment, default) and how a bad value is rejected:
    # tests/test_runconfig.py.  The recovery ledger reads them off the
    # resolved RunConfig.

    def test_default_is_abort_and_inactive(self):
        assert RunConfig().on_fault == "abort"
        # abort builds no ledger, even under a fault plan
        res = run_spmd(2, MEIKO_CS2, ring, fault_plan="seed=1; timeout=5")
        assert res.recovery is None

    def test_restart_policy_is_active(self):
        rec = ActiveRecovery(resolve(on_fault="restart", max_restarts=5,
                                     checkpoint_every=3), 4)
        assert rec.report.on_fault == "restart" and rec.may_restart
        rec.attempt = 5
        assert not rec.may_restart          # the budget is spent
        assert not ActiveRecovery(resolve(on_fault="retry"), 4).may_restart

    def test_unknown_policy_is_actionable(self):
        with pytest.raises(MpiError, match="unknown on_fault.*abort"):
            resolve(on_fault="panic")

    @pytest.mark.parametrize("kwargs,match", [
        (dict(on_fault="retry", max_restarts=-1), "max_restarts"),
        (dict(on_fault="retry", checkpoint_every=0), "checkpoint_every"),
    ])
    def test_rejects_bad_knobs(self, kwargs, match):
        with pytest.raises(MpiError, match=match):
            run_spmd(2, MEIKO_CS2, ring, **kwargs)

    def test_run_spmd_rejects_unknown_policy_eagerly(self):
        with pytest.raises(MpiError, match="unknown on_fault"):
            run_spmd(2, MEIKO_CS2, ring, on_fault="explode")


class TestRetryBackoff:
    def test_deterministic_and_exponential(self):
        a = retry_backoff(7, rank=1, seq=0, attempt=0, base=1e-4)
        b = retry_backoff(7, rank=1, seq=0, attempt=0, base=1e-4)
        assert a == b
        # jitter is bounded: base*2^k <= backoff < 2*base*2^k
        for k in range(4):
            d = retry_backoff(7, 1, 0, k, 1e-4)
            assert 1e-4 * 2 ** k <= d < 2e-4 * 2 ** k

    def test_jitter_varies_with_sequence(self):
        ds = {retry_backoff(7, 0, seq, 0, 1e-4) for seq in range(8)}
        assert len(ds) > 1


# ------------------------------------------------------------------------- #
# retry-with-backoff
# ------------------------------------------------------------------------- #


class TestRetryHealing:
    PLANS = ["seed=11; drop tag=1 count=2", "seed=11; bitflip tag=1 count=1"]

    @pytest.mark.parametrize("plan", PLANS)
    def test_plans_are_lethal_without_recovery(self, plan):
        with pytest.raises(MpiError):
            run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                     fault_plan=plan)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("plan", PLANS)
    def test_message_faults_heal_bit_identically(self, backend, plan):
        base = run_spmd(4, MEIKO_CS2, ring, backend=backend)
        healed = run_spmd(4, MEIKO_CS2, ring, backend=backend,
                          fault_plan=plan, on_fault="retry", watchdog=20.0)
        assert healed.results == base.results
        assert np.all(_clocks(healed) >= _clocks(base))
        assert healed.recovery is not None and healed.recovery.healed
        assert healed.recovery.retries > 0
        # every re-send is charged: more wire traffic than the baseline
        assert healed.messages_sent > base.messages_sent
        assert healed.bytes_sent > base.bytes_sent

    def test_retry_events_land_in_the_trace(self):
        healed = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                          fault_plan="seed=11; drop tag=1 count=2",
                          on_fault="retry", trace=True, watchdog=20.0)
        events = healed.trace.recovery_events()
        assert events and all(e.name == "retry" for e in events)
        assert all(e.args["cause"] in ("drop", "corrupt") for e in events)

    def test_retry_budget_escalates(self):
        # every copy of the tag-1 message is dropped: undeliverable
        plan = "seed=3; drop tag=1"
        with pytest.raises(MpiRetryExhaustedError, match="retry budget"):
            run_spmd(2, MEIKO_CS2, ring, backend="lockstep",
                     fault_plan=plan, on_fault="retry", watchdog=20.0)

    def test_retries_count_per_rank(self):
        healed = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                          fault_plan="seed=11; drop tag=1 count=2",
                          on_fault="retry", watchdog=20.0)
        per_rank = healed.rank_retries
        assert int(np.sum(per_rank)) == healed.recovery.retries > 0


# ------------------------------------------------------------------------- #
# checkpoint/restart
# ------------------------------------------------------------------------- #

CRASH_PLAN = "seed=5; crash rank=2 op=allreduce step=2"


class TestRestartHealing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_heals_bit_identically(self, backend):
        base = run_spmd(4, MEIKO_CS2, ring, backend=backend)
        with pytest.raises(RankCrashedError):
            run_spmd(4, MEIKO_CS2, ring, backend=backend,
                     fault_plan=CRASH_PLAN, watchdog=20.0)
        healed = run_spmd(4, MEIKO_CS2, ring, backend=backend,
                          fault_plan=CRASH_PLAN, on_fault="restart",
                          checkpoint_every=1, watchdog=20.0)
        assert healed.results == base.results
        assert np.all(_clocks(healed) >= _clocks(base))
        report = healed.recovery
        assert report.healed and report.restarts == 1
        assert report.checkpoints > 0
        assert [a.outcome for a in report.attempts] == \
            ["failed", "completed"]

    def test_rollback_and_restart_events_in_trace(self):
        healed = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                          fault_plan=CRASH_PLAN, on_fault="restart",
                          checkpoint_every=1, trace=True, watchdog=20.0)
        names = [e.name for e in healed.trace.recovery_events()]
        assert names == ["rollback", "restart"]
        rollback = healed.trace.recovery_events()[0]
        assert rollback.args["error"] == "RankCrashedError"
        assert rollback.args["credit"] > 0.0

    def test_checkpoint_credit_shrinks_the_recovery_bill(self):
        slow = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                        fault_plan=CRASH_PLAN, on_fault="restart",
                        watchdog=20.0)           # no checkpoints: no credit
        fast = run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                        fault_plan=CRASH_PLAN, on_fault="restart",
                        checkpoint_every=1, watchdog=20.0)
        assert fast.results == slow.results
        assert fast.elapsed < slow.elapsed

    def test_restart_budget_exhaustion_raises(self):
        # the crash re-fires on every attempt: the budget must run out
        plan = "seed=5; crash rank=1 op=allreduce count=99"
        with pytest.raises(RankCrashedError):
            run_spmd(4, MEIKO_CS2, ring, backend="lockstep",
                     fault_plan=plan, on_fault="restart", max_restarts=2,
                     watchdog=20.0)

    def test_restart_replays_io_without_duplicates(self):
        written = []

        def prog(comm):
            total = comm.allreduce(float(comm.rank))
            if comm.rank == 0:
                written.append(total)
            return comm.allreduce(total)

        run_spmd(4, MEIKO_CS2, prog, backend="lockstep",
                 fault_plan=CRASH_PLAN, on_fault="restart",
                 on_fused_fallback=written.clear, watchdog=20.0)
        assert written == [6.0]


# ------------------------------------------------------------------------- #
# graceful degradation
# ------------------------------------------------------------------------- #


class TestDegrade:
    def test_unhealable_run_degrades_to_partial_result(self):
        # rank 0's sends always vanish; retries exhaust on every attempt
        plan = "seed=3; drop rank=0"
        res = run_spmd(2, MEIKO_CS2, ring, backend="lockstep",
                       fault_plan=plan, on_fault="degrade", max_restarts=1,
                       watchdog=20.0)
        report = res.recovery
        assert report.degraded and not report.healed
        assert "MpiRetryExhaustedError" in report.error
        assert [a.outcome for a in report.attempts] == \
            ["failed", "degraded"]
        assert res.results == [None, None]

    def test_degrade_event_in_trace(self):
        res = run_spmd(2, MEIKO_CS2, ring, backend="lockstep",
                       fault_plan="seed=3; drop rank=0", on_fault="degrade",
                       max_restarts=0, trace=True, watchdog=20.0)
        names = {e.name for e in res.trace.recovery_events()}
        assert "degrade" in names and "retry" in names

    def test_degrade_never_swallows_user_bugs(self):
        def buggy(comm):
            comm.allreduce(1.0)
            raise ValueError("user bug")

        with pytest.raises(MpiError, match="user bug"):
            run_spmd(2, MEIKO_CS2, buggy, backend="lockstep",
                     fault_plan="seed=1; timeout=5", on_fault="degrade",
                     watchdog=20.0)

    def test_degrade_without_faults_completes_normally(self):
        res = run_spmd(2, MEIKO_CS2, ring, backend="lockstep",
                       on_fault="degrade")
        assert res.recovery is None  # no plan: recovery never engages
        assert res.results == run_spmd(2, MEIKO_CS2, ring).results


# ------------------------------------------------------------------------- #
# checkpoints: the numbers restart reads
# ------------------------------------------------------------------------- #


def _ledger(every=1, nprocs=2):
    rec = ActiveRecovery(resolve(on_fault="restart", checkpoint_every=every),
                         nprocs)
    return rec, World(nprocs, MEIKO_CS2, recovery=rec)


def inflight(comm):
    """Rank 0's message is still queued when the first allreduce
    completes: the checkpoint there must price it."""
    if comm.rank == 0:
        comm.send(np.arange(16.0), dest=1, tag=7)
    total = comm.allreduce(float(comm.rank))
    if comm.rank == 1:
        total += float(comm.recv(source=0, tag=7).sum())
    return comm.allreduce(total)


class TestCheckpointStore:
    def test_cadence_and_image_size(self):
        rec, world = _ledger(every=2)
        world.collectives = 1
        rec.at_collective(world, 1.0)
        assert rec.last is None and rec.checkpoints == 0
        world.collectives = 2
        world.mailboxes[(0, 1, 7)] = deque([(b"x" * 128, 0.5, 128, None)])
        rec.at_collective(world, 1.5)
        # five per-rank accounting arrays (8 bytes a rank) + the bytes
        # queued in flight
        assert rec.last == (0, 0, 2, 1.5, 5 * 8 * 2 + 128)
        assert rec.checkpoints == 1

    def test_last_for_attempt_ignores_stale_attempts(self):
        rec, world = _ledger()
        world.collectives = 1
        rec.at_collective(world, 1.0)
        assert rec.last.attempt == 0
        rec.plan_restart(world, MEIKO_CS2, RankCrashedError("boom"))
        # attempt 1 has reached no checkpoint yet: no credit to claim
        assert rec.attempt == 1 and rec.last is None
        rec.at_collective(world, 2.0)
        assert (rec.last.index, rec.last.attempt) == (1, 1)
        assert rec.checkpoints == 2

    def test_compiled_program_checkpoints_and_reports(self):
        from repro.compiler import compile_source

        prog = compile_source("a = ones(4,4);\nfor i = 1:3\n"
                              " s = sum(sum(a)) + i;\nend\ndisp(s);")
        res = prog.run(nprocs=2, fault_plan="seed=1; timeout=5",
                       on_fault="restart", checkpoint_every=1)
        assert res.recovery is not None
        # zero faults: nothing healed, but checkpoints were taken
        assert not res.recovery.healed
        assert res.recovery.checkpoints > 0

    #: nprocs -> (rollback credit, restart overhead, event log), pinned
    #: exactly: a checkpoint that mispriced its image would move them
    PRICED = {
        2: (0.00020035333333333333, 0.00040416000000000003, [
            "rollback to checkpoint 0 (collective 1, vtime_rel="
            "0.000200353333) after RankCrashedError",
            "restart attempt 1 base=0.00040416 overhead=0.00040416"]),
        4: (0.00036070666666666667, 0.00081152, [
            "rollback to checkpoint 0 (collective 1, vtime_rel="
            "0.000360706667) after RankCrashedError",
            "restart attempt 1 base=0.00081152 overhead=0.00081152"]),
        7: (0.0005210600000000001, 0.0012244800000000002, [
            "rollback to checkpoint 0 (collective 1, vtime_rel="
            "0.00052106) after RankCrashedError",
            "restart attempt 1 base=0.00122448 overhead=0.00122448"]),
    }

    @pytest.mark.parametrize("nprocs", sorted(PRICED))
    def test_restart_prices_the_in_flight_image(self, nprocs):
        res = run_spmd(nprocs, MEIKO_CS2, inflight, backend="lockstep",
                       fault_plan=f"seed=5; crash rank={nprocs - 1} "
                                  f"op=allreduce step=2",
                       on_fault="restart", checkpoint_every=1, trace=True,
                       watchdog=20.0)
        credit, overhead, events = self.PRICED[nprocs]
        rollback, restart = res.trace.recovery_events()
        assert rollback.args["credit"] == credit
        # the rebroadcast image: five accounting arrays + 128 queued bytes
        assert restart.args["overhead"] == overhead == (
            2.0 * MEIKO_CS2.collective_time("barrier", 0, nprocs)
            + MEIKO_CS2.collective_time("bcast", 5 * 8 * nprocs + 128,
                                        nprocs))
        assert res.recovery.events == events
        assert res.recovery.summary() == (
            "on_fault=restart attempts=2 retries=0 restarts=1 "
            "checkpoints=3 outcome=completed")


# ------------------------------------------------------------------------- #
# zero-fault transparency
# ------------------------------------------------------------------------- #


class TestZeroFaultTransparency:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_armed_policy_perturbs_nothing(self, backend):
        base = run_spmd(4, MEIKO_CS2, collectives_only, backend=backend)
        armed = run_spmd(4, MEIKO_CS2, collectives_only, backend=backend,
                         fault_plan="seed=9; timeout=10",
                         on_fault="restart", checkpoint_every=2,
                         trace=True)
        assert armed.results == base.results
        assert armed.times == base.times
        assert armed.messages_sent == base.messages_sent
        assert armed.collective_counts == base.collective_counts
        assert armed.trace.recovery_events() == []
        assert armed.recovery is not None and not armed.recovery.healed


# ------------------------------------------------------------------------- #
# watchdog interaction (one budget spans fallback + restarts)
# ------------------------------------------------------------------------- #


class TestWatchdogReArm:
    def test_fused_attempt_is_watchdog_covered(self):
        def spin(comm):
            while True:
                comm.barrier()

        with pytest.raises(SpmdWatchdogError, match="watchdog expired"):
            run_spmd(2, MEIKO_CS2, spin, backend="fused", watchdog=1.0)

    def test_fallback_rerun_shares_the_original_budget(self):
        release = threading.Event()

        def prog(comm):
            # burn most of the budget while still fused, then diverge
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not release.is_set():
                time.sleep(0.01)
            return comm.rank  # FusionDivergence -> lockstep re-run

        try:
            with pytest.raises(SpmdWatchdogError,
                               match="budget exhausted before the "
                                     "lockstep re-run"):
                run_spmd(2, MEIKO_CS2, prog, backend="fused", watchdog=0.5)
        finally:
            release.set()

    def test_a_plan_under_the_fused_backend_reports_as_lockstep(self):
        # a plan makes the run lockstep before any rank starts: no fused
        # pass takes checkpoints or diverges, nothing is discarded, and
        # the one ledger reports exactly what a plain lockstep run reports
        def prog(comm):
            total = comm.allreduce(1.0) + comm.allreduce(2.0)
            comm.barrier()
            return total + comm.allreduce(float(comm.rank))

        knobs = dict(fault_plan="seed=3; timeout=60", on_fault="restart",
                     checkpoint_every=1, watchdog=30.0, trace=True)
        discarded = []
        via_fused = run_spmd(4, MEIKO_CS2, prog, backend="fused",
                             on_fused_fallback=lambda: discarded.append(1),
                             **knobs)
        direct = run_spmd(4, MEIKO_CS2, prog, backend="lockstep", **knobs)
        assert via_fused.backend == "lockstep" and discarded == []
        assert via_fused.recovery.checkpoints == \
            direct.recovery.checkpoints == 4
        assert via_fused.recovery.summary() == direct.recovery.summary()
        assert via_fused.times == direct.times
        assert canonical_events(via_fused.trace) == \
            canonical_events(direct.trace)

    def test_watchdog_error_is_never_recoverable(self, monkeypatch):
        from repro.mpi import executor
        monkeypatch.setattr(executor, "_TEARDOWN_GRACE", 0.5)
        release = threading.Event()

        def prog(comm):
            if comm.rank == 1:
                while not release.is_set():  # wedged in host code
                    time.sleep(0.01)
            return comm.recv(source=1, tag=1)

        t0 = time.monotonic()
        try:
            with pytest.raises(SpmdWatchdogError) as info:
                run_spmd(2, MEIKO_CS2, prog, backend="lockstep",
                         watchdog=1.0, fault_plan="seed=1; timeout=60",
                         on_fault="restart", max_restarts=5)
        finally:
            release.set()
        # no restart loop: the budget was spent exactly once
        assert time.monotonic() - t0 < 8.0
        assert "rank 0: blocked in recv(source=1, tag=1)" \
            in info.value.wait_graph
        assert "rank 1: running" in info.value.wait_graph


# ------------------------------------------------------------------------- #
# property: seeded chaos + recovery == fault-free baseline (data), with
# element-wise slower-or-equal clocks, on every backend
# ------------------------------------------------------------------------- #


POLICY_FOR = {"crash rank=1 op=allreduce step=1": "restart",
              "drop tag=1 count=1": "retry",
              "bitflip tag=1 count=1": "retry"}


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       rule=st.sampled_from(sorted(POLICY_FOR)),
       backend=st.sampled_from(BACKENDS))
def test_property_chaos_heals_to_baseline(seed, rule, backend):
    plan = f"seed={seed}; {rule}"
    base = run_spmd(4, MEIKO_CS2, ring, backend=backend)
    healed = run_spmd(4, MEIKO_CS2, ring, backend=backend, fault_plan=plan,
                      on_fault=POLICY_FOR[rule], checkpoint_every=1,
                      watchdog=25.0)
    assert healed.results == base.results
    assert np.all(_clocks(healed) >= _clocks(base))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_property_fused_crash_heals_to_baseline(seed):
    plan = f"seed={seed}; crash rank=1 op=allreduce step=2"
    base = run_spmd(4, MEIKO_CS2, collectives_only, backend="fused")
    healed = run_spmd(4, MEIKO_CS2, collectives_only, backend="fused",
                      fault_plan=plan, on_fault="restart",
                      checkpoint_every=1, watchdog=25.0)
    assert healed.results == base.results
    assert np.all(_clocks(healed) >= _clocks(base))
