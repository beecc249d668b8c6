"""SPMD launcher for the simulated MPI layer.

``run_spmd`` starts one carrier thread per rank, hands each a
:class:`~repro.mpi.comm.Comm`, and collects results, per-rank virtual
times, and any exception.  A failure on one rank aborts the world so
peers blocked in ``recv``/collectives unwind instead of deadlocking.

Two backends execute the rank programs (the ``backend`` run knob; see
:mod:`repro.runconfig` and docs/CONFIGURATION.md for every knob, its
keyword, its environment variable and its default):

``lockstep``
    The oracle.  Cooperative: a
    :class:`~repro.mpi.scheduler.LockstepScheduler`
    gates the carrier threads so exactly one rank runs at a time,
    parking at blocking points and handing off.  Deterministic, nearly
    free per extra rank, and it *detects* deadlock (reporting the full
    blocked-rank wait graph) instead of hanging.

``fused``
    The default.  Rank fusion: the program runs **once** with a
    :class:`~repro.mpi.fused.FusedComm` carrying all ranks' state, so
    the interpreter's control-flow overhead is paid once instead of P
    times.  Accounting (virtual clocks, message/byte/collective counts)
    is bit-identical to ``lockstep``.  A raw body that turns out to be
    rank-dependent (it reads ``comm.rank`` or ``comm.time``, or hits an
    op with no fused path) raises :class:`~repro.errors.FusionDivergence`,
    and ``run_spmd`` re-runs it under ``lockstep`` (on what is left of
    the same watchdog budget).  No compiled program takes that re-run:
    what makes one rank-dependent is known before it starts.

:func:`backend_for` picks the backend before any rank starts, and
``run_spmd``, ``CompiledProgram.run`` and the compile service all ask
it.  A run is ``lockstep`` whatever backend was asked for when it has
a fault plan (fault rules, a timeout, or both: injected faults, their
healing and the virtual-clock timeout act on per-rank waits and wait
graphs, which only lockstep has), or when its program reads the clock
(``tic``/``toc``: each rank reads its own clock, which ranks that did
unequal work read differently).

Self-healing (the ``on_fault`` knob; see
:mod:`repro.mpi.recovery` and docs/RESILIENCE.md): with a non-abort
policy, a faulted run retries dropped/corrupted messages at the comm
layer, and — under ``restart``/``degrade`` — replays terminal faults
(crashes, timeouts, fault-induced deadlocks) from the last checkpoint
up to ``max_restarts`` times, with ``degrade`` returning a partial
result carrying a :class:`~repro.mpi.recovery.RecoveryReport` instead
of raising when the budget runs out.  One host-watchdog budget covers
the *whole* call: the fused attempt and its lockstep re-run, or every
restart attempt, draw down the same allowance.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import FusionDivergence, MpiCorruptionError, MpiError, \
    MpiTimeoutError, RankCrashedError, SpmdWatchdogError
from ..runconfig import RunConfig, resolve
from .comm import Comm, World, _Abort
from .faults import FaultPlan, FaultState
from .fused import FusedComm
from .machine import MachineModel
from .recovery import ActiveRecovery, RecoveryReport
from .scheduler import DeadlockError, LockstepScheduler

#: after an abort, give wedged carrier threads this long to unwind
#: before abandoning them (they are daemons; the process stays healthy)
_TEARDOWN_GRACE = 5.0


@dataclass
class SpmdResult:
    """Outcome of one SPMD execution."""

    results: list[Any]
    times: list[float]            # final virtual clock per rank
    machine: MachineModel
    nprocs: int
    #: the backend that produced this result: ``lockstep`` under the
    #: default configuration means :func:`backend_for` picked it (a
    #: fault plan, or a program that reads the clock) or a raw body's
    #: fused pass diverged and the run was redone
    backend: str
    messages_sent: int = 0
    bytes_sent: int = 0
    collectives: int = 0
    collective_counts: dict[str, int] = field(default_factory=dict)
    #: deterministic log of injected chaos events (rank order), empty
    #: when no fault plan was active; spans *every* restart attempt
    fault_events: list[str] = field(default_factory=list)
    #: the :class:`~repro.trace.WorldTrace` recorded for this run, or
    #: ``None`` when tracing was off (the default)
    trace: Optional[Any] = None
    #: structured self-healing account
    #: (:class:`~repro.mpi.recovery.RecoveryReport`) when a non-abort
    #: ``on_fault`` policy was active, else ``None``.  On a ``degrade``
    #: outcome ``recovery.degraded`` is True and per-rank ``results``
    #: may contain ``None`` for ranks that never finished.
    recovery: Optional[RecoveryReport] = None
    #: per-rank message re-send counts from the retry layer (all zeros
    #: unless retries healed something this attempt)
    rank_retries: list[int] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Virtual wall-clock of the run: the slowest rank."""
        return max(self.times) if self.times else 0.0


@contextmanager
def _watchdog(world: World, scheduler: Optional[LockstepScheduler],
              budget: Optional[float], total: Optional[float]):
    """Host-wall-clock watchdog around one execution attempt (a no-op
    when ``budget`` is ``None``).  The timer fires after ``budget`` (the
    *remaining* allowance — one budget spans the whole call: a fused
    attempt and its re-run, or every restart) but the diagnostic names
    ``total``, the allowance the caller configured.  It aborts the
    *world*: parked ranks unwind through the normal abort path, and the
    fused backend (no scheduler, nobody parked) checks the abort flag at
    every collective charge."""
    if budget is None:
        yield
        return

    def expire() -> None:
        graph = scheduler.wait_graph("ranks at expiry:") \
            if scheduler is not None else None
        world.abort(SpmdWatchdogError(
            f"SPMD watchdog expired after {total:g}s host time; "
            f"aborting the run instead of hanging", wait_graph=graph))
        if scheduler is not None:
            scheduler.abort()

    timer = threading.Timer(budget, expire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def _recoverable(exc: BaseException, plan: Optional[FaultPlan]) -> bool:
    """Is this failure one the recovery layer may heal by replaying?

    Only fault-induced structured failures qualify — and only when a
    fault plan was active (a deadlock in a healthy program is a program
    bug; replaying it would loop).  The host watchdog is never
    recoverable: its budget is already spent."""
    if plan is None or isinstance(exc, SpmdWatchdogError):
        return False
    return isinstance(exc, (RankCrashedError, MpiCorruptionError,
                            MpiTimeoutError, DeadlockError))


def _select_error(world: World,
                  errors: list[tuple[int, BaseException]]
                  ) -> Optional[BaseException]:
    """The exception one attempt should surface (or ``None``): the
    lowest failing rank wins, non-MPI errors are wrapped exactly as the
    historical raise sites did — built without raising so the recovery
    loop can decide whether it heals or surfaces."""
    if errors:
        rank, exc = min(errors, key=lambda pair: pair[0])
        if isinstance(exc, MpiError):
            return exc
        wrapped = MpiError(f"rank {rank} failed: {exc}")
        wrapped.__cause__ = exc
        wrapped.__suppress_context__ = True
        return wrapped
    if world.aborted is not None:
        # no rank raised, yet the world aborted: the scheduler detected
        # a deadlock (or the watchdog fired) and recorded the cause
        if isinstance(world.aborted, MpiError):
            return world.aborted
        wrapped = MpiError(f"SPMD run aborted: {world.aborted}")
        wrapped.__cause__ = world.aborted
        wrapped.__suppress_context__ = True
        return wrapped
    return None


def _unconsumed(world: World) -> Optional[MpiError]:
    """Chaos left messages on the wire that no rank ever received
    (e.g. duplicates): a protocol anomaly, reported deterministically."""
    if world.faults is not None and any(world.mailboxes.values()):
        leftovers = ", ".join(
            f"rank {src}->rank {dst} tag={tag} x{len(queue)}"
            for (src, dst, tag), queue in sorted(world.mailboxes.items())
            if queue)
        return MpiError(
            f"unconsumed messages after faulted run: {leftovers}")
    return None


def _run_fused(nprocs: int, machine: MachineModel, fn: Callable,
               args: tuple, kwargs: dict, world_trace,
               budget: Optional[float], watchdog_total: Optional[float]):
    """One fused pass: ``(world, results, None)``.  A rank-dependent
    raw body raises :class:`FusionDivergence` for the caller to re-run
    under lockstep; any other failure raises as rank 0's would (there
    is no second rank whose error could outrank it)."""
    comm = FusedComm(nprocs, machine, trace=world_trace)
    world = comm.world
    with _watchdog(world, None, budget, watchdog_total):
        try:
            result = fn(comm, *args, **kwargs)
            if world.aborted is not None:
                raise world.aborted
        except (FusionDivergence, MpiError):
            raise  # substrate diagnostics keep their structured type
        except BaseException as exc:  # noqa: BLE001 - lockstep parity
            raise MpiError(f"rank 0 failed: {exc}") from exc
    return world, [result] * nprocs, None


def _run_lockstep(nprocs: int, machine: MachineModel, fn: Callable,
                  args: tuple, kwargs: dict, plan: Optional[FaultPlan],
                  fault_state: Optional[FaultState],
                  recovery: Optional[ActiveRecovery],
                  start_base: float, world_trace,
                  budget: Optional[float],
                  watchdog_total: Optional[float]):
    """One lockstep execution attempt.

    Builds a fresh world (carrying the cross-attempt fault state, so
    fired one-shot rules stay consumed on replay, and the recovery
    ledger), runs every rank, and returns ``(world, results, error)``
    without raising for rank failures — the caller's recovery loop
    decides what heals and what surfaces."""
    scheduler = LockstepScheduler(nprocs)
    world = World(nprocs, machine, scheduler=scheduler, fault_plan=plan,
                  trace=world_trace, fault_state=fault_state,
                  recovery=recovery, start_time=start_base)
    scheduler.trace = world_trace
    scheduler.on_deadlock = world.abort
    if world.virtual_timeout is not None:
        timeout = world.virtual_timeout
        scheduler.deadlock_factory = lambda graph: MpiTimeoutError(
            f"virtual-clock timeout (limit {timeout:.9g}s): "
            f"no simulated rank can make progress", wait_graph=graph)
    results: list[Any] = [None] * nprocs
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def worker(rank: int) -> None:
        comm = Comm(world, rank)
        scheduler.start_rank(rank)
        try:
            if world.aborted is None:
                results[rank] = fn(comm, *args, **kwargs)
        except _Abort:
            pass  # a peer failed; its error is the one to report
        except BaseException as exc:  # noqa: BLE001 - must not deadlock
            with lock:
                errors.append((rank, exc))
            world.abort(exc)
            scheduler.abort()
        finally:
            scheduler.finish_rank(rank)

    with _watchdog(world, scheduler, budget, watchdog_total):
        scheduler.kickoff()
        if nprocs == 1:
            # fast path: no threads needed (the baton is pre-set)
            worker(0)
        else:
            threads = [threading.Thread(target=worker, args=(rank,),
                                        name=f"spmd-rank-{rank}",
                                        daemon=True)
                       for rank in range(nprocs)]
            for thread in threads:
                thread.start()
            # the last rank's finish (or an abort) releases `finished`,
            # so healthy joins find exiting threads (a fixed call count);
            # joins are bounded once the world has aborted, so a truly
            # wedged rank (e.g. an infinite compute loop the watchdog
            # cannot interrupt) is abandoned as a daemon after a grace
            # period instead of hanging the caller
            scheduler.finished.acquire()
            deadline: Optional[float] = None
            for thread in threads:
                thread.join(timeout=0.1)
                while thread.is_alive():
                    thread.join(timeout=0.1)
                    if world.aborted is None:
                        continue
                    if deadline is None:
                        deadline = time.monotonic() + _TEARDOWN_GRACE
                    elif time.monotonic() > deadline:
                        break
    return world, results, _select_error(world, errors)


def backend_for(config: RunConfig, reads_clock: bool = False) -> str:
    """The backend a run under ``config`` executes on, decided before
    any rank starts: ``lockstep`` when the run has a fault plan or its
    program reads the clock (``reads_clock``; see the module
    docstring), else ``config.backend``."""
    if config.fault_plan is not None or reads_clock:
        return "lockstep"
    return config.backend


def run_spmd(nprocs: int, machine: MachineModel,
             fn: Callable[..., Any], *args: Any,
             config: Optional[RunConfig] = None,
             on_fused_fallback: Optional[Callable[[], Any]] = None,
             **kwargs: Any) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` simulated ranks.

    ``config`` is the resolved :class:`~repro.runconfig.RunConfig`, used
    as is.  Without one, the run-knob keywords among ``kwargs``
    (``backend=``, ``trace=``, ``fault_plan=``, ``watchdog=``,
    ``on_fault=``, ...; docs/CONFIGURATION.md) are resolved here, once,
    against the environment; every other keyword goes to ``fn``.

    Any ``fault_plan`` makes this a ``lockstep`` run, whatever
    ``backend`` asks for (:func:`backend_for`).

    ``on_fused_fallback`` is invoked (if given) when a raw body's
    ``fused`` pass diverges, *before* the lockstep re-run — and again
    before each recovery restart attempt — callers use it to discard
    any partial side effects the aborted attempt left behind.
    """
    if config is None:
        config = resolve(**{name: kwargs.pop(name)
                            for name in RunConfig._fields if name in kwargs})
    watchdog, tracing = config.watchdog, config.trace
    plan: Optional[FaultPlan] = config.fault_plan
    backend = backend_for(config)
    # without a plan there is nothing injectable to heal — the policy
    # stays inert and healthy runs pay nothing
    recovery = ActiveRecovery(config, nprocs) \
        if plan is not None and config.on_fault != "abort" else None
    deadline = time.monotonic() + watchdog if watchdog is not None \
        else None

    def budget_left(what: str) -> Optional[float]:
        """Remaining host-watchdog budget, raising once exhausted so a
        fallback/restart never gets a fresh allowance."""
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise SpmdWatchdogError(
                f"SPMD watchdog expired after {watchdog:g}s host time: "
                f"budget exhausted before {what}")
        return remaining

    def new_trace():
        from ..trace import WorldTrace

        wt = WorldTrace(nprocs)
        wt.meta.update(backend=backend, machine=machine.name,
                       nprocs=nprocs)
        return wt

    fault_state: Optional[FaultState] = None
    if plan is not None and plan.has_faults:
        # built once and carried across restart attempts: fired
        # one-shot rules (step=/count=) stay consumed, so a replay does
        # not re-trip the crash it is recovering from
        fault_state = FaultState(plan, nprocs)

    stage = "execution attempt 0"
    while True:
        budget = budget_left(stage)
        world_trace = new_trace() if tracing else None
        if recovery is not None:
            recovery.stamp_pending(world_trace)
        if backend == "fused":
            try:
                world, results, exc = _run_fused(
                    nprocs, machine, fn, args, kwargs, world_trace, budget,
                    watchdog)
            except FusionDivergence:
                # a raw body that reads comm.rank or comm.time (a
                # compiled program never does: backend_for sent one that
                # reads the clock to lockstep): re-run it honestly under
                # lockstep.  The aborted pass is discarded with its World
                # and trace; the watchdog deadline is not — one budget
                # covers the whole call.
                if on_fused_fallback is not None:
                    on_fused_fallback()
                backend = "lockstep"
                stage = "the lockstep re-run"
                continue
        else:
            start_base = recovery.start_base if recovery is not None \
                else 0.0
            world, results, exc = _run_lockstep(
                nprocs, machine, fn, args, kwargs, plan, fault_state,
                recovery, start_base, world_trace, budget, watchdog)

        anomaly = None
        if exc is None:
            anomaly = _unconsumed(world)
            exc = anomaly
        # degrade only swallows fault-induced failures (and the
        # unconsumed-message anomaly, which only chaos can produce) —
        # a user program bug always surfaces
        degraded_ok = (exc is not None and recovery is not None
                       and config.on_fault == "degrade"
                       and (anomaly is not None
                            or _recoverable(exc, plan)))
        if exc is None or degraded_ok:
            may_restart = (exc is not None and recovery is not None
                           and recovery.may_restart
                           and _recoverable(exc, plan))
            if not may_restart:
                report = None
                if recovery is not None:
                    outcome = "completed" if exc is None else "degraded"
                    recovery.finish_attempt(world, outcome, exc)
                    if exc is not None:
                        recovery.report.degraded = True
                        recovery.report.error = \
                            f"{type(exc).__name__}: {exc}".splitlines()[0]
                        recovery.note(f"degrade: {type(exc).__name__}")
                        if world_trace is not None:
                            world_trace.recorders[0].recovery(
                                "degrade", float(world.clocks.max()),
                                error=type(exc).__name__)
                    report = recovery.report
                return SpmdResult(
                    results=results,
                    times=world.clocks.tolist(),
                    machine=machine,
                    nprocs=nprocs,
                    messages_sent=world.messages_sent,
                    bytes_sent=world.bytes_sent,
                    collectives=world.collectives,
                    collective_counts=dict(world.collective_counts),
                    backend=backend,
                    fault_events=world.faults.events
                    if world.faults is not None else [],
                    trace=world_trace,
                    recovery=report,
                    rank_retries=world.rank_retries.tolist(),
                )

        # the attempt failed: heal if the policy and budgets allow
        if recovery is not None and _recoverable(exc, plan):
            recovery.finish_attempt(world, "failed", exc)
            if recovery.may_restart:
                recovery.plan_restart(world, machine, exc)
                if on_fused_fallback is not None:
                    on_fused_fallback()  # discard partial side effects
                stage = f"execution attempt {recovery.attempt}"
                continue
        raise exc
