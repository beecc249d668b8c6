"""Self-healing for faulted SPMD runs: retry, checkpoint/restart, degrade.

PR 4 made every injected fault *terminal*: a dropped message starves the
receiver into a deadlock report, a corrupted payload raises
:class:`~repro.errors.MpiCorruptionError`, a crash rule kills the run.
This module adds the three layers that let a chaotic run *finish*:

**Retry-with-backoff** (wired into ``Comm._post_message``)
    Under any non-abort policy, a message the chaotic network drops or
    corrupts is detected by the simulated transport (an ack timeout of
    ``RTO_FACTOR`` link latencies for a drop, a checksum NACK for
    corruption) and re-sent with exponential backoff + jitter derived
    from the fault-plan seed.  Every failed attempt is charged
    honestly: the lost bytes/messages land in the per-rank numpy
    accounting arrays, the detection + backoff latency lands on the
    message's arrival time, and ``rank_retries`` counts the re-sends.
    A message still lost after ``MAX_RETRIES`` re-sends escalates to
    :class:`~repro.errors.MpiRetryExhaustedError`.

**Checkpoint/restart** (wired into ``World._run_combine`` and the
``run_spmd`` attempt loop)
    Generated programs keep their workspace in Python frame locals,
    which cannot be captured from outside the frame — so restart is
    *replay-based*: the program deterministically re-executes from the
    start (the seed-driven fault schedule is a pure function of
    per-rank occurrence indices, and fired one-shot rules stay consumed
    across attempts).  A checkpoint is therefore not a restorable image
    but the numbers restart reads: every ``checkpoint_every``-th
    collective records where it landed (``collectives``,
    ``vtime_rel``) and how large the image a real protocol would
    rebroadcast is (``nbytes``: the per-rank accounting arrays plus
    the messages in flight).  The restarted world's clocks begin at a
    uniform base that credits the checkpointed prefix and charges a
    modeled restart protocol (rejoin barrier + checkpoint rebroadcast).
    Because the base shift is uniform and IEEE-754 addition/max are
    monotone, every recovered rank clock is ``>=`` its fault-free
    baseline, and the *data* results are bit-identical (they never
    depend on the clocks).

**Graceful degradation** (``on_fault=abort|retry|restart|degrade``)
    ``abort`` is exactly the pre-existing behavior (and the default:
    healthy runs pay nothing).  ``retry`` heals message faults only;
    ``restart`` additionally replays after terminal faults, up to
    ``max_restarts`` times; ``degrade`` does everything ``restart`` does
    but returns a partial result carrying a structured
    :class:`RecoveryReport` instead of raising when the budget runs out.

Determinism caveat: fault rules windowed on *absolute* virtual time
(``after=``/``before=``) are evaluated against the restarted clock base,
so their schedule can shift across attempts; occurrence-indexed rules
(``step=``/``count=``/``p=``) replay identically.  See
docs/RESILIENCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..runconfig import RunConfig
from .faults import _hash01

#: re-sends of one message before the sender gives up
MAX_RETRIES = 8
#: a dropped message's ack timeout, in link latencies
RTO_FACTOR = 4.0


def retry_backoff(seed: int, rank: int, seq: int, attempt: int,
                  base: float) -> float:
    """Virtual seconds of exponential backoff before re-send number
    ``attempt`` (0-based): ``base * 2**attempt * (1 + jitter)`` with the
    jitter a pure function of the fault seed and the sender's retry
    sequence number — deterministic on every backend, never a shared
    RNG stream."""
    jitter = _hash01(seed, "retry", rank, seq, attempt)
    return base * (2.0 ** attempt) * (1.0 + jitter)


class Checkpoint(NamedTuple):
    """What a restart reads of one checkpoint, taken at a collective
    boundary.  ``vtime_rel`` is the instant relative to the attempt's
    clock base — the virtual-clock credit a restart earns for not
    re-paying the checkpointed prefix; ``nbytes`` is the image a real
    restart protocol would rebroadcast (the five per-rank accounting
    arrays plus every message queued in flight)."""

    index: int          # running count over the whole ledger
    attempt: int
    collectives: int
    vtime_rel: float
    nbytes: int


# ------------------------------------------------------------------------- #
# the per-run recovery ledger
# ------------------------------------------------------------------------- #


@dataclass
class AttemptRecord:
    """One execution attempt inside a recovering ``run_spmd`` call."""

    index: int
    outcome: str                 # "completed" | "failed" | "degraded"
    error: Optional[str] = None
    error_type: Optional[str] = None
    start_base: float = 0.0      # uniform clock base the attempt ran at
    elapsed: float = 0.0         # slowest rank's clock at attempt end
    retries: int = 0             # message re-sends during this attempt


@dataclass
class RecoveryReport:
    """Structured account of what healed (attached to ``SpmdResult`` /
    ``RunResult`` whenever a non-abort policy was active)."""

    on_fault: str
    attempts: list[AttemptRecord] = field(default_factory=list)
    #: deterministic human-readable event log (retry / rollback /
    #: restart / degrade), in occurrence order
    events: list[str] = field(default_factory=list)
    checkpoints: int = 0
    degraded: bool = False
    error: Optional[str] = None

    @property
    def retries(self) -> int:
        return sum(a.retries for a in self.attempts)

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def healed(self) -> bool:
        """True when the run hit at least one fault yet completed."""
        return (not self.degraded
                and bool(self.attempts)
                and self.attempts[-1].outcome == "completed"
                and (self.retries > 0 or self.restarts > 0))

    def summary(self) -> str:
        tail = self.attempts[-1].outcome if self.attempts else "n/a"
        parts = [f"on_fault={self.on_fault}",
                 f"attempts={len(self.attempts)}",
                 f"retries={self.retries}",
                 f"restarts={self.restarts}",
                 f"checkpoints={self.checkpoints}",
                 f"outcome={'degraded' if self.degraded else tail}"]
        if self.error:
            parts.append(f"error={self.error}")
        return " ".join(parts)


class ActiveRecovery:
    """Mutable cross-attempt recovery state for one ``run_spmd`` call.

    Built from the resolved :class:`~repro.runconfig.RunConfig` (only
    when ``on_fault`` is not ``abort``) and carried across restart
    attempts, unlike the ``World``, which is rebuilt per attempt: the
    checkpoint count and the current attempt's newest checkpoint, the
    report, the next uniform clock base, and the per-rank retry
    sequence numbers that feed backoff jitter (so re-sends in attempt
    N+1 draw fresh jitter instead of replaying attempt N's)."""

    def __init__(self, config: RunConfig, nprocs: int):
        self.config = config
        self.nprocs = nprocs
        self.report = RecoveryReport(config.on_fault)
        self.checkpoints = 0
        #: the newest checkpoint of the *current* attempt (one from an
        #: earlier attempt describes program positions the failing
        #: attempt may not have re-reached, so it earns no credit)
        self.last: Optional[Checkpoint] = None
        self.attempt = 0
        self.start_base = 0.0
        self._retry_seq = [0] * nprocs
        #: (name, t0, args) recovery events awaiting the next attempt's
        #: trace (the failing attempt's trace is discarded with its
        #: world, so rollback/restart stamps go on the successor)
        self.pending_trace: list[tuple[str, float, dict]] = []

    @property
    def may_restart(self) -> bool:
        """Does the policy allow another whole-run replay?"""
        return (self.config.on_fault in ("restart", "degrade")
                and self.attempt < self.config.max_restarts)

    def at_collective(self, world, tnew: float) -> None:
        """A collective just completed at common clock ``tnew``: take a
        checkpoint every ``checkpoint_every`` collectives.  Collective
        boundaries are the only instants where every rank's position is
        known.  (Only lockstep gets here: a run with a fault plan never
        starts fused.)"""
        every = self.config.checkpoint_every
        if not every or world.collectives % every:
            return
        nbytes = (world.clocks.nbytes + world.rank_messages.nbytes
                  + world.rank_bytes.nbytes + world.rank_collectives.nbytes
                  + world.rank_retries.nbytes)
        for queue in world.mailboxes.values():
            for _payload, _arrival, size, _crc in queue:
                nbytes += int(size)
        self.last = Checkpoint(self.checkpoints, self.attempt,
                               world.collectives,
                               float(tnew) - world.start_time, nbytes)
        self.checkpoints += 1

    def next_retry_seq(self, rank: int) -> int:
        seq = self._retry_seq[rank]
        self._retry_seq[rank] = seq + 1
        return seq

    def note(self, text: str) -> None:
        self.report.events.append(text)

    def finish_attempt(self, world, outcome: str,
                       exc: Optional[BaseException]) -> AttemptRecord:
        record = AttemptRecord(
            index=self.attempt,
            outcome=outcome,
            error=None if exc is None else str(exc).splitlines()[0],
            error_type=None if exc is None else type(exc).__name__,
            start_base=self.start_base,
            elapsed=float(world.clocks.max()) if world.nprocs else 0.0,
            retries=int(world.rank_retries.sum()),
        )
        self.report.attempts.append(record)
        self.report.checkpoints = self.checkpoints
        return record

    def plan_restart(self, world, machine,
                     exc: BaseException) -> float:
        """Account one rollback+restart and return the next attempt's
        uniform clock base.

        The base is ``fail_time + restart_overhead - checkpoint_credit``:
        every rank pays a modeled restart protocol (a rejoin barrier on
        the way down, another on the way up, and a broadcast of the
        checkpoint image), then replays; the credit is the checkpointed
        prefix the replay does not re-pay.  The credit only counts a
        checkpoint the *failing* attempt actually reached, so the base
        is monotonically nondecreasing across attempts — which (with
        uniform shifts and monotone IEEE-754 ``+``/``max``) is what
        keeps every recovered clock >= its fault-free baseline."""
        fail_time = float(world.clocks.max())
        ck = self.last
        credit = ck.vtime_rel if ck is not None else 0.0
        overhead = 2.0 * machine.collective_time("barrier", 0, self.nprocs)
        overhead += machine.collective_time(
            "bcast", ck.nbytes if ck is not None else 0, self.nprocs)
        base = fail_time + overhead - credit
        what = type(exc).__name__
        if ck is not None:
            self.note(f"rollback to checkpoint {ck.index} "
                      f"(collective {ck.collectives}, vtime_rel="
                      f"{ck.vtime_rel:.9g}) after {what}")
            self.pending_trace.append(
                ("rollback", fail_time,
                 {"checkpoint": ck.index, "error": what,
                  "credit": ck.vtime_rel}))
        else:
            self.note(f"rollback to program start after {what} "
                      f"(no checkpoint this attempt)")
            self.pending_trace.append(
                ("rollback", fail_time, {"checkpoint": -1, "error": what,
                                         "credit": 0.0}))
        self.note(f"restart attempt {self.attempt + 1} "
                  f"base={base:.9g} overhead={overhead:.9g}")
        self.pending_trace.append(
            ("restart", base, {"attempt": self.attempt + 1,
                               "overhead": overhead}))
        self.attempt += 1
        self.last = None
        self.start_base = base
        return base

    def stamp_pending(self, world_trace) -> None:
        """Flush queued rollback/restart events into a fresh attempt's
        trace (rank 0's recorder, like every run-level event)."""
        if world_trace is None:
            self.pending_trace.clear()
            return
        rec = world_trace.recorders[0]
        for name, t0, args in self.pending_trace:
            rec.recovery(name, t0, **args)
        self.pending_trace.clear()
