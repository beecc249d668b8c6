"""Per-rank trace recording for the simulated MPI substrate.

Design constraints (in priority order):

1. **Zero cost when disabled.**  Every call site in the substrate is
   guarded by an ``if rec is not None`` on a cached per-communicator
   reference, so the disabled path costs one attribute read and a
   branch.
2. **Zero perturbation when enabled.**  Recorders only *read* virtual
   state (clocks, byte counts); they never advance a clock, touch the
   RNG, or take a lock.  Enabling tracing cannot change results,
   virtual times, or communication accounting — a property test pins
   this down (tests/trace/test_zero_perturbation.py).
3. **Bit-determinism.**  Each rank appends only to its own recorder, in
   its own deterministic program order, with its own sequence counter.
   The canonical ordering is ``(rank, seq)`` — never host time, never
   arrival order — so the same program + seed + nprocs yields a
   byte-identical canonical trace on every run and on every backend.

Host wall-clock timestamps are recorded as an *advisory* field for the
Chrome exporter and are excluded from canonical serialization and the
golden-trace suite.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

#: per-line accumulator slots (see :mod:`repro.trace.profile`)
_CALLS, _MSGS, _BYTES, _COLLS, _VTIME = range(5)


class TraceEvent:
    """One recorded span/instant on one rank's virtual timeline."""

    __slots__ = ("rank", "seq", "name", "cat", "line", "t0", "dur",
                 "args", "host")

    def __init__(self, rank: int, seq: int, name: str, cat: str,
                 line: int, t0: float, dur: float,
                 args: Optional[dict] = None, host: float = 0.0):
        self.rank = rank
        self.seq = seq
        self.name = name      # e.g. "mpi.send", "allreduce", "compute"
        self.cat = cat        # "mpi"|"compute"|"io"|"fault"|"recovery"|"rt"
        self.line = line      # originating MATLAB source line (0: none)
        self.t0 = t0          # virtual start time (seconds)
        self.dur = dur        # virtual duration (seconds)
        self.args = args or {}
        self.host = host      # advisory host perf_counter timestamp

    def __repr__(self) -> str:  # debugging aid only
        return (f"TraceEvent(r{self.rank}#{self.seq} {self.name} "
                f"line={self.line} t0={self.t0:.9g} dur={self.dur:.9g})")


class RankRecorder:
    """Event log + per-line accumulators for one simulated rank.

    Only the rank's own carrier thread appends (the same discipline
    :class:`~repro.mpi.faults.FaultState` uses), so no locking.  The
    per-line accumulator rows are ``[calls, msgs, bytes, colls,
    vtime]`` keyed by source line — the script's line number, or an
    M-file function's ``(name, line)``; line 0 collects substrate work
    that precedes any marked statement.
    """

    __slots__ = ("rank", "events", "lines", "_seq")

    def __init__(self, rank: int):
        self.rank = rank
        self.events: list[TraceEvent] = []
        self.lines: dict[int, list] = {}
        self._seq = 0

    # -- low-level ------------------------------------------------------- #

    def _row(self, line: int) -> list:
        row = self.lines.get(line)
        if row is None:
            row = [0, 0, 0, 0, 0.0]
            self.lines[line] = row
        return row

    def event(self, name: str, cat: str, line: int, t0: float,
              dur: float, **args: Any) -> None:
        """Append a raw event (no accumulator side effects)."""
        self.events.append(TraceEvent(
            self.rank, self._seq, name, cat, line, t0, dur, args,
            host=time.perf_counter()))
        self._seq += 1

    # -- substrate hooks -------------------------------------------------- #
    # Each hook mirrors exactly one clock/counter mutation in the MPI
    # layer, so per-line vtime sums to the rank's final clock and the
    # msgs/bytes/colls totals match the World counters (invariants
    # asserted in tests/trace/test_trace_layer.py).

    def charge(self, line: int, dt: float) -> None:
        """Virtual seconds added to the clock (a call overhead, local
        work, or a raw ``advance``)."""
        self._row(line)[_VTIME] += dt

    def calls(self, line: int, n: int) -> None:
        """Run-time-library call tally (``Comm.charge``'s ``calls``)."""
        self._row(line)[_CALLS] += n

    def send(self, line: int, t0: float, dur: float, dest: int,
             tag: int, nbytes: int) -> None:
        self.event("mpi.send", "mpi", line, t0, dur,
                   dest=dest, tag=tag, bytes=nbytes)
        row = self._row(line)
        row[_MSGS] += 1
        row[_BYTES] += nbytes
        row[_VTIME] += dur

    def extra_copies(self, line: int, copies: int, nbytes: int) -> None:
        """Fault-injected duplicates that crossed the wire (mirrors the
        explicit ``messages_sent``/``bytes_sent`` accounting)."""
        row = self._row(line)
        row[_MSGS] += copies
        row[_BYTES] += nbytes

    def recv(self, line: int, t0: float, dur: float, source: int,
             tag: int, nbytes: int) -> None:
        self.event("mpi.recv", "mpi", line, t0, dur,
                   source=source, tag=tag, bytes=nbytes)
        row = self._row(line)
        row[_VTIME] += dur

    def collective(self, op: str, line: int, t0: float, dur: float,
                   nbytes: int) -> None:
        self.event(op, "mpi", line, t0, dur, bytes=nbytes)
        row = self._row(line)
        row[_COLLS] += 1
        row[_VTIME] += dur

    def fault(self, text: str, t0: float) -> None:
        """An injected chaos event (same stream as everything else, so
        chaos tests assert on events instead of scraping stderr)."""
        self.event("fault", "fault", 0, t0, 0.0, what=text)

    def recovery(self, name: str, t0: float, **args: Any) -> None:
        """A self-healing event — ``retry`` / ``rollback`` /
        ``restart`` / ``degrade`` (see docs/OBSERVABILITY.md for the
        per-name args schema).  Zero-fault runs record none, so golden
        traces are untouched."""
        self.event(name, "recovery", 0, t0, 0.0, **args)

    def io(self, line: int, t0: float, nbytes: int) -> None:
        """Coordinated output written by rank 0."""
        self.event("io.write", "io", line, t0, 0.0, bytes=nbytes)

    # -- views ------------------------------------------------------------ #

    @property
    def vtime_total(self) -> float:
        return sum(row[_VTIME] for row in self.lines.values())


class WorldTrace:
    """All recorders of one SPMD execution, plus advisory side data."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.recorders = [RankRecorder(rank) for rank in range(nprocs)]
        #: advisory: (host_time, rank, reason) scheduler park notes
        self.sched_notes: list[tuple[float, int, str]] = []
        #: run metadata stamped by the executor (backend, machine, ...)
        self.meta: dict[str, Any] = {}

    # -- scheduler hook ---------------------------------------------------- #

    def sched_note(self, rank: int, what: str) -> None:
        """Called by the lockstep scheduler under its lock (host-time
        advisory data; never part of the canonical trace)."""
        self.sched_notes.append((time.perf_counter(), rank, what))

    # -- vectorized hooks (fused backend) ----------------------------------- #
    # One call charges every rank from numpy per-rank columns instead of
    # P scalar method calls.  Each helper applies exactly the per-rank
    # hook sequence of RankRecorder (same events, same accumulator-row
    # creation — including zero-valued rows), with payloads converted to
    # plain Python floats/ints via ``.tolist()``, so canonical traces
    # and line profiles are byte-identical to a scalar recording of the
    # same schedule.

    def batch_charge(self, line: int, dt: float) -> None:
        """``charge(line, dt)`` on every rank (uniform dt)."""
        dt = float(dt)
        for rec in self.recorders:
            rec._row(line)[_VTIME] += dt

    def batch_calls(self, line: int, n: int) -> None:
        """``calls(line, n)`` on every rank."""
        for rec in self.recorders:
            rec._row(line)[_CALLS] += n

    def batch_rank_compute(self, line: int, t0s, dts) -> None:
        """The work half of a fused ``charge``: a compute event iff that
        rank's dt > 0, the charge always — what ``Comm.charge`` records
        on one rank.  ``dts`` is a per-rank column or one uniform cost
        (broadcast)."""
        for rec, t0, dt in zip(self.recorders,
                               np.asarray(t0s).tolist(),
                               np.broadcast_to(dts,
                                               (self.nprocs,)).tolist()):
            if dt > 0.0:
                rec.event("compute", "compute", line, t0, dt)
            rec._row(line)[_VTIME] += dt

    def batch_collective(self, op: str, line: int, t0s, tnew: float,
                         nbytes: int) -> None:
        """``collective(op, ...)`` on every rank; per-rank durations are
        computed here as ``tnew - t0`` (same expression, same floats as
        the scalar path)."""
        tnew = float(tnew)
        for rec, t0 in zip(self.recorders, t0s.tolist()):
            dur = tnew - t0
            rec.event(op, "mpi", line, t0, dur, bytes=nbytes)
            row = rec._row(line)
            row[_COLLS] += 1
            row[_VTIME] += dur

    def batch_send(self, line: int, t0s, durs, dests, tag: int,
                   nbytes: int) -> None:
        """``send(...)`` on every rank (columns: start, duration,
        destination)."""
        for rec, t0, dur, dest in zip(self.recorders, t0s.tolist(),
                                      durs.tolist(), dests.tolist()):
            rec.event("mpi.send", "mpi", line, t0, dur,
                      dest=dest, tag=tag, bytes=nbytes)
            row = rec._row(line)
            row[_MSGS] += 1
            row[_BYTES] += nbytes
            row[_VTIME] += dur

    def batch_recv(self, line: int, t0s, durs, sources, tag: int,
                   nbytes: int) -> None:
        """``recv(...)`` on every rank (columns: start, duration,
        source)."""
        for rec, t0, dur, source in zip(self.recorders, t0s.tolist(),
                                        durs.tolist(), sources.tolist()):
            rec.event("mpi.recv", "mpi", line, t0, dur,
                      source=source, tag=tag, bytes=nbytes)
            rec._row(line)[_VTIME] += dur

    # -- canonical views ---------------------------------------------------- #

    def events(self):
        """Every event in canonical ``(rank, seq)`` order.  Each
        per-rank list is already seq-ordered, so this is a plain
        rank-major concatenation."""
        for recorder in self.recorders:
            yield from recorder.events

    def fault_events(self) -> list[TraceEvent]:
        return [e for e in self.events() if e.cat == "fault"]

    def recovery_events(self) -> list[TraceEvent]:
        """Self-healing events (retry/rollback/restart/degrade) in
        canonical order — empty unless a non-abort on_fault policy
        actually healed something."""
        return [e for e in self.events() if e.cat == "recovery"]

    def line_profile(self) -> dict[int, Any]:
        """The merged per-source-line communication profile (see
        :func:`repro.trace.profile.merge_line_profiles`)."""
        from .profile import merge_line_profiles

        return merge_line_profiles([r.lines for r in self.recorders])
