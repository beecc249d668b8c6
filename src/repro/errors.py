"""Exception hierarchy for the Otter reproduction.

Every subsystem raises a subclass of :class:`OtterError` so callers can
distinguish user-program problems (syntax, type, runtime) from internal
invariant violations.
"""

from __future__ import annotations


class OtterError(Exception):
    """Base class for all errors raised by this package."""


class SourceLocation:
    """A (file, line, column) triple attached to diagnostics.

    ``line`` and ``col`` are 1-based, matching editor conventions and the
    MATLAB interpreter's own error messages.
    """

    __slots__ = ("filename", "line", "col")

    def __init__(self, filename: str = "<script>", line: int = 0, col: int = 0):
        self.filename = filename
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceLocation)
            and (self.filename, self.line, self.col)
            == (other.filename, other.line, other.col)
        )

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.col))


class DiagnosticError(OtterError):
    """An error with an attached source location."""

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc or SourceLocation()
        super().__init__(f"{self.loc}: {message}")
        self.message = message


#: what a recursive pass reports when a program's nesting exhausts the
#: Python stack: its own diagnostic class, never a ``RecursionError``
NESTED_TOO_DEEPLY = "program nested too deeply"


class LexError(DiagnosticError):
    """Raised by the scanner on malformed input."""


class ParseError(DiagnosticError):
    """Raised by the parser on a syntax error."""


class ResolutionError(DiagnosticError):
    """Raised during identifier resolution (pass 2)."""


class InferenceError(DiagnosticError):
    """Raised during type/shape/rank inference (pass 3)."""


class LoweringError(DiagnosticError):
    """Raised during expression rewriting / IR construction (passes 4-6)."""


class CodegenError(DiagnosticError):
    """Raised by a backend (pass 7)."""


class MatlabRuntimeError(OtterError):
    """Raised when executing MATLAB semantics (interpreter or runtime lib)."""


class MpiError(OtterError):
    """Raised by the simulated MPI layer on protocol misuse."""


class ConfigError(MpiError):
    """A run knob or request field carries a value it cannot take; the
    message leads with where it came from (``native=`` for a keyword or
    request field, ``$REPRO_NATIVE`` for the environment).  An
    :class:`MpiError` because callers catch the executor's knobs as such."""


class MpiTimeoutError(MpiError):
    """A simulated rank waited longer than a configured timeout.

    Raised when a recv/collective exceeds the virtual-clock patience of
    an active :class:`~repro.mpi.faults.FaultPlan`, or (as the
    :class:`SpmdWatchdogError` subclass) when the host-wall-clock
    watchdog expires.  ``wait_graph`` carries the blocked-rank report —
    the same structure the lockstep scheduler builds for deadlocks — so
    a timed-out run always says *who* was waiting on *what*.
    """

    def __init__(self, message: str, wait_graph: str | None = None):
        if wait_graph:
            message = f"{message}\n{wait_graph}"
        super().__init__(message)
        self.wait_graph = wait_graph


class SpmdWatchdogError(MpiTimeoutError):
    """The host-wall-clock watchdog expired: the SPMD run was aborted
    instead of hanging (a rank wedged in host code is *running* as far
    as the scheduler knows, so deadlock detection never fires; a fused
    pass has no scheduler at all)."""


class MpiRetryExhaustedError(MpiTimeoutError):
    """The recovery layer's bounded retry budget ran out: a message was
    re-sent ``max_retries`` times and the chaotic network failed every
    attempt.  A timeout subclass because that is what the simulated
    sender observes — its ack timer fired one time too many."""


class MpiCorruptionError(MpiError):
    """A received message failed its integrity check (the payload was
    corrupted in transit — only injectable via a fault plan)."""


class RankCrashedError(MpiError):
    """A fault plan killed this rank mid-program; propagates through the
    normal abort path so peers unwind instead of deadlocking."""


class FusionDivergence(OtterError):
    """Raised under the ``fused`` SPMD backend when a program's control
    flow (or an operation without a fused path) would depend on the
    individual rank.  ``run_spmd`` catches it and transparently re-runs
    the program under ``lockstep`` — fusion is an optimization, never a
    semantics change."""


class DistributionError(OtterError):
    """Raised by the data-distribution machinery on invalid layouts."""
