"""Run configuration: every run knob, resolved once, by one table.

*How* a compiled program executes — backend, kernel tier, chaos plan,
watchdog, tracing, self-healing policy, autotuning — is one immutable
:class:`RunConfig`.  :func:`resolve` builds it at the outermost entry
point (``repro run``, a server request, a library call to
``CompiledProgram.run``/``run_spmd``) with the precedence
*explicit value > ``REPRO_*`` variable > default*; everything below
receives the value and never looks at the environment.  :data:`KNOBS`
is the only place a knob's name, variable, validation and default are
written down (docs/CONFIGURATION.md renders it for users).  What a
program is compiled *into* is the other value object,
:class:`repro.tuning.Plan`; deployment settings (cache directories, the
host C compiler) are read where their process-wide singletons are built.

Stdlib-only at import: the CLI's start-up path pays nothing for it.
"""

from __future__ import annotations

import os
from collections import namedtuple
from typing import Any, Optional

from .errors import ConfigError

#: ``fused`` is the production path; ``lockstep`` is the oracle it is
#: tested against and the re-run of a program that cannot fuse
BACKENDS = ("lockstep", "fused")
NATIVE_MODES = ("auto", "off", "require")
#: the four degradation policies, in increasing order of self-healing
ON_FAULT_POLICIES = ("abort", "retry", "restart", "degrade")


# A parser takes the raw value (keyword argument, JSON request field or
# environment string) and the origin to blame, and returns the resolved
# value.  It runs only for a value somebody actually set.  (The server
# validates its non-knob request fields with the same two factories.)

def choice(what: str, choices: tuple):
    def parse(value, origin):
        if value not in choices:
            raise ConfigError(f"{origin}: unknown {what} {value!r} "
                              f"(expected one of {', '.join(choices)})")
        return value
    return parse


def integer(minimum: int):
    def parse(value, origin):
        try:
            if isinstance(value, (bool, float)):
                raise TypeError
            number = int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{origin}: must be an integer (got {value!r})") from None
        if number < minimum:
            raise ConfigError(
                f"{origin}: must be >= {minimum} (got {number})")
        return number
    return parse


def _seconds(value, origin) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        seconds = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{origin}: must be a number of seconds "
                          f"(got {value!r})") from None
    if not seconds > 0:
        raise ConfigError(
            f"{origin}: must be positive (got {seconds:g}s)")
    return seconds


def _flag(value, origin) -> bool:
    # any non-empty environment string but "0" switches a flag on
    return bool(value) and value != "0"


def _fault_plan(value, origin):
    from .mpi.faults import load_plan   # a FaultPlan, inline spec or path

    return load_plan(value)


#: (field, environment variable, parser, default).  A knob without a
#: variable is set per call only: a chaos plan or a plan search
#: inherited from the environment would reach runs that never asked
#: for it (the tuner's own candidate evaluations, for one).
KNOBS = (
    ("backend", "REPRO_SPMD_BACKEND",
     choice("SPMD backend", BACKENDS), "fused"),
    ("native", "REPRO_NATIVE", choice("native mode", NATIVE_MODES), "auto"),
    ("fault_plan", None, _fault_plan, None),
    ("watchdog", "REPRO_WATCHDOG_SECONDS", _seconds, None),
    ("trace", "REPRO_TRACE", _flag, False),
    ("on_fault", "REPRO_ON_FAULT",
     choice("on_fault policy", ON_FAULT_POLICIES), "abort"),
    ("max_restarts", "REPRO_MAX_RESTARTS", integer(0), 2),
    ("checkpoint_every", "REPRO_CHECKPOINT_EVERY", integer(1), None),
    ("tune", None, _flag, False),
    ("tune_budget", None, integer(1), 64),
)

#: the resolved configuration of one run (immutable; ``_replace`` makes
#: a variant).  Built directly — ``RunConfig(backend="fused")`` — it is
#: the defaults plus what was passed, whatever the environment says.
RunConfig = namedtuple("RunConfig", [knob[0] for knob in KNOBS],
                       defaults=[knob[3] for knob in KNOBS])


def resolve(**explicit: Any) -> RunConfig:
    """Resolve every knob: explicit value > environment > default.

    ``None`` means "not set here".  A value that does not parse, or a
    keyword that is not a knob, raises :class:`~repro.errors.ConfigError`
    naming its origin.  A variable is read at most once, and only when
    nothing explicit outranks it.
    """
    values = list(RunConfig())
    for index, (field, variable, parse, _default) in enumerate(KNOBS):
        value = explicit.pop(field, None)
        if value is not None:
            values[index] = parse(value, f"{field}=")
        elif variable and (raw := os.environ.get(variable)):
            values[index] = parse(raw, f"${variable}")
    if explicit:
        raise ConfigError(f"{min(explicit)}=: not a run knob (expected "
                          f"one of {', '.join(RunConfig._fields)})")
    return RunConfig(*values)


def environment_value(field: str) -> Optional[str]:
    """The raw environment string behind one knob (``None`` when unset
    or empty) — for the CLI, whose ``$REPRO_TRACE`` doubles as an
    output mode."""
    variable = next(knob[1] for knob in KNOBS if knob[0] == field)
    return os.environ.get(variable) or None
