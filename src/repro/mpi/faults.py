"""Deterministic fault injection ("chaos") for the simulated MPI layer.

Otter's generated programs are loosely synchronous SPMD codes whose
correctness depends on every rank observing identical control flow.  The
substrate must therefore *prove* it degrades gracefully when the network
misbehaves: a lost, delayed, duplicated, or corrupted message — or a
rank dying mid-collective — must produce a structured diagnostic, never
a hang and never silently wrong modeled numbers.

This module defines the fault *schedule*:

:class:`FaultRule`
    One injectable fault: ``drop`` / ``delay`` / ``duplicate`` /
    ``corrupt`` (bit-flip the payload) / ``crash`` (kill a rank at a
    given operation).  Each rule is scoped by acting rank (the sender
    for message faults, the victim for crashes), destination, tag,
    operation name, and a virtual-time window, and optionally sampled
    with a seed-driven probability or capped at a fire count.

:class:`FaultPlan`
    An immutable, reusable bundle of rules + seed (+ an optional
    virtual-clock timeout).  Parsable from a small text format so plans
    travel through ``--fault-plan`` / ``fault_plan=``.

:class:`FaultState`
    The per-run mutable consultation state.  **Determinism is the whole
    point**: every decision is a pure function of ``(seed, rule index,
    acting rank, per-rank occurrence index)`` via a cryptographic hash —
    never of wall-clock time, thread interleaving, or a shared RNG
    stream — so an identical plan+seed reproduces the identical fault
    schedule on every run and on every backend (each rank executes the
    same operation sequence under ``lockstep`` and the lockstep
    fallback of ``fused``).

Payload integrity (the ``corrupt`` detector) also lives here: when a
plan is active every message carries a CRC32 checksum computed at send
time, and the receiver verifies it, turning a silent bit-flip into a
:class:`~repro.errors.MpiCorruptionError`.  Checksums cost host time
only — virtual-time accounting is untouched, which is what keeps
zero-fault chaos runs bit-identical to the non-chaos baseline.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..errors import MpiError, RankCrashedError

#: fault kinds that act on one message at send time
MESSAGE_KINDS = ("drop", "delay", "duplicate", "corrupt")
#: all fault kinds
KINDS = MESSAGE_KINDS + ("crash",)

_KIND_ALIASES = {"dup": "duplicate", "bitflip": "corrupt", "flip": "corrupt"}


def _hash01(*parts: Any) -> float:
    """Deterministic uniform [0, 1) from arbitrary hashable parts.

    SHA-256 over the ``repr`` — stable across processes, platforms, and
    Python hash randomization (unlike ``hash()``)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _hash_int(*parts: Any) -> int:
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[8:16], "big")


# ------------------------------------------------------------------------- #
# payload integrity
# ------------------------------------------------------------------------- #


def _payload_bytes(obj: Any) -> bytes:
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return arr.tobytes() + repr((arr.shape, arr.dtype.str)).encode()
    # repr of float round-trips exactly; containers recurse via repr too
    return repr(obj).encode("utf-8", errors="replace")


def payload_checksum(obj: Any) -> int:
    """CRC32 integrity tag for one message payload (host-time only)."""
    return zlib.crc32(_payload_bytes(obj))


def corrupt_payload(obj: Any, salt: int) -> tuple[Any, bool]:
    """A bit-flipped *copy* of ``obj`` (the original may be aliased by
    the sender).  Returns ``(corrupted, True)``, or ``(obj, False)``
    when the payload type has no meaningful bit representation."""
    h = _hash_int("corrupt", salt)
    if isinstance(obj, np.ndarray) and obj.nbytes > 0:
        arr = np.ascontiguousarray(obj).copy()
        flat = arr.view(np.uint8).reshape(-1)
        flat[h % flat.size] ^= np.uint8(1 << (h // 7 % 8))
        return arr, True
    if isinstance(obj, float):
        raw = bytearray(struct.pack("<d", obj))
        raw[h % 8] ^= 1 << (h // 11 % 8)
        return struct.unpack("<d", bytes(raw))[0], True
    if isinstance(obj, bool):
        return (not obj), True
    if isinstance(obj, int):
        return obj ^ (1 << (h % 32)), True
    if isinstance(obj, str) and obj:
        i = h % len(obj)
        return obj[:i] + chr(ord(obj[i]) ^ 1) + obj[i + 1:], True
    return obj, False  # opaque container: leave intact (logged by caller)


# ------------------------------------------------------------------------- #
# rules and plans
# ------------------------------------------------------------------------- #


def _scope_matches(scope, value: int) -> bool:
    """Does a rank/dest scope (``None`` wildcard, single int, or an
    inclusive ``(lo, hi)`` range) cover ``value``?"""
    if scope is None:
        return True
    if isinstance(scope, tuple):
        return scope[0] <= value <= scope[1]
    return scope == value


def _scope_interval(scope) -> tuple[float, float]:
    if scope is None:
        return (-math.inf, math.inf)
    if isinstance(scope, tuple):
        return (scope[0], scope[1])
    return (scope, scope)


def _scopes_overlap(a, b) -> bool:
    """Do two rank scopes cover at least one common rank?"""
    alo, ahi = _scope_interval(a)
    blo, bhi = _scope_interval(b)
    return alo <= bhi and blo <= ahi


def _scope_str(scope) -> str:
    if isinstance(scope, tuple):
        return f"{scope[0]}-{scope[1]}"
    return str(scope)


def _check_scope(scope, what: str) -> None:
    """Eagerly reject malformed rank/dest scopes (negative ranks,
    inverted ranges) so a bad plan fails at load time with a message
    naming the field, never mid-run."""
    if scope is None:
        return
    if isinstance(scope, tuple):
        lo, hi = scope
        if lo < 0 or hi < 0:
            raise MpiError(
                f"fault plan: {what} range {lo}-{hi} has a negative "
                f"rank (ranks are >= 0)")
        if lo > hi:
            raise MpiError(
                f"fault plan: {what} range {lo}-{hi} is inverted "
                f"(write {hi}-{lo})")
    elif scope < 0:
        raise MpiError(
            f"fault plan: {what}={scope} is negative (ranks are >= 0)")


@dataclass(frozen=True)
class FaultRule:
    """One injectable fault, scoped by rank/destination/tag/op/time.

    ``rank`` is the *acting* rank: the sender for message faults, the
    victim for crashes.  ``None`` scope fields match anything; ``rank``
    and ``dest`` also accept an inclusive ``(lo, hi)`` range (spelled
    ``rank=lo-hi`` in the text format).  ``probability`` < 1 samples
    deterministically from the plan seed; ``count`` caps fires **per
    rank** (per-rank scoping is what keeps schedules identical across
    backends).  ``step`` (1-based) makes a crash fire at the rank's
    N-th matching operation.

    Every field is validated eagerly at construction — a malformed plan
    fails when it is *loaded*, with a message naming the offending
    field, never as a mid-run surprise.
    """

    kind: str
    rank: Any = None        # None | int | (lo, hi) inclusive
    dest: Any = None        # None | int | (lo, hi) inclusive
    tag: Optional[int] = None
    op: Optional[str] = None
    t_min: float = 0.0
    t_max: float = math.inf
    probability: float = 1.0
    count: Optional[int] = None
    step: Optional[int] = None
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MpiError(f"unknown fault kind {self.kind!r} "
                           f"(expected one of {', '.join(KINDS)})")
        if self.kind == "crash" and self.rank is None:
            raise MpiError("crash faults need an explicit rank= scope")
        _check_scope(self.rank, "rank")
        _check_scope(self.dest, "dst")
        if self.tag is not None and self.tag < 0:
            raise MpiError(
                f"fault plan: tag={self.tag} is negative — the substrate "
                f"rejects negative tags at send time, so this rule could "
                f"never match a message")
        if not 0.0 <= self.probability <= 1.0:
            raise MpiError(
                f"fault probability must be in [0, 1] "
                f"(got {self.probability})")
        if self.count is not None and self.count < 1:
            raise MpiError(
                f"fault plan: count={self.count} would never fire "
                f"(use count >= 1, or drop the rule)")
        if self.step is not None and self.step < 1:
            raise MpiError(
                f"fault plan: step={self.step} is invalid (steps are "
                f"1-based occurrence indices)")
        if self.t_min < 0.0:
            raise MpiError(
                f"fault plan: after={self.t_min:g} is negative "
                f"(virtual time starts at 0)")
        if self.t_max <= self.t_min:
            raise MpiError(
                f"fault plan: empty time window "
                f"[after={self.t_min:g}, before={self.t_max:g}) — "
                f"the rule could never fire")
        if self.delay < 0.0:
            raise MpiError(
                f"fault plan: by={self.delay:g} is negative (a delay "
                f"cannot move a message back in time)")
        if self.kind == "delay" and self.delay <= 0.0:
            raise MpiError("delay faults need by=<seconds> > 0")

    # -- scope checks --------------------------------------------------- #

    def _window(self, now: float) -> bool:
        return self.t_min <= now < self.t_max

    def matches_message(self, src: int, dest: int, tag: int,
                        now: float) -> bool:
        return (self.kind in MESSAGE_KINDS
                and _scope_matches(self.rank, src)
                and _scope_matches(self.dest, dest)
                and (self.tag is None or self.tag == tag)
                and (self.op is None or self.op == "send")
                and self._window(now))

    def matches_op(self, rank: int, op: str, now: float) -> bool:
        return (self.kind == "crash"
                and _scope_matches(self.rank, rank)
                and (self.op is None or self.op == op)
                and self._window(now))

    def describe(self) -> str:
        parts = [self.kind]
        for key, value, default in (
                ("rank", self.rank, None), ("dst", self.dest, None),
                ("tag", self.tag, None), ("op", self.op, None),
                ("step", self.step, None), ("count", self.count, None)):
            if value != default:
                if key in ("rank", "dst"):
                    value = _scope_str(value)
                parts.append(f"{key}={value}")
        if self.kind == "delay":
            parts.append(f"by={self.delay:g}")
        if self.probability < 1.0:
            parts.append(f"p={self.probability:g}")
        if self.t_min > 0.0:
            parts.append(f"after={self.t_min:g}")
        if not math.isinf(self.t_max):
            parts.append(f"before={self.t_max:g}")
        return " ".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable fault schedule: rules + seed (+ virtual timeout).

    The plan itself carries no mutable state, so one plan can be run
    many times — each run builds a fresh :class:`FaultState` — and the
    injected schedule is identical every time.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    #: virtual-clock patience: a rank whose recv/collective wait exceeds
    #: this many *simulated* seconds raises MpiTimeoutError
    virtual_timeout: Optional[float] = None

    def __init__(self, rules=(), seed: int = 0,
                 virtual_timeout: Optional[float] = None):
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "virtual_timeout", virtual_timeout)
        if virtual_timeout is not None and virtual_timeout <= 0:
            raise MpiError("timeout must be positive (virtual seconds)")
        self._validate_rules()

    def _validate_rules(self) -> None:
        """Eager cross-rule checks: duplicate rules and double-kill
        crash overlaps fail at load time with the offending directives
        spelled out, never as a mid-run surprise."""
        seen: dict[FaultRule, int] = {}
        for i, rule in enumerate(self.rules):
            j = seen.get(rule)
            if j is not None:
                raise MpiError(
                    f"fault plan: rule {i + 1} ({rule.describe()!r}) "
                    f"duplicates rule {j + 1} — each would fire on the "
                    f"same occurrences; use count= to fire more than "
                    f"once")
            seen[rule] = i
        crashes = [(i, r) for i, r in enumerate(self.rules)
                   if r.kind == "crash"]
        for n, (i, a) in enumerate(crashes):
            for j, b in crashes[n + 1:]:
                if (_scopes_overlap(a.rank, b.rank)
                        and (a.op is None or b.op is None or a.op == b.op)
                        and a.step == b.step):
                    raise MpiError(
                        f"fault plan: crash rules {i + 1} "
                        f"({a.describe()!r}) and {j + 1} "
                        f"({b.describe()!r}) overlap on rank scope "
                        f"{_scope_str(a.rank)} vs {_scope_str(b.rank)} "
                        f"— the second can never fire (the rank is "
                        f"already dead); narrow the rank= ranges or "
                        f"give the rules distinct step= positions")

    @property
    def has_faults(self) -> bool:
        """True when any injectable rule exists (a timeout-only plan is
        not chaotic: it never perturbs a healthy run)."""
        return bool(self.rules)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.virtual_timeout is not None:
            parts.append(f"timeout={self.virtual_timeout:g}")
        parts.extend(rule.describe() for rule in self.rules)
        return "; ".join(parts)

    # -- parsing --------------------------------------------------------- #

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the textual plan format (see docs/RESILIENCE.md).

        Directives are separated by ``;`` or newlines; ``#`` starts a
        comment.  ``seed=N`` and ``timeout=S`` are plan-level; every
        other directive is ``<kind> key=value ...``::

            seed=7; timeout=0.5
            drop rank=0 dst=1 tag=3 p=0.5 count=2
            delay by=0.002 after=0.001
            corrupt tag=9
            crash rank=2 op=allreduce step=3
        """
        rules: list[FaultRule] = []
        seed = 0
        timeout: Optional[float] = None
        for raw_line in text.replace(";", "\n").splitlines():
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            head = tokens[0].lower()
            if "=" in head:  # plan-level key=value directive
                for token in tokens:
                    key, _, value = token.partition("=")
                    key = key.lower()
                    if key == "seed":
                        seed = _parse_int(value, "seed")
                    elif key == "timeout":
                        timeout = _parse_float(value, "timeout")
                    else:
                        raise MpiError(
                            f"fault plan: unknown directive {token!r}")
                continue
            kind = _KIND_ALIASES.get(head, head)
            if kind not in KINDS:
                raise MpiError(f"fault plan: unknown fault kind {head!r} "
                               f"(expected one of {', '.join(KINDS)})")
            fields: dict[str, Any] = {"kind": kind}
            for token in tokens[1:]:
                key, eq, value = token.partition("=")
                if not eq:
                    raise MpiError(
                        f"fault plan: expected key=value, got {token!r}")
                key = key.lower()
                if value in ("*", "any"):
                    continue
                if key in ("rank", "src", "source"):
                    fields["rank"] = _parse_scope(value, key)
                elif key in ("dst", "dest"):
                    fields["dest"] = _parse_scope(value, key)
                elif key == "tag":
                    fields["tag"] = _parse_int(value, key)
                elif key == "op":
                    fields["op"] = value
                elif key in ("p", "prob", "probability"):
                    fields["probability"] = _parse_float(value, key)
                elif key == "count":
                    fields["count"] = _parse_int(value, key)
                elif key == "step":
                    fields["step"] = _parse_int(value, key)
                elif key in ("by", "delay"):
                    fields["delay"] = _parse_float(value, key)
                elif key == "after":
                    fields["t_min"] = _parse_float(value, key)
                elif key == "before":
                    fields["t_max"] = _parse_float(value, key)
                else:
                    raise MpiError(f"fault plan: unknown key {key!r} "
                                   f"in {line!r}")
            rules.append(FaultRule(**fields))
        return cls(rules=rules, seed=seed, virtual_timeout=timeout)


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise MpiError(f"fault plan: {what} needs an integer "
                       f"(got {value!r})") from None


def _parse_scope(value: str, what: str):
    """A rank scope: a single integer, or an inclusive ``lo-hi`` range
    (``rank=0-3`` matches ranks 0, 1, 2, and 3)."""
    body = value[1:] if value.startswith("-") else value
    if "-" in body:
        lo, _, hi = value.partition("-")
        return (_parse_int(lo, what), _parse_int(hi, what))
    return _parse_int(value, what)


def _parse_float(value: str, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise MpiError(f"fault plan: {what} needs a number "
                       f"(got {value!r})") from None


def load_plan(spec) -> Optional[FaultPlan]:
    """Resolve a ``--fault-plan`` / ``fault_plan=`` value.

    ``None``/empty → no plan; an existing :class:`FaultPlan` passes
    through; ``@path`` or a path to an existing file reads the file;
    anything else parses as an inline plan."""
    if spec is None:
        return None
    if isinstance(spec, FaultPlan):
        return spec
    text = str(spec).strip()
    if not text:
        return None
    if text.startswith("@"):
        return FaultPlan.parse(_read_plan_file(text[1:]))
    if os.path.exists(text):
        return FaultPlan.parse(_read_plan_file(text))
    return FaultPlan.parse(text)


def _read_plan_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MpiError(f"fault plan: cannot read {path!r}: {exc}") from None


# ------------------------------------------------------------------------- #
# per-run consultation state
# ------------------------------------------------------------------------- #


@dataclass
class MessageFate:
    """What the chaotic network does to one posted message.

    ``corrupted`` marks a payload a corrupt rule actually mangled —
    the recovery layer's retry loop treats it as a failed attempt (the
    receiver's checksum NACK triggers a re-send), while without
    recovery it travels on and fails the receive-side integrity
    check."""

    payload: Any
    deliver: bool = True
    copies: int = 1
    extra_delay: float = 0.0
    checksum: Optional[int] = None
    corrupted: bool = False


class FaultState:
    """Mutable per-run state consulted at every send/recv/sync.

    All counters are **per acting rank**: each rank's schedule depends
    only on its own deterministic operation sequence, never on how the
    backend interleaves ranks — which is exactly what makes the same
    plan reproduce the same faults under every schedule.  Each rank's
    counters are touched only by its own carrier thread, so no locking
    is needed; the per-rank event logs are flattened in rank order for
    reporting.
    """

    def __init__(self, plan: FaultPlan, nprocs: int):
        self.plan = plan
        self.nprocs = nprocs
        # per-rank, per-rule occurrence counter (scope matches seen)
        self._seen = [[0] * len(plan.rules) for _ in range(nprocs)]
        # per-rank, per-rule fire counter (rules actually applied)
        self._fired = [[0] * len(plan.rules) for _ in range(nprocs)]
        self._events: list[list[str]] = [[] for _ in range(nprocs)]
        #: optional ``(rank, text, now)`` callback mirroring every logged
        #: fault into a trace recorder (wired by ``World`` when tracing)
        self.sink = None

    # -- decision core --------------------------------------------------- #

    def _should_fire(self, rule_idx: int, rule: FaultRule,
                     rank: int) -> bool:
        """Advance the (rank, rule) occurrence counter and decide.

        Pure function of (seed, rule index, rank, occurrence index):
        no wall clock, no shared RNG stream, no interleaving."""
        occurrence = self._seen[rank][rule_idx]
        self._seen[rank][rule_idx] = occurrence + 1
        if rule.step is not None and occurrence + 1 != rule.step:
            return False
        if rule.count is not None \
                and self._fired[rank][rule_idx] >= rule.count:
            return False
        if rule.probability < 1.0 and _hash01(
                self.plan.seed, rule_idx, rank,
                occurrence) >= rule.probability:
            return False
        self._fired[rank][rule_idx] += 1
        return True

    def _log(self, rank: int, text: str, now: float = 0.0) -> None:
        self._events[rank].append(text)
        if self.sink is not None:
            self.sink(rank, text, now)

    # -- hooks ----------------------------------------------------------- #

    def check_crash(self, rank: int, op: str, now: float) -> None:
        """Consulted at every send/recv/sync: kill the rank if a crash
        rule fires here."""
        for idx, rule in enumerate(self.plan.rules):
            if not rule.matches_op(rank, op, now):
                continue
            if self._should_fire(idx, rule, rank):
                n = self._seen[rank][idx]
                self._log(rank, f"crash rank={rank} op={op} "
                                f"occurrence={n}", now)
                raise RankCrashedError(
                    f"fault plan: rank {rank} crashed at {op} "
                    f"(occurrence {n}, virtual t={now:.9g})")

    def on_message(self, src: int, dest: int, tag: int, nbytes: int,
                   now: float, payload: Any) -> MessageFate:
        """Consulted once per posted message, on the sender.  Applies
        every firing message rule in plan order (``drop`` wins and stops
        further processing) and stamps the integrity checksum."""
        fate = MessageFate(payload=payload,
                           checksum=payload_checksum(payload))
        where = f"rank {src}->rank {dest} tag={tag}"
        for idx, rule in enumerate(self.plan.rules):
            if not rule.matches_message(src, dest, tag, now):
                continue
            if not self._should_fire(idx, rule, src):
                continue
            if rule.kind == "drop":
                fate.deliver = False
                self._log(src, f"drop {where} ({nbytes} B)", now)
                return fate
            if rule.kind == "delay":
                fate.extra_delay += rule.delay
                self._log(src, f"delay {where} by={rule.delay:g}", now)
            elif rule.kind == "duplicate":
                fate.copies += 1
                self._log(src, f"duplicate {where}", now)
            elif rule.kind == "corrupt":
                corrupted, ok = corrupt_payload(
                    fate.payload, _hash_int(self.plan.seed, idx, src,
                                            self._seen[src][idx]))
                if ok:
                    fate.payload = corrupted
                    fate.corrupted = True
                    self._log(src, f"corrupt {where}", now)
                else:
                    self._log(src, f"corrupt {where} skipped "
                                   f"(uncorruptible payload)", now)
        return fate

    @property
    def events(self) -> list[str]:
        """All injected-fault events, flattened in rank order (each
        rank's list is in its own deterministic program order)."""
        out: list[str] = []
        for rank_events in self._events:
            out.extend(rank_events)
        return out
