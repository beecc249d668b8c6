"""Content-addressed compile cache: the compile-once half of the service.

A :class:`CompileCache` keys compiled programs by sha256 of exactly what
the compiler reads — nothing about how the program will be *run*, since
one compiled SPMD program serves every processor count, machine,
backend and kernel mode:

* the **canonical source** — the parsed script unparsed back to a
  normal form, so whitespace/comment-only edits hash identically;
* the script **name**;
* the **provider fingerprint** — in-memory M-file mappings hash their
  sources, directory providers hash their search paths (plus a per-use
  dependency validator, below);
* the plan's **compile-side projection**
  (:meth:`repro.tuning.Plan.compile_key`; ``None`` keys as the default
  plan);
* ``PAYLOAD_VERSION``.

The one key names the entry in both tiers:

``memory``
    An in-process LRU (``max_entries``) with optional idle TTL driven by
    an injectable ``clock`` — tests evict deterministically with a fake
    clock.  Concurrent requests for the same key are single-flighted:
    exactly one thread compiles, the rest wait and receive the cached
    program (the concurrency stress test pins ``compiles`` == unique
    keys).

``disk``
    Opt-in: one ``p_<key>.json`` per program under the cache root
    (``$REPRO_COMPILE_CACHE=<dir>``; unset keeps it off), published
    atomically so racing processes both succeed.  A disk hit rehydrates
    a runnable :class:`~repro.compiler.CompiledProgram` from the emitted
    Python without running any compiler pass.  The tier fails closed: a
    payload whose sha256 digest, ``key`` or ``version`` does not check
    out is a miss that recompiles and republishes (its text is never
    executed), and M-file dependencies are validated against the
    current provider (stale deps force a recompile).

A new source is parsed **once**: the script parsed to canonicalise the
key is the one handed to the compiler.  Cache *hits* report
``passes == []`` — the acceptance criterion that a warm ``run`` performs
zero compiler passes is asserted straight off the :class:`CacheOutcome`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..atomicio import atomic_write_bytes
from ..compiler import CompiledProgram, OtterCompiler, parse_timed
from ..frontend.mfile import (
    ChainProvider,
    DictProvider,
    DirectoryProvider,
    EMPTY_PROVIDER,
)
from ..frontend.unparse import unparse_function, unparse_script

ENV_COMPILE_CACHE = "REPRO_COMPILE_CACHE"

#: bump when the cached-payload layout or the emitted-code ABI changes —
#: stale major versions on disk are simply never looked up
PAYLOAD_VERSION = 9

_OFF_VALUES = ("0", "off", "none", "disabled")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_from_dict(payload: Optional[dict]):
    """Rebuild a :class:`repro.tuning.Plan` from its ``as_dict`` form
    (the plan itself turns JSON's lists back into tuples).  The payload
    may come off the wire: anything but a mapping of plan fields to
    legal values raises ``TypeError`` or ``ValueError``."""
    if payload is None:
        return None
    from ..tuning.plan import Plan

    return Plan(**payload)


def _parse_canonical(source: str, name: str) -> tuple[str, Optional[tuple]]:
    """``(canonical text, parse_timed result)`` of a script; a source
    that does not parse is its own canonical text with no script (the
    compile will raise the real diagnostic, and failures are never
    cached)."""
    try:
        parsed = parse_timed(source, name)
        return unparse_script(parsed[0]), parsed
    except Exception:
        return source, None


def canonical_source(source: str) -> str:
    """Whitespace/comment-insensitive normal form of a MATLAB script:
    parsed and unparsed, so two sources differing only in layout or
    comments canonicalize identically."""
    return _parse_canonical(source, "canon")[0]


def _payload_digest(payload: dict) -> str:
    """sha256 over the canonical JSON of every field but ``digest``."""
    body = {k: v for k, v in payload.items() if k != "digest"}
    return _sha(json.dumps(body, sort_keys=True))


def provider_fingerprint(provider) -> tuple[str, bool]:
    """``(key_component, disk_ok)`` for an M-file provider.

    Content-addressable providers (in-memory mappings, directory search
    paths) may publish to the shared disk tier; opaque providers key by
    object identity and stay process-local.
    """
    if provider is None or provider is EMPTY_PROVIDER:
        return "builtin", True
    if isinstance(provider, DictProvider):
        blob = json.dumps(sorted((name, src)
                                 for name, src in provider.sources.items()))
        return f"dict:{_sha(blob)}", True
    if isinstance(provider, DirectoryProvider):
        return f"dirs:{json.dumps(list(provider.paths))}", True
    if isinstance(provider, ChainProvider):
        parts, ok = [], True
        for child in provider.providers:
            fp, child_ok = provider_fingerprint(child)
            parts.append(fp)
            ok = ok and child_ok
        return "chain:[" + ",".join(parts) + "]", ok
    return f"object:{id(provider)}", False


def _function_hash(provider, name: str) -> Optional[str]:
    """Canonical content hash of one provider-resolved M-file function."""
    try:
        funcs = provider.lookup(name) if provider is not None else None
    except Exception:
        return None
    if not funcs:
        return None
    return _sha("\n".join(unparse_function(f) for f in funcs))


def resolve_disk_root() -> Optional[Path]:
    """The on-disk tier is *opt-in*: ``$REPRO_COMPILE_CACHE=<dir>``
    enables it there; unset (or ``0``/``off``) keeps the cache
    in-process only, so default runs never write outside the repo."""
    env = os.environ.get(ENV_COMPILE_CACHE)
    if not env or env.strip().lower() in _OFF_VALUES:
        return None
    return Path(env).expanduser()


@dataclass
class CacheOutcome:
    """What one :meth:`CompileCache.get_or_compile` request did."""

    program: CompiledProgram
    key: str
    hit: bool                      # the request key was already cached
    tier: Optional[str]            # "memory" | "disk" | None (fresh miss)
    #: compiler passes executed *for this request* — ``[]`` on any hit
    passes: list[tuple[str, float]] = field(default_factory=list)

    @property
    def compile_seconds(self) -> float:
        return sum(seconds for _name, seconds in self.passes)

    def describe(self) -> str:
        if self.hit:
            return f"hit ({self.tier} tier) key={self.key[:12]}"
        return (f"miss (compiled in {self.compile_seconds * 1e3:.1f} ms) "
                f"key={self.key[:12]}")


@dataclass
class _Entry:
    program: CompiledProgram
    stamp: float                   # last-access clock() reading
    tier: str                      # tier that satisfied the insert


class CompileCache:
    """Two-tier content-addressed compile cache (thread-safe)."""

    def __init__(self, max_entries: int = 256,
                 disk_root: Any = None,
                 ttl: Optional[float] = None,
                 clock=time.monotonic):
        """``disk_root``: a path enables the disk tier there; ``None``
        resolves ``$REPRO_COMPILE_CACHE`` (a path, or unset/``0``/``off``
        to keep the cache in-process only); ``False``
        disables the tier outright.  ``ttl`` evicts memory entries idle
        for longer than that many ``clock()`` units (``None``: never);
        the clock is injectable so tests drive eviction deterministically.
        """
        self.max_entries = max(1, int(max_entries))
        if disk_root is False:
            self.disk_root: Optional[Path] = None
        elif disk_root is None:
            self.disk_root = resolve_disk_root()
        else:
            self.disk_root = Path(disk_root).expanduser()
        self.ttl = ttl
        self.clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._inflight: dict[str, threading.Event] = {}
        # raw-source sha -> canonical text: keeps the hit path parse-free
        self._canon_memo: dict[str, str] = {}
        self._stats = {"hits": 0, "misses": 0, "disk_hits": 0,
                       "disk_rejects": 0, "compiles": 0,
                       "evictions_lru": 0, "evictions_ttl": 0}

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #

    def _canonical(self, source: str,
                   name: str = "canon") -> tuple[str, Optional[tuple]]:
        """Canonical text of ``source``, plus the ``(Script, seconds)``
        this call parsed to get it (``None`` on a memo hit)."""
        raw_sha = _sha(source)
        canon = self._canon_memo.get(raw_sha)
        if canon is not None:
            return canon, None
        canon, parsed = _parse_canonical(source, name)
        if len(self._canon_memo) >= 4 * self.max_entries:
            self._canon_memo.clear()
        self._canon_memo[raw_sha] = canon
        return canon, parsed

    def key(self, source: str, *, name: str = "script", provider=None,
            plan=None) -> str:
        """The artifact key: sha256 over everything the compiler reads."""
        compile_plan = None if plan is None else plan.compile_side()
        return _sha(json.dumps([
            PAYLOAD_VERSION,
            self._canonical(source)[0],
            name,
            provider_fingerprint(provider)[0],
            None if compile_plan is None else compile_plan.compile_key(),
        ]))

    # ------------------------------------------------------------------ #
    # the front door
    # ------------------------------------------------------------------ #

    def get_or_compile(self, source: str, *, name: str = "script",
                       provider=None, plan=None) -> CacheOutcome:
        """Return the compiled program for this request, compiling at
        most once per key across all concurrent callers.  The program
        carries only the plan's compile-side fields: pass the request
        plan to :meth:`~repro.compiler.CompiledProgram.run`."""
        # parse first, so a new source's one parse is the compiler's
        # pass 1; key() then finds the canonical text memoised
        _canon, parsed = self._canonical(source, name)
        key = self.key(source, name=name, provider=provider, plan=plan)
        while True:
            with self._lock:
                self._purge_expired_locked()
                entry = self._entries.get(key)
                if entry is not None:
                    entry.stamp = self.clock()
                    self._entries.move_to_end(key)
                    self._stats["hits"] += 1
                    return CacheOutcome(program=entry.program, key=key,
                                        hit=True, tier=entry.tier)
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    break
            waiter.wait()
        try:
            outcome = self._build(key, source, parsed, name=name,
                                  provider=provider, plan=plan)
        finally:
            with self._lock:
                event = self._inflight.pop(key, None)
            if event is not None:
                event.set()
        return outcome

    def _build(self, key: str, source: str, parsed: Optional[tuple], *,
               name: str, provider, plan) -> CacheOutcome:
        disk_ok = provider_fingerprint(provider)[1]
        program = self._disk_lookup(key, provider) if disk_ok else None
        if program is not None:
            with self._lock:
                self._stats["hits"] += 1
                self._stats["disk_hits"] += 1
                self._insert_locked(key, program, tier="disk")
            return CacheOutcome(program=program, key=key, hit=True,
                                tier="disk")

        compile_plan = None if plan is None else plan.compile_side()
        program = OtterCompiler(provider, plan=compile_plan).compile(
            source, name, parsed)
        with self._lock:
            self._stats["misses"] += 1
            self._stats["compiles"] += 1
            self._insert_locked(key, program, tier="memory")
        if disk_ok:
            self._disk_publish(key, program, provider)
        return CacheOutcome(program=program, key=key, hit=False, tier=None,
                            passes=list(program.pass_timings))

    # ------------------------------------------------------------------ #
    # memory tier bookkeeping (call with the lock held)
    # ------------------------------------------------------------------ #

    def _insert_locked(self, key: str, program: CompiledProgram,
                       tier: str) -> None:
        self._entries[key] = _Entry(program=program, stamp=self.clock(),
                                    tier=tier)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._stats["evictions_lru"] += 1

    def _purge_expired_locked(self) -> None:
        if self.ttl is None:
            return
        now = self.clock()
        stale = [k for k, e in self._entries.items()
                 if now - e.stamp > self.ttl]
        for k in stale:
            del self._entries[k]
            self._stats["evictions_ttl"] += 1

    # ------------------------------------------------------------------ #
    # disk tier
    # ------------------------------------------------------------------ #

    def _disk_path(self, key: str) -> Optional[Path]:
        return None if self.disk_root is None \
            else self.disk_root / f"p_{key}.json"

    def _disk_lookup(self, key: str, provider) -> Optional[CompiledProgram]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            # fail closed: nothing below trusts a field (least of all
            # ``python_source``, which gets exec'd) until the digest,
            # the key and the version all check out
            if (not isinstance(payload, dict)
                    or payload.get("digest") != _payload_digest(payload)
                    or payload.get("key") != key
                    or payload.get("version") != PAYLOAD_VERSION):
                raise ValueError("payload does not verify")
            for fname, expected in payload["deps"].items():
                if _function_hash(provider, fname) != expected:
                    return None       # provider content drifted: stale
            return self._rehydrate(payload, provider)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            with self._lock:
                self._stats["disk_rejects"] += 1
            return None

    def _rehydrate(self, payload: dict, provider) -> CompiledProgram:
        from ..ir.licm import LicmStats
        from ..ir.peephole import PeepholeStats

        plan = plan_from_dict(payload.get("plan"))
        return CompiledProgram(
            name=payload["name"],
            resolved=None,
            types=None,
            ir=None,
            python_source=payload["python_source"],
            peephole_stats=PeepholeStats(**payload["peephole"]),
            licm_stats=LicmStats(**payload["licm"]),
            provider=provider if provider is not None else EMPTY_PROVIDER,
            pass_timings=[],
            plan=plan,
            source=payload["source"],
        )

    def _disk_publish(self, key: str, program: CompiledProgram,
                      provider) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        deps: dict[str, str] = {}
        if program.resolved is not None and provider is not None:
            for fname in program.resolved.functions:
                digest = _function_hash(provider, fname)
                if digest is None:
                    return            # unhashable dep: skip publication
                deps[fname] = digest
        payload = {
            "version": PAYLOAD_VERSION,
            "key": key,
            "name": program.name,
            "source": program.source,
            "python_source": program.python_source,
            "peephole": dataclasses.asdict(program.peephole_stats),
            "licm": dataclasses.asdict(program.licm_stats),
            "plan": None if program.plan is None else program.plan.as_dict(),
            "deps": deps,
            "created": time.time(),
        }
        payload["digest"] = _payload_digest(payload)
        try:
            atomic_write_bytes(str(path), json.dumps(payload).encode("utf-8"))
        except OSError:
            pass                      # disk tier is best-effort

    # ------------------------------------------------------------------ #
    # introspection / maintenance
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        with self._lock:
            return dict(self._stats, size=len(self._entries),
                        maxsize=self.max_entries,
                        disk_root=str(self.disk_root)
                        if self.disk_root else None)

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def purge(self) -> None:
        """Force a TTL sweep of the memory tier."""
        with self._lock:
            self._purge_expired_locked()

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self._canon_memo.clear()
            for stat in self._stats:
                self._stats[stat] = 0
        if disk and self.disk_root is not None and self.disk_root.exists():
            for path in self.disk_root.glob("p_*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass


# -------------------------------------------------------------------------- #
# the process-wide cache every layer (CLI, REPL, autotuner, server)
# shares by default
# -------------------------------------------------------------------------- #

_default_cache: Optional[CompileCache] = None
_default_lock = threading.Lock()


def get_compile_cache() -> CompileCache:
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = CompileCache()
        return _default_cache


def set_compile_cache(cache: Optional[CompileCache]) -> Optional[CompileCache]:
    """Swap the process-wide cache (tests inject tmp-dir/fake-clock
    instances); returns the previous one."""
    global _default_cache
    with _default_lock:
        previous, _default_cache = _default_cache, cache
        return previous
