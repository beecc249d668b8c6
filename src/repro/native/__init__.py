"""Native kernel tier: JIT-compiled fused elementwise chains.

The emitter serializes each elementwise statement's op tree alongside
the numpy lambda; :class:`NativeEngine` compiles that tree into a single
C loop (via cffi ABI-mode dlopen), caches the shared object by content
hash in-process and on disk, and executes it instead of the lambda —
same bits, no intermediate temporaries, no per-op dispatch.

This tier changes *host* wall-clock only.  The virtual clock, message
counts, and byte counts the paper's figures are built on are charged
identically whether a chain runs natively or through numpy; the golden
trace suite pins that.

Modes (the ``native`` run knob — docs/CONFIGURATION.md):

``auto``     (default) use the tier when cffi + a C compiler exist,
             silently fall back otherwise — and per-kernel on
             unsupported ops, compile failures, or bit mismatches.
``off``      never touch the tier.
``require``  raise :class:`NativeUnavailableError` if the toolchain is
             missing (CI uses this to prove the tier actually engaged).

Deployment settings, read when the process-wide engine is built:
``REPRO_NATIVE_CC`` (compiler override, authoritative) and
``REPRO_KERNEL_CACHE`` (cache directory, default
``~/.cache/repro-kernels``).
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from ..errors import OtterError
from .cache import ENV_CACHE_DIR, KernelCache, KernelCompileError
from .codegen import ABI_VERSION, UnsupportedSpecError, generate_source, \
    spec_key
from .engine import ENV_CC, NativeEngine, NativeStats, find_compiler


class NativeUnavailableError(OtterError):
    """``--native=require`` but the tier cannot run here."""


_registry_lock = threading.Lock()
_engines: dict[tuple, NativeEngine] = {}


def get_engine() -> NativeEngine:
    """The process-wide engine for the current toolchain environment.

    Keyed by (compiler override, cache dir) so tests that monkeypatch
    ``REPRO_NATIVE_CC`` or ``REPRO_KERNEL_CACHE`` get a fresh engine
    while normal runs share one — kernels, probes, and stats accumulate
    across every program executed in the process.
    """
    key = (os.environ.get(ENV_CC), os.environ.get(ENV_CACHE_DIR))
    with _registry_lock:
        engine = _engines.get(key)
        if engine is None:
            engine = NativeEngine()
            _engines[key] = engine
        return engine


def reset_engines() -> None:
    """Drop all cached engines (tests only — kernels stay on disk)."""
    with _registry_lock:
        _engines.clear()


def resolve_native(mode: str) -> Optional[NativeEngine]:
    """The engine a resolved ``native`` mode selects (``None`` = numpy
    only): ``off`` never touches the tier, ``auto`` uses it when it can
    run here, ``require`` raises when it cannot."""
    if mode == "off":
        return None
    engine = get_engine()
    if not engine.available:
        if mode == "require":
            raise NativeUnavailableError(
                f"native kernels required but unavailable: "
                f"{engine.unavailable_reason}")
        return None
    return engine


__all__ = [
    "ABI_VERSION",
    "ENV_CACHE_DIR",
    "ENV_CC",
    "KernelCache",
    "KernelCompileError",
    "NativeEngine",
    "NativeStats",
    "NativeUnavailableError",
    "UnsupportedSpecError",
    "find_compiler",
    "generate_source",
    "get_engine",
    "reset_engines",
    "resolve_native",
    "spec_key",
]
