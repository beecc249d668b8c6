"""On-disk content-addressed kernel cache.

Layout: ``k_<hash>.c`` / ``k_<hash>.so`` / ``k_<hash>.sha256`` per
kernel under the cache root (``$REPRO_KERNEL_CACHE`` or
``~/.cache/repro-kernels``).  The hash covers op tree + slot signature +
codegen ABI version + the build (:func:`build_identity`: the flag tuple,
``-march`` included, and the compiler), so a cache directory can be
shared freely across runs, processes, containers, repo checkouts,
toolchains and CPUs — a warm cache compiles nothing, and never loads a
kernel built another way.

Each builder compiles in a private scratch directory and publishes the
finished bytes with :func:`~repro.atomicio.atomic_write_bytes`, so
racing builders never write into one file.  The ``.sha256`` sidecar
records the digest of the ``.so`` it was published with; ``lookup``
verifies it before the engine may ``dlopen`` the file, so a torn,
truncated or mismatched entry is a miss (rebuilt and republished over),
never executed garbage or a permanent fallback.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

from ..atomicio import atomic_write_bytes

ENV_CACHE_DIR = "REPRO_KERNEL_CACHE"

#: the baseline flags of every kernel.  Strict IEEE semantics: no
#: fast-math value rewrites, and ``-ffp-contract=off`` so the compiler
#: cannot fuse ``a*b + c`` into an FMA — either would break bit-identity
#: with the numpy path.  ``-fno-math-errno`` never changes a computed
#: value, it only skips the errno bookkeeping, which is what lets
#: ``sqrt`` inline to a bare ``sqrtsd``.  ``-ftree-vectorize`` with the
#: *dynamic* cost model (``-O2`` alone uses gcc 12's "very cheap" one,
#: which vectorized none of the benchmark programs' kernels) turns the
#: loop into SIMD lanes: each lane is the same IEEE operation as the
#: scalar code, and without contraction or reassociation the bits
#: cannot change (docs/NATIVE.md, "What the loops compile to").
#: ``-fno-trapping-math`` says a floating-point operation raises no trap
#: (none is ever enabled here), so gcc may compute a ``?:`` select's
#: both arms in lanes — without it the multi-output loop of a group
#: stays scalar ("control flow in loop"); the IEEE results are the same.
#: No ``-march``: these alone are SSE2 lanes, which every x86-64 runs.
BUILD_FLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math",
               "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math",
               "-ftree-vectorize", "-fvect-cost-model=dynamic")

#: appended to :data:`BUILD_FLAGS` when the engine's CPU probe says the
#: host runs x86-64-v3 (AVX2): 32-byte lanes of the same IEEE operations.
#: v3 has FMA too, which ``-ffp-contract=off`` keeps out of the code.
#: Not v4: AVX-512 was measured and not taken (docs/NATIVE.md §2).
ISA_FLAGS = ("-march=x86-64-v3",)


class KernelCompileError(Exception):
    """The host compiler rejected a generated kernel."""


def compiler_version(cc: str) -> str:
    """What ``cc --version`` says (a wrapper script or an upgrade in
    place changes it), or why it could not be asked."""
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True, timeout=30)
        return f"{proc.returncode}:{proc.stdout}"
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unrunnable: {exc}"


def build_identity(cc: str, flags: tuple[str, ...] = BUILD_FLAGS,
                   version: str | None = None) -> str:
    """What a kernel's bytes depend on besides its source: the exact
    flag tuple and the compiler — its resolved path and its
    :func:`compiler_version` (``version``, when the caller has asked
    already).  Part of every kernel key, so a cache shared between
    toolchains never ``dlopen``s a binary built another way."""
    if version is None:
        version = compiler_version(cc)
    text = "\0".join((os.path.realpath(cc), version, *flags))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-kernels"


class KernelCache:
    """Filesystem store for compiled kernels, keyed by content hash."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def so_path(self, key: str) -> Path:
        return self.root / f"k_{key}.so"

    def source_path(self, key: str) -> Path:
        return self.root / f"k_{key}.c"

    def digest_path(self, key: str) -> Path:
        return self.root / f"k_{key}.sha256"

    def lookup(self, key: str) -> Path | None:
        """The shared object for ``key``, if it is on disk *and* its
        bytes are the ones its digest was recorded for."""
        path = self.so_path(key)
        try:
            recorded = self.digest_path(key).read_text().strip()
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            return None
        return path if actual == recorded else None

    def build(self, key: str, source: str, cc: str,
              flags: tuple[str, ...]) -> Path:
        """Compile ``source`` with ``flags`` and publish it under ``key``
        atomically (the key must cover the flags: :func:`build_identity`)."""
        self.root.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.root,
                                         prefix=f"k_{key}.") as scratch:
            src = Path(scratch) / f"k_{key}.c"
            out = Path(scratch) / f"k_{key}.so"
            src.write_text(source)
            cmd = [cc, *flags, str(src), "-o", str(out), "-lm"]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=60)
            except (OSError, subprocess.SubprocessError) as exc:
                raise KernelCompileError(f"{cc}: {exc}") from exc
            if proc.returncode != 0:
                raise KernelCompileError(
                    f"{cc} exited {proc.returncode}: {proc.stderr.strip()}")
            binary = out.read_bytes()
        final = self.so_path(key)
        atomic_write_bytes(str(self.source_path(key)), source.encode())
        atomic_write_bytes(str(final), binary)
        atomic_write_bytes(str(self.digest_path(key)),
                           hashlib.sha256(binary).hexdigest().encode())
        return final
