"""The native kernel engine: compile, cache, verify, execute, fall back.

``NativeEngine.run(spec, args, reference)`` is the entry point
``RuntimeContext.ew`` calls, and ``run_group`` the one
``RuntimeContext.ew_group`` calls for a group of statements (one
kernel, an output per member).  Each either returns the computed
float64 arrays — bitwise identical to what the numpy lambdas would
produce — or ``None``, in which case the caller runs the numpy path.
Every reason for returning ``None`` is counted in :class:`NativeStats`
so the pass report and CI can show exactly where the tier engaged.

Kernels are built for the CPU the engine runs on: the baseline
``BUILD_FLAGS``, plus ``ISA_FLAGS`` (x86-64-v3: AVX2 lanes) when a CPU
probe, asked once per engine, says the host runs them.  ``flags`` and
``isa`` say which; the choice is part of every kernel key
(docs/NATIVE.md §2, §4).

Correctness layers (all per-kernel, all automatic):

1. *Signature gate*: only float64 C-contiguous arrays of one shape plus
   real scalars are admitted; anything else (complex, ints, views) is a
   numpy call.
2. *Op admission*: PROBED ops run a one-time in-process differential
   probe against the numpy reference (see ``repro.ewops``) before any
   kernel using them compiles.
3. *Semantic guards*: kernels return 1 after inputs whose MATLAB
   semantics need complex promotion; the call falls back.
4. *First-call verification*: each kernel's first result is compared
   bitwise against the reference lambda; any mismatch blacklists the
   kernel permanently.

The engine is shared across ranks, backends and the compile server's
sessions, which may call it concurrently, so compilation, cache
mutation, and probing hold a lock (kernel *execution* does not — the
C loop only touches its own buffers).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import sysconfig
import threading
from typing import Optional

import numpy as np

from ..ewops import OPS, PROBED, TAP, reference, rotated, single_op_spec
from .cache import (BUILD_FLAGS, ISA_FLAGS, KernelCache, KernelCompileError,
                    build_identity, compiler_version)
from .codegen import (UnsupportedSpecError, cdef_signature, generate_source,
                      members, spec_key, tap_count)

ENV_CC = "REPRO_NATIVE_CC"

#: stat counters, in report order
STAT_FIELDS = (
    "native_calls",       # calls served by a compiled kernel
    "kernels",            # distinct kernels loaded this process
    "compiles",           # kernels built by the C compiler
    "disk_hits",          # kernels dlopen'ed straight from the disk cache
    "disk_rejects",       # cached .so failed its digest check (rebuilt)
    "mem_hits",           # calls that found their kernel in-process
    "guard_fallbacks",    # calls aborted by a semantic guard (rc != 0)
    "verify_rejects",     # kernels blacklisted by first-call verification
    "unsupported_specs",  # specs outside the compilable subset
    "probe_rejects",      # specs refused because a PROBED op failed
    "signature_fallbacks",  # calls with non-float64/complex/strided args
    "compile_failures",   # cc rejected a kernel or the cache could not
                          # publish it (spec blacklisted)
)


class NativeStats:
    """Thread-safe counters for the tier's pass-report section.

    The warm-call hot path takes no lock: a call served by a resident
    kernel — one ``mem_hits`` and one ``native_calls`` — is one
    ``next(stats.warm)``, a single atomic C call.  :meth:`snapshot`
    reads that counter by drawing from it as well and subtracts its own
    draws.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(STAT_FIELDS, 0)
        self.warm = itertools.count()
        self._warm_reads = 0

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            self._counts[field] += by

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            warm = next(self.warm) - self._warm_reads
            self._warm_reads += 1
            counts = dict(self._counts)
        counts["mem_hits"] += warm
        counts["native_calls"] += warm
        return counts


class _Kernel:
    __slots__ = ("cfun", "lib", "nslots", "sig", "verified", "blacklisted")

    def __init__(self, cfun, lib, sig: str):
        self.cfun = cfun
        self.lib = lib  # keep the dlopen handle alive
        self.sig = sig
        self.nslots = len(sig)
        self.verified = 0
        self.blacklisted = False


#: the toolchain probe's kernel
_TRIAL = ("+", "@0", 1.0)

#: the CPU probe: built with the baseline flags, so every x86-64 runs
#: it, and 1 when this one also runs x86-64-v3 code (gcc 12 is the first
#: to know the psABI level names; every other compiler answers 0)
_ISA_PROBE = """int repro_isa_v3(void)
{
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \\
    && __GNUC__ >= 12
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v3") != 0;
#else
    return 0;
#endif
}
"""

#: sentinel: spec permanently numpy-only for this process
_UNSUPPORTED = object()

_FLOAT64 = np.dtype(np.float64)


def _as_double(a) -> Optional[float]:
    """The C ``double`` a replicated operand is passed as — size-1
    float64 arrays, bools, real Python and numpy numbers — or ``None``
    for what the tier does not take (complex, other dtypes, ...)."""
    if isinstance(a, np.ndarray):
        if a.size != 1 or a.dtype != _FLOAT64:
            return None
        return float(a.reshape(-1)[0])
    # bool before int: bool is an int subclass
    if isinstance(a, (bool, np.bool_)):
        return 1.0 if a else 0.0
    if isinstance(a, (float, int, np.floating, np.integer)):
        return float(a)
    return None


def _resolve_cc(cand: str) -> Optional[str]:
    if os.path.sep in cand:
        if os.path.isfile(cand) and os.access(cand, os.X_OK):
            return cand
        return None
    return shutil.which(cand)


def find_compiler(cc: Optional[str] = None) -> Optional[str]:
    """Resolve the host C compiler.

    An explicit argument or ``$REPRO_NATIVE_CC`` is *authoritative*: if
    it does not resolve, the tier is unavailable — a deliberately
    poisoned compiler (tests, the CI no-compiler leg) must not fall back
    to the system toolchain.  Otherwise try ``$CC``, the python build's
    configured compiler, then ``cc``/``gcc``/``clang`` on PATH.
    Returns ``None`` when nothing usable exists — the tier then reports
    itself unavailable and every chain runs through numpy.
    """
    explicit = cc or os.environ.get(ENV_CC)
    if explicit:
        return _resolve_cc(explicit)
    candidates = [os.environ.get("CC")]
    sys_cc = (sysconfig.get_config_var("CC") or "").split()
    if sys_cc:
        candidates.append(sys_cc[0])
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        if not cand:
            continue
        found = _resolve_cc(cand)
        if found:
            return found
    return None


# --------------------------------------------------------------------- #
# probe sample sets
# --------------------------------------------------------------------- #

_SPECIALS = np.array([
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, np.pi, -np.pi,
    np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324,
    0.1, 1.0 / 3.0, 1e-16, 7.25, 1023.5,
])


def probe_samples(domain: str):
    """Deterministic sample arrays for a probe domain.

    Returns a list of operand arrays (one per kernel slot).  Samples are
    fixed-seed so admission decisions are reproducible run to run.
    """
    rng = np.random.default_rng(0xC0FFEE)
    base = np.concatenate([
        rng.uniform(-1e3, 1e3, 1024),
        rng.uniform(-2.0, 2.0, 1024),
        np.exp(rng.uniform(-200.0, 200.0, 1024)) * rng.choice(
            [-1.0, 1.0], 1024),
        _SPECIALS,
    ])
    if domain == "positive":
        return [np.abs(base)]
    if domain == "pairs":
        other = np.concatenate([base[1:], base[:1]])
        return [base, other]
    if domain == "pow_pairs":
        # stay off the complex-promotion guard: integral exponents for
        # arbitrary bases, arbitrary exponents for non-negative bases
        with np.errstate(all="ignore"):
            exps = np.floor(np.concatenate([base[1:], base[:1]]) % 7.0) - 3.0
        bases = np.concatenate([base, np.abs(base)])
        exps = np.concatenate([exps, np.concatenate([base[1:], base[:1]])])
        return [bases, exps]
    return [base]


def group_reference(gspec, args, shifts=()) -> list[np.ndarray]:
    """What the members of a group spec compute through numpy, one after
    the other, as each member's ``rt.ew`` would: its lambda over the
    group's ``args`` and the earlier members' values, the result made
    an array of floats — a halo tap's, its operand :func:`rotated` by
    its pair of ``shifts`` (``ur, uc`` per tap, in member order)."""
    values: list[np.ndarray] = []
    shifts = iter(shifts)
    with np.errstate(divide="ignore", invalid="ignore"):
        for spec, slots in gspec:
            if spec[0] == TAP:
                values.append(rotated(args[slots[0]], next(shifts),
                                      next(shifts)))
                continue
            out = np.asarray(reference(spec)(*[
                values[int(slot[1:])] if slot.__class__ is str
                else args[slot] for slot in slots]))
            if out.dtype.kind not in "fc":
                out = out.astype(float)
            values.append(out)
    return values


class NativeEngine:
    """Process-wide JIT tier for fused elementwise chains."""

    #: the C ``double`` an operand stands for, or ``None``
    as_double = staticmethod(_as_double)

    def __init__(self, cache_dir: Optional[str] = None,
                 cc: Optional[str] = None, verify_calls: int = 1):
        self._lock = threading.RLock()
        self.stats = NativeStats()
        self.cache = KernelCache(cache_dir)
        self.cc = find_compiler(cc)
        self.verify_calls = verify_calls
        #: the flags every kernel is built with: the baseline
        #: :data:`~repro.native.cache.BUILD_FLAGS`, plus ``ISA_FLAGS``
        #: when the CPU runs them (``isa`` names which), and their
        #: :func:`~repro.native.cache.build_identity` with this engine's
        #: compiler, part of every kernel key (all set by the toolchain
        #: probe, once per engine)
        self.flags: Optional[tuple[str, ...]] = None
        self.isa: Optional[str] = None
        self.build: Optional[str] = None
        self._ffi = None
        self._dparr = None  # cached ffi.typeof("double[]")
        self._from_buffer = None  # cffi's C-level from_buffer
        self._kernels: dict[str, object] = {}
        #: per-call-site memo: id(spec) -> (spec, {sig: _Kernel|_UNSUPPORTED}).
        #: The emitter materializes each call site's spec as a code-object
        #: constant, so its identity is stable across calls — warm calls
        #: skip the content hash entirely.  The strong reference in the
        #: entry keeps the id from ever being reused.  Plain dict ops are
        #: GIL-atomic; a race between threads at worst duplicates the
        #: slow-path lookup, which is idempotent.
        self._fast: dict[int, tuple] = {}
        self._op_admission: dict[str, bool] = {}
        self._probing: set[str] = set()
        self._toolchain: Optional[bool] = None
        self.unavailable_reason: Optional[str] = None
        if self.cc is None:
            self.unavailable_reason = "no C compiler found"

    # ---------------------------------------------------------------- #
    # availability
    # ---------------------------------------------------------------- #

    @property
    def available(self) -> bool:
        """True when cffi + a working compiler + a writable cache exist.

        The first query pays a trial compile; the verdict is cached for
        the life of the engine.
        """
        with self._lock:
            if self._toolchain is None:
                self._toolchain = self._probe_toolchain()
            return self._toolchain

    def _probe_toolchain(self) -> bool:
        """Which flags does this engine build with, and can it build and
        publish a kernel with them?  Asked once: the CPU probe and the
        trial kernel are looked up before they are compiled."""
        if self.cc is None:
            return False
        try:
            import cffi  # noqa: F401
        except ImportError:
            self.unavailable_reason = "cffi is not installed"
            return False
        version = compiler_version(self.cc)
        v3 = self._probe_isa(build_identity(self.cc, BUILD_FLAGS,
                                            version)) == 1
        self.flags = BUILD_FLAGS + ISA_FLAGS if v3 else BUILD_FLAGS
        self.isa = "x86-64-v3" if v3 else "baseline"
        self.build = build_identity(self.cc, self.flags, version)
        # the trial is a kernel like any other, keyed by this build: a
        # warm cache compiles nothing, and another compiler or another
        # CPU level misses it
        key = self.key(_TRIAL, "a")
        try:
            if self.cache.lookup(key) is None:
                source, _ = generate_source(_TRIAL, "a", f"k_{key}")
                self.cache.build(key, source, self.cc, self.flags)
        except (KernelCompileError, OSError) as exc:
            self.unavailable_reason = f"toolchain probe failed: {exc}"
            return False
        return True

    def _probe_isa(self, baseline: str) -> int:
        """What the CPU probe returns on this host (1: x86-64-v3).  It is
        built with ``BUILD_FLAGS`` and cached under a key over their
        build identity (``baseline``) and its own text — a warm cache
        compiles nothing, and no kernel's key can answer it.  A probe
        that cannot be built or loaded answers 0."""
        key = hashlib.sha256(f"repro-isa-probe:{baseline}:{_ISA_PROBE}"
                             .encode()).hexdigest()[:20]
        try:
            path = self.cache.lookup(key)
            if path is None:
                path = self.cache.build(key, _ISA_PROBE, self.cc,
                                        BUILD_FLAGS)
            ffi = self._get_ffi()
            ffi.cdef("int repro_isa_v3(void);")
            return ffi.dlopen(str(path)).repro_isa_v3()
        except (KernelCompileError, OSError):   # dlopen's too
            return 0

    def _get_ffi(self):
        if self._ffi is None:
            from cffi import FFI
            self._ffi = FFI()
            self._dparr = self._ffi.typeof("double[]")
            # ``FFI.from_buffer`` is a Python wrapper (a frame and an
            # isinstance per buffer) around this
            self._from_buffer = self._ffi._backend.from_buffer
        return self._ffi

    def key(self, spec, sig: str) -> str:
        """The cache key of ``spec``'s kernel for slot signature ``sig``,
        as this engine builds it (an available engine only)."""
        return spec_key(spec, sig, self.build)

    def loaded_keys(self) -> list[str]:
        """The keys of every kernel this engine has loaded, built or
        from disk (their C text is ``cache.source_path(key)``)."""
        return [key for key, kern in self._kernels.items()
                if kern is not _UNSUPPORTED]

    # ---------------------------------------------------------------- #
    # the hot path
    # ---------------------------------------------------------------- #

    def run(self, spec, args, reference=None,
            spare=None) -> Optional[np.ndarray]:
        """Execute ``spec`` over ``args`` natively, or return ``None``.

        ``args`` is the positional operand list the numpy lambda would
        receive (float64 arrays and scalars).  ``reference`` is that
        lambda, used only for first-call verification.  ``spare`` is
        where the output buffer comes from: the result geometry's
        :class:`~repro.runtime.distribution.FreeList` (the fused run
        time's recycled buffers) or ``None`` for a fresh ``np.empty``.
        A ``None`` return means "use the numpy path" — never an error.

        The signature gate, inline (the hot path pays no frame for it):
        arrays must be float64, C-contiguous, and share one shape;
        complex anywhere means the numpy path (the output dtype would
        differ).  ``ew`` hands over Python floats and whole arrays,
        which pass as they are; whatever else can stand for one C
        ``double`` is demoted to it.
        """
        sig = ""
        shape = None
        call_values = args
        for index, a in enumerate(args):
            kind = a.__class__
            if kind is float:
                sig += "s"
            elif kind is np.ndarray and a.size != 1:
                if (a.dtype != _FLOAT64 or not a.flags.c_contiguous
                        or (shape is not None and a.shape != shape)):
                    shape = None
                    break
                shape = a.shape
                sig += "a"
            else:
                demoted = _as_double(a)
                if demoted is None:
                    shape = None
                    break
                if call_values is args:
                    call_values = list(args)
                call_values[index] = demoted
                sig += "s"
        if shape is None or spec.__class__ is not tuple:
            # refused, or a pure-scalar chain (never reaches the tier)
            self.stats.bump("signature_fallbacks")
            return None
        ent = self._fast.get(id(spec))
        kern = ent[1].get(sig) if ent is not None and ent[0] is spec \
            else None
        if kern is None:
            kern = self._remember(spec, sig)
            if kern is None:
                return None
            warm = False
        elif kern is _UNSUPPORTED or kern.blacklisted:
            return None
        else:
            warm = True
        out = np.empty(shape, dtype=np.float64) if spare is None \
            else spare.take(shape)
        dparr = self._dparr
        from_buffer = self._from_buffer
        cargs = [
            from_buffer(dparr, v, False) if v.__class__ is np.ndarray else v
            for v in call_values
        ]
        rc = kern.cfun(out.size, from_buffer(dparr, out, False), *cargs)
        if rc != 0:
            self.stats.bump("guard_fallbacks")
            return None
        if kern.verified < self.verify_calls:
            if reference is None:
                return None
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = np.asarray(reference(*args))
            if (ref.dtype != np.float64 or ref.shape != out.shape
                    or ref.tobytes() != out.tobytes()):
                kern.blacklisted = True
                self.stats.bump("verify_rejects")
                return None
            kern.verified += 1
        if warm:
            next(self.stats.warm)
        else:
            self.stats.bump("native_calls")
        return out

    def run_group(self, gspec, sig: str, args, values, shape, bufs,
                  spare, outs=None, shifts=()) -> Optional[list]:
        """Execute a group kernel (:mod:`~repro.native.codegen`'s group
        spec) in one call, or return ``None``: the members' outputs, in
        member order, each bitwise what the member's ``rt.ew`` would
        compute.

        The caller has gated the operands: ``sig`` is their signature,
        ``args`` what ``rt.ew`` would hand the members' lambdas (the
        first-call reference) and ``values`` the same as C takes them
        (float64 arrays of ``shape``, Python floats).  ``bufs`` has one
        entry per member: an array the member's output may be written
        into, or ``None`` for a buffer from ``spare`` — taken only once
        the kernel is known, so a refused group holds nothing.
        ``outs`` (``None``: all) are the members that get an array —
        the kernel's variant; the others' entries are ``None``.
        ``shifts`` are the halo taps' rotations, ``ur, uc`` per tap.
        On ``None`` the caller runs each member as it would without the
        group; the arrays of ``bufs`` may hold garbage then.
        """
        memo = sig if outs is None else (sig, outs)
        ent = self._fast.get(id(gspec))
        kern = ent[1].get(memo) if ent is not None and ent[0] is gspec \
            else None
        if kern is None:
            kern = self._remember(gspec, sig, outs)
            if kern is None:
                return None
            warm = False
        elif kern is _UNSUPPORTED or kern.blacklisted:
            return None
        else:
            warm = True
        dparr = self._dparr
        from_buffer = self._from_buffer
        if outs is None:
            outs = range(len(bufs))
        res = [None] * len(bufs)
        for k in outs:
            buf = bufs[k]
            res[k] = spare.take(shape) if buf is None else buf
        cargs = [from_buffer(dparr, res[k], False) for k in outs]
        cargs += [
            from_buffer(dparr, v, False) if v.__class__ is np.ndarray else v
            for v in values
        ]
        rc = kern.cfun(*shape, *cargs, *shifts) if shifts \
            else kern.cfun(shape[0] * shape[1], *cargs)
        if rc != 0:
            self.stats.bump("guard_fallbacks")
            return None
        if kern.verified < self.verify_calls:
            refs = group_reference(gspec, args, shifts)
            if any(out is not None and (
                    ref.dtype != np.float64 or ref.shape != out.shape
                    or ref.tobytes() != out.tobytes())
                   for ref, out in zip(refs, res)):
                kern.blacklisted = True
                self.stats.bump("verify_rejects")
                return None
            kern.verified += 1
        if warm:
            next(self.stats.warm)
        else:
            self.stats.bump("native_calls")
        return res

    # ---------------------------------------------------------------- #
    # kernel construction
    # ---------------------------------------------------------------- #

    def _remember(self, spec, sig: str, outs=None) -> Optional[_Kernel]:
        """The kernel of a call site's ``spec`` for ``sig`` (and a
        group's ``outs`` variant; ``None``: numpy), found or built, and
        remembered in the site's memo."""
        kern = self._kernel_for(spec, sig, outs)
        ent = self._fast.get(id(spec))
        if ent is None or ent[0] is not spec:
            ent = self._fast[id(spec)] = (spec, {})
        ent[1][sig if outs is None else (sig, outs)] = \
            kern if kern is not None else _UNSUPPORTED
        return kern

    def _kernel_for(self, spec, sig: str, outs=None) -> Optional[_Kernel]:
        if not self.available:
            return None
        key = spec_key(spec, sig, self.build, outs)
        kern = self._kernels.get(key)
        if kern is not None:
            if kern is _UNSUPPORTED:
                return None
            self.stats.bump("mem_hits")
            return None if kern.blacklisted else kern
        with self._lock:
            kern = self._kernels.get(key)
            if kern is not None:  # raced another thread
                if kern is _UNSUPPORTED:
                    return None
                self.stats.bump("mem_hits")
                return None if kern.blacklisted else kern
            kern = self._build_kernel(spec, sig, key, gate_probes=True,
                                      outs=outs)
            self._kernels[key] = kern if kern is not None else _UNSUPPORTED
            return kern

    def _build_kernel(self, spec, sig: str, key: str, gate_probes: bool,
                      outs=None) -> Optional[_Kernel]:
        """Compile-or-load one kernel.  Caller holds the lock."""
        if not self.available:
            return None
        name = f"k_{key}"
        try:
            source, ops_used = generate_source(spec, sig, name, outs)
        except UnsupportedSpecError:
            self.stats.bump("unsupported_specs")
            return None
        if gate_probes:
            for op in sorted(ops_used):
                if not self._op_admitted(op):
                    self.stats.bump("probe_rejects")
                    return None
            # a single-op spec IS its own probe kernel: a passing probe
            # already compiled and registered it under this very key
            existing = self._kernels.get(key)
            if existing is not None and existing is not _UNSUPPORTED:
                return existing
        path = self.cache.lookup(key)
        if path is not None:
            self.stats.bump("disk_hits")
        else:
            if self.cache.so_path(key).exists():
                # torn write, bit rot, or a pre-digest publisher: never
                # dlopen'ed — rebuilt and republished over it instead
                self.stats.bump("disk_rejects")
            try:
                path = self.cache.build(key, source, self.cc, self.flags)
            except (KernelCompileError, OSError):
                # a cache that cannot publish (ENOSPC, made read-only or
                # removed mid-run) fails closed, like a compiler error:
                # this kernel stays on the numpy path
                self.stats.bump("compile_failures")
                return None
            self.stats.bump("compiles")
        ffi = self._get_ffi()
        try:
            ffi.cdef(cdef_signature(
                sig, name, len(members(spec) if outs is None else outs),
                tap_count(spec)))
            lib = ffi.dlopen(str(path))
            cfun = getattr(lib, name)
        except Exception:
            self.stats.bump("compile_failures")
            return None
        self.stats.bump("kernels")
        return _Kernel(cfun, lib, sig)

    # ---------------------------------------------------------------- #
    # per-op differential probes
    # ---------------------------------------------------------------- #

    def _op_admitted(self, op: str) -> bool:
        info = OPS[op]
        if info.kind != PROBED:
            return True
        verdict = self._op_admission.get(op)
        if verdict is not None:
            return verdict
        if op in self._probing:  # defensive: no recursive probes
            return False
        self._probing.add(op)
        try:
            verdict = self._probe_op(op)
        finally:
            self._probing.discard(op)
        self._op_admission[op] = verdict
        if not verdict:
            # the probe's kernel is the single-op spec's own: a chain or a
            # group probing the op first must not leave it to run later
            self._kernels[self.key(single_op_spec(op),
                                   "a" * info.arity)] = _UNSUPPORTED
        return verdict

    def _probe_op(self, op: str) -> bool:
        """One-time bitwise sweep of a PROBED op against numpy.

        Builds the single-op kernel, runs it over the deterministic
        sample set for the op's domain, and admits the op only if every
        result bit matches the reference.  numpy builds whose SIMD
        transcendentals differ from libm fail here and their chains stay
        on the numpy path — correctness never depends on the platform.
        """
        info = OPS[op]
        samples = probe_samples(info.domain)[:info.arity]
        spec = single_op_spec(op)
        sig = "a" * info.arity
        key = self.key(spec, sig)
        kern = self._kernels.get(key)
        if kern is None or kern is _UNSUPPORTED:
            kern = self._build_kernel(spec, sig, key, gate_probes=False)
            self._kernels[key] = kern if kern is not None else _UNSUPPORTED
        if kern is None or kern is _UNSUPPORTED:
            return False
        arrays = [np.ascontiguousarray(s, dtype=np.float64)
                  for s in samples]
        out = np.empty(arrays[0].shape, dtype=np.float64)
        ffi = self._get_ffi()
        cargs = [ffi.cast("double *", a.ctypes.data) for a in arrays]
        rc = kern.cfun(out.size, ffi.cast("double *", out.ctypes.data),
                       *cargs)
        if rc != 0:
            return False
        with np.errstate(all="ignore"):
            ref = np.asarray(reference(spec)(*arrays))
        return (ref.dtype == np.float64 and ref.shape == out.shape
                and ref.tobytes() == out.tobytes())
