"""Unit tests for the native kernel engine: signature gating, semantic
guards, content-addressed caching, first-call verification, and the
constant-exponent power rewrites."""

import numpy as np
import pytest

from repro.native import NativeEngine, find_compiler, spec_key
from repro.native.cache import BUILD_FLAGS, ISA_FLAGS, build_identity
from repro.native.codegen import UnsupportedSpecError, generate_source
from repro.ewops import reference

HAVE_CC = find_compiler() is not None

pytestmark = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")


@pytest.fixture
def engine(tmp_path):
    """A fresh engine over an empty cache directory, so compile and
    disk-hit counts are deterministic per test."""
    eng = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    if not eng.available:
        pytest.skip(f"native tier unavailable: {eng.unavailable_reason}")
    return eng


def _arr(*values):
    return np.ascontiguousarray(values, dtype=np.float64)


CHAIN = ("+", (".*", "@0", "@1"), 2.0)


def run_ref(engine, spec, args):
    return engine.run(spec, args, reference(spec))


# ---------------------------------------------------------------------- #
# signature gate
# ---------------------------------------------------------------------- #


def test_rejects_complex_arrays(engine):
    a = np.array([1 + 2j, 3 + 0j])
    assert run_ref(engine, CHAIN, [a, _arr(1.0, 2.0)]) is None
    assert engine.stats.snapshot()["signature_fallbacks"] == 1


def test_rejects_complex_scalars(engine):
    assert run_ref(engine, CHAIN, [_arr(1.0, 2.0), 3 + 4j]) is None
    assert engine.stats.snapshot()["signature_fallbacks"] == 1


def test_rejects_non_float64(engine):
    a = np.array([1, 2, 3], dtype=np.int64)
    assert run_ref(engine, CHAIN, [a, _arr(1.0, 2.0, 3.0)]) is None
    assert engine.stats.snapshot()["signature_fallbacks"] == 1


def test_rejects_shape_mismatch(engine):
    assert run_ref(engine, CHAIN,
                   [_arr(1.0, 2.0), _arr(1.0, 2.0, 3.0)]) is None
    assert engine.stats.snapshot()["signature_fallbacks"] == 1


def test_rejects_strided_views(engine):
    a = np.arange(8.0)[::2]
    assert not a.flags.c_contiguous
    assert run_ref(engine, CHAIN, [a, np.arange(4.0)]) is None
    assert engine.stats.snapshot()["signature_fallbacks"] == 1


def test_rejects_pure_scalar_chains(engine):
    assert run_ref(engine, CHAIN, [2.0, 3.0]) is None
    assert engine.stats.snapshot()["signature_fallbacks"] == 1


def test_scalar_broadcast_and_bool_args(engine):
    # a (1,1) replicated scalar next to a column vector — the runtime's
    # shapes — demotes to a C double argument
    a = np.ascontiguousarray([[1.0], [2.0], [3.0]])
    out = run_ref(engine, CHAIN, [a, np.array([[2.0]])])
    ref = np.asarray(reference(CHAIN)(a, np.array([[2.0]])))
    assert out.tobytes() == ref.tobytes()
    out2 = run_ref(engine, ("&", "@0", "@1"), [_arr(1.0, 2.0), True])
    assert out2.tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------- #
# semantic guards: complex promotion stays on the numpy path
# ---------------------------------------------------------------------- #


def test_sqrt_guard_aborts_on_negative(engine):
    spec = ("fn:sqrt", "@0")
    ok = run_ref(engine, spec, [_arr(4.0, 9.0)])
    assert ok.tolist() == [2.0, 3.0]
    assert run_ref(engine, spec, [_arr(4.0, -1.0)]) is None
    assert engine.stats.snapshot()["guard_fallbacks"] == 1


def test_guard_fallback_reference_promotes(engine):
    # the numpy path the caller falls back to really does go complex
    ref = reference(("fn:sqrt", "@0"))(_arr(-4.0))
    assert np.iscomplexobj(ref) and ref[0] == 2j


# ---------------------------------------------------------------------- #
# power rewrites
# ---------------------------------------------------------------------- #


def test_pow_const_rewrites(engine):
    a = _arr(-3.0, 0.5, 7.0, 0.0)
    for const in (0.0, 1.0, 2.0, -1.0):
        spec = (".^", "@0", const)
        out = run_ref(engine, spec, [a])
        ref = np.asarray(reference(spec)(a))
        assert out is not None, f"a .^ {const} fell back"
        assert out.tobytes() == ref.tobytes()


def test_pow_fractional_exponent_unsupported(engine):
    assert run_ref(engine, (".^", "@0", 0.5), [_arr(1.0, 4.0)]) is None
    assert engine.stats.snapshot()["unsupported_specs"] == 1
    with pytest.raises(UnsupportedSpecError):
        generate_source((".^", "@0", 0.5), "a", "k_x")


def test_unknown_op_unsupported(engine):
    # no row, so no reference either: the refusal comes before its use
    assert engine.run(("fn:erf", "@0"), [_arr(1.0, 2.0)], None) is None
    assert engine.stats.snapshot()["unsupported_specs"] == 1


# ---------------------------------------------------------------------- #
# caching
# ---------------------------------------------------------------------- #


def test_compile_once_then_memory_hits(engine):
    a = _arr(1.0, 2.0, 3.0)
    for _ in range(3):
        out = run_ref(engine, CHAIN, [a, a])
        assert out is not None
    stats = engine.stats.snapshot()
    assert stats["compiles"] == 1
    assert stats["kernels"] == 1
    assert stats["mem_hits"] == 2
    assert stats["native_calls"] == 3


def test_warm_disk_cache_zero_recompiles(engine, tmp_path):
    a = _arr(1.0, 2.0, 3.0)
    assert run_ref(engine, CHAIN, [a, a]) is not None
    warm = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    assert run_ref(warm, CHAIN, [a, a]) is not None
    stats = warm.stats.snapshot()
    assert stats["compiles"] == 0, "warm cache must not recompile"
    assert stats["disk_hits"] == 1


def test_a_warm_cache_answers_the_toolchain_probe(engine, tmp_path,
                                                 monkeypatch):
    """The probe's trial kernel is a cached kernel of this build: a
    second engine on the same directory compiles nothing to learn that
    the tier works."""
    builds = _builds(monkeypatch)
    warm = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    assert warm.available and warm.build == engine.build
    assert builds == [] and warm.stats.snapshot()["compiles"] == 0


def test_a_compiler_that_fails_still_fails_the_warm_probe(engine, tmp_path,
                                                         monkeypatch):
    """Another compiler is another build: its trial kernel is not the
    one on disk, so a compiler that cannot build one still makes the
    tier unavailable — and ``require`` raise."""
    from repro.native import ENV_CACHE_DIR, ENV_CC, NativeUnavailableError, \
        reset_engines, resolve_native

    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "kernels"))
    monkeypatch.setenv(ENV_CC, "/bin/false")
    reset_engines()
    try:
        with pytest.raises(NativeUnavailableError, match="probe failed"):
            resolve_native("require")
    finally:
        reset_engines()


def _replace(path, data):
    # a new inode, like any publisher's os.replace: the first engine
    # still has the old file mapped, and scribbling on a dlopen'ed
    # library in place is a SIGBUS no cache discipline can prevent
    tmp = path.with_suffix(".damaged")
    tmp.write_bytes(data)
    tmp.replace(path)


def _damage_truncate(cache, key):
    path = cache.so_path(key)
    _replace(path, path.read_bytes()[:100])


def _damage_flip_byte(cache, key):
    path = cache.so_path(key)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    _replace(path, bytes(data))


def _damage_drop_digest(cache, key):
    cache.digest_path(key).unlink()


@pytest.mark.parametrize("damage", [_damage_truncate, _damage_flip_byte,
                                    _damage_drop_digest])
def test_damaged_disk_entry_recompiles_once_then_hits(engine, tmp_path,
                                                      damage):
    """A cached ``.so`` that is not the bytes its digest was recorded
    for is never dlopen'ed: one rebuild republishes over it, and the
    entry is a plain hit again afterwards (under ``auto`` the parent
    fell back to numpy forever; under ``require`` it failed forever)."""
    a = _arr(1.0, 2.0, 3.0)
    want = run_ref(engine, CHAIN, [a, a])
    damage(engine.cache, engine.key(CHAIN, "aa"))

    healer = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    np.testing.assert_array_equal(run_ref(healer, CHAIN, [a, a]), want)
    stats = healer.stats.snapshot()
    assert (stats["disk_hits"], stats["compiles"]) == (0, 1)
    # the missing-digest entry is indistinguishable from a pre-digest
    # publisher's: rejected like the others
    assert stats["disk_rejects"] == 1
    assert stats["compile_failures"] == 0

    after = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    np.testing.assert_array_equal(run_ref(after, CHAIN, [a, a]), want)
    stats = after.stats.snapshot()
    assert (stats["disk_hits"], stats["compiles"], stats["disk_rejects"]) \
        == (1, 0, 0)


def test_same_key_build_race_publishes_one_loadable_kernel(engine, tmp_path):
    """Eight builders (two engines in one server process, or same-pid
    processes in two containers on one cache volume) racing on one key
    each compile privately and publish whole files: whatever
    interleaving wins, the entry verifies and loads."""
    import threading

    from repro.native.cache import KernelCache

    key = engine.key(CHAIN, "aa")
    source, _ = generate_source(CHAIN, "aa", f"k_{key}")
    cache = KernelCache(tmp_path / "raced")
    nthreads = 8
    barrier = threading.Barrier(nthreads)
    errors = []

    def builder():
        barrier.wait()
        try:
            cache.build(key, source, engine.cc, engine.flags)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=builder) for _ in range(nthreads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert cache.lookup(key) == cache.so_path(key)
    # nothing but the three published files: no stray temp names
    assert sorted(p.name for p in cache.root.iterdir()) == \
        sorted(f"k_{key}.{ext}" for ext in ("c", "sha256", "so"))

    loader = NativeEngine(cache_dir=str(tmp_path / "raced"))
    a = _arr(1.0, 2.0, 3.0)
    np.testing.assert_array_equal(run_ref(loader, CHAIN, [a, a]),
                                  a * a + 2.0)
    stats = loader.stats.snapshot()
    assert (stats["disk_hits"], stats["compiles"]) == (1, 0)


def test_unpublishable_cache_falls_back_to_numpy(tmp_path, monkeypatch):
    """A cache that stops accepting writes after the toolchain probe
    (ENOSPC, made read-only, removed mid-run) fails each kernel closed:
    the program completes on the numpy path with the same bits, even
    under ``require``, which only gates on the probe."""
    import errno

    from repro.bench.workloads import image_filter
    from repro.compiler import compile_source
    from repro.mpi import MEIKO_CS2
    from repro.native import ENV_CACHE_DIR, get_engine, reset_engines
    import repro.native.cache as cache_mod

    program = compile_source(image_filter(n=24, steps=2).source,
                             name="imgf")
    off = program.run(nprocs=4, machine=MEIKO_CS2, native="off")
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "kernels"))
    reset_engines()
    try:
        assert get_engine().available          # the probe published fine

        def full_disk(path, data):
            raise OSError(errno.ENOSPC, "No space left on device", path)

        monkeypatch.setattr(cache_mod, "atomic_write_bytes", full_disk)
        on = program.run(nprocs=4, machine=MEIKO_CS2, native="require")
    finally:
        reset_engines()
    assert on.output == off.output and on.elapsed == off.elapsed
    for name in off.workspace:
        assert np.asarray(on.workspace[name]).tobytes() == \
            np.asarray(off.workspace[name]).tobytes()
    assert on.native["compile_failures"] > 0
    assert (on.native["compiles"], on.native["native_calls"]) == (0, 0)


# ---------------------------------------------------------------------- #
# the CPU probe: which flags the kernels are built with
# ---------------------------------------------------------------------- #


def _baseline(monkeypatch):
    """Engines built from now on answer 0 to the CPU probe: the flags of
    a host without x86-64-v3."""
    monkeypatch.setattr(NativeEngine, "_probe_isa", lambda self, base: 0)


def _builds(monkeypatch):
    """Every ``(source, flags)`` the kernel cache compiles from now on."""
    from repro.native.cache import KernelCache

    builds = []
    build = KernelCache.build
    monkeypatch.setattr(
        KernelCache, "build", lambda self, key, source, cc, flags:
        builds.append((source, flags)) or build(self, key, source, cc, flags))
    return builds


def test_the_engine_builds_with_the_flags_it_names(engine, tmp_path,
                                                   monkeypatch):
    assert engine.flags in (BUILD_FLAGS, BUILD_FLAGS + ISA_FLAGS)
    assert engine.isa == ("baseline" if engine.flags == BUILD_FLAGS
                          else "x86-64-v3")
    builds = _builds(monkeypatch)
    assert run_ref(engine, CHAIN, [_arr(1.0, 2.0), _arr(3.0, 4.0)]) \
        is not None
    assert [flags for _, flags in builds] == [engine.flags]


def test_a_cpu_without_v3_builds_every_kernel_as_before(tmp_path,
                                                       monkeypatch):
    """A probe that answers 0 leaves the baseline flags, and every key
    is the one the engine computed before it probed the CPU: a cache
    such a host filled earlier stays warm."""
    _baseline(monkeypatch)
    builds = _builds(monkeypatch)
    eng = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    assert eng.available and eng.isa == "baseline"
    assert eng.flags == BUILD_FLAGS
    assert eng.build == build_identity(eng.cc)
    assert eng.key(CHAIN, "aa") == spec_key(CHAIN, "aa",
                                            build_identity(eng.cc))
    assert run_ref(eng, CHAIN, [_arr(1.0, 2.0), _arr(3.0, 4.0)]) is not None
    assert {flags for _, flags in builds} == {BUILD_FLAGS}


def test_a_probe_that_cannot_build_leaves_the_baseline(tmp_path,
                                                      monkeypatch):
    """The probe failing is a no, not a broken tier."""
    from repro.native import engine as engine_mod
    from repro.native.cache import KernelCache, KernelCompileError

    build = KernelCache.build

    def refusing(self, key, source, cc, flags):
        if source == engine_mod._ISA_PROBE:
            raise KernelCompileError("no __builtin_cpu_supports here")
        return build(self, key, source, cc, flags)

    monkeypatch.setattr(KernelCache, "build", refusing)
    eng = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    assert eng.available and eng.flags == BUILD_FLAGS


def test_the_cpu_probe_is_cached_under_its_own_text(engine, tmp_path,
                                                   monkeypatch):
    """A warm cache answers the probe without a compile; another probe
    text is another key, so no entry written by older code — kernels
    included — can answer it."""
    from repro.native import engine as engine_mod

    builds = _builds(monkeypatch)
    assert NativeEngine(cache_dir=str(tmp_path / "kernels")).available
    assert builds == []
    monkeypatch.setattr(engine_mod, "_ISA_PROBE",
                        engine_mod._ISA_PROBE + "/* v2 */\n")
    assert NativeEngine(cache_dir=str(tmp_path / "kernels")).available
    assert builds == [(engine_mod._ISA_PROBE, BUILD_FLAGS)]


def test_the_probe_agrees_with_the_cpu(engine):
    """x86-64-v3 is AVX, AVX2, BMI1/2, F16C, FMA, LZCNT and MOVBE on top
    of v2; Linux lists them all (LZCNT as ``abm``).  Only where the
    probe's ``#if`` lets gcc ask the CPU: x86-64, gcc 12 or later."""
    import re
    import subprocess

    macros = subprocess.run([engine.cc, "-dM", "-E", "-"], input="",
                            text=True, capture_output=True).stdout
    gnuc = re.search(r"#define __GNUC__ (\d+)", macros)
    if ("__x86_64__" not in macros or "__clang__" in macros
            or gnuc is None or int(gnuc.group(1)) < 12):
        pytest.skip("the probe asks the CPU only on x86-64 with gcc >= 12")
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = next(set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags"))
    except (OSError, StopIteration):
        pytest.skip("no /proc/cpuinfo flags line")
    v3 = {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe"}
    assert (engine.isa == "x86-64-v3") == (v3 <= flags)


def test_a_v3_and_a_baseline_engine_share_a_cache_and_no_kernel(
        tmp_path, monkeypatch):
    """On one cache directory the two builds get disjoint keys: the
    baseline engine compiles every kernel it runs, loading none of the
    v3 engine's — and the image filter's output, workspace and clocks
    are byte for byte the same under both."""
    from repro.bench.workloads import image_filter
    from repro.compiler import compile_source
    from repro.mpi import MEIKO_CS2
    from repro.native import ENV_CACHE_DIR, get_engine, reset_engines

    program = compile_source(image_filter(n=40, steps=3).source)

    def run():
        engine = get_engine()
        result = program.run(nprocs=4, machine=MEIKO_CS2, backend="fused",
                             native="require")
        return engine, result

    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "kernels"))
    reset_engines()
    try:
        wide, got = run()
        if wide.isa != "x86-64-v3":
            pytest.skip("the host does not run x86-64-v3")
        reset_engines()
        _baseline(monkeypatch)
        narrow, want = run()
    finally:
        reset_engines()
    assert narrow.isa == "baseline"
    assert wide.loaded_keys() and narrow.loaded_keys()
    assert not set(wide.loaded_keys()) & set(narrow.loaded_keys())
    assert want.native["disk_hits"] == 0
    assert want.native["compiles"] == want.native["kernels"]
    assert got.native["native_calls"] == want.native["native_calls"] > 0
    assert got.output == want.output
    assert [t.hex() for t in got.spmd.times] == \
        [t.hex() for t in want.spmd.times]
    assert got.workspace.keys() == want.workspace.keys()
    for name, value in want.workspace.items():
        assert np.asarray(got.workspace[name]).tobytes() == \
            np.asarray(value).tobytes(), name


def test_cache_key_separates_spec_and_signature(engine):
    a = _arr(1.0, 2.0)
    assert run_ref(engine, CHAIN, [a, a]) is not None       # sig "aa"
    assert run_ref(engine, CHAIN, [a, 5.0]) is not None     # sig "as"
    assert engine.stats.snapshot()["compiles"] == 2
    assert engine.key(CHAIN, "aa") != engine.key(CHAIN, "as")
    assert engine.key(CHAIN, "aa") != engine.key(("+", "@0", "@1"), "aa")


def _script_cc(path, cc, version):
    """A compiler that is not ``cc``: a script that says ``version`` when
    asked and otherwise runs ``cc``."""
    path.write_text(f'#!/bin/sh\nif [ "$1" = --version ]; then echo {version};'
                    f' exit 0; fi\nexec {cc} "$@"\n')
    path.chmod(0o755)
    return str(path)


def test_cache_key_covers_the_build(engine, tmp_path):
    """The key names the build, not only the source: other flags,
    another compiler, or the same path after an upgrade give another
    key — and the same build the same key, in any engine."""
    same = build_identity(engine.cc, engine.flags)
    assert same == engine.build
    for flags in (engine.flags[:-2], engine.flags + ("-O3",),
                  tuple(reversed(engine.flags))):
        assert build_identity(engine.cc, flags) != same
        assert spec_key(CHAIN, "aa", build_identity(engine.cc, flags)) \
            != engine.key(CHAIN, "aa")
    other = _script_cc(tmp_path / "other-cc", engine.cc, "other 1.0")
    assert build_identity(other, engine.flags) != same
    before = build_identity(other)
    _script_cc(tmp_path / "other-cc", engine.cc, "other 2.0")
    assert build_identity(other) != before

    twin = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    assert twin.available and twin.key(CHAIN, "aa") == engine.key(CHAIN, "aa")
    stranger = NativeEngine(cache_dir=str(tmp_path / "kernels"), cc=other)
    assert stranger.available
    assert stranger.key(CHAIN, "aa") != engine.key(CHAIN, "aa")


def test_shared_cache_never_loads_another_builds_kernel(engine, tmp_path):
    """Two toolchains on one cache directory: each compiles its own
    kernel once, neither ``dlopen``s the other's."""
    a = _arr(1.0, 2.0, 3.0)
    assert run_ref(engine, CHAIN, [a, a]) is not None
    other = _script_cc(tmp_path / "other-cc", engine.cc, "other 1.0")
    stranger = NativeEngine(cache_dir=str(tmp_path / "kernels"), cc=other)
    assert run_ref(stranger, CHAIN, [a, a]) is not None
    stats = stranger.stats.snapshot()
    assert (stats["compiles"], stats["disk_hits"]) == (1, 0)
    again = NativeEngine(cache_dir=str(tmp_path / "kernels"), cc=other)
    assert run_ref(again, CHAIN, [a, a]) is not None
    stats = again.stats.snapshot()
    assert (stats["compiles"], stats["disk_hits"]) == (0, 1)


# ---------------------------------------------------------------------- #
# first-call verification
# ---------------------------------------------------------------------- #


def test_verify_mismatch_blacklists_kernel(engine):
    a = _arr(1.0, 2.0)
    lying = lambda x, y: x * y + 3.0  # noqa: E731 — not what CHAIN does
    assert engine.run(CHAIN, [a, a], lying) is None
    assert engine.stats.snapshot()["verify_rejects"] == 1
    # permanently numpy-only, even with an honest reference later
    assert run_ref(engine, CHAIN, [a, a]) is None
    assert engine.stats.snapshot()["native_calls"] == 0


def test_no_reference_means_no_native_until_verified(engine):
    a = _arr(1.0, 2.0)
    assert engine.run(CHAIN, [a, a], None) is None
    assert run_ref(engine, CHAIN, [a, a]) is not None


def test_a_failed_probe_leaves_no_kernel_to_run(engine, monkeypatch):
    """A chain (or a group) that uses ``exp`` probes it first; when the
    probe fails, the single-op kernel it compiled must not serve a later
    lone ``exp`` — that one falls back too, with nothing to reject."""
    probe = engine._probe_op
    monkeypatch.setattr(engine, "_probe_op",
                        lambda op: probe(op) and op != "fn:exp")
    a = _arr(0.5, 1.5)
    assert run_ref(engine, ("+", ("fn:exp", "@0"), 1.0), [a]) is None
    assert run_ref(engine, ("fn:exp", "@0"), [a]) is None
    stats = engine.stats.snapshot()
    assert (stats["verify_rejects"], stats["native_calls"]) == (0, 0)


# ---------------------------------------------------------------------- #
# a loop's count variant
# ---------------------------------------------------------------------- #

#: a loop body of two members: ``y = sqrt(x)`` (guarded) and ``x = x - 1``,
#: which carries ``x`` (operand 0) to the next iteration
LOOP = ((("fn:sqrt", "@0"), (0,)), (("-", "@0", 1.0), (0,)))
CARRY = ((0, 1),)


def _run_loop(engine, x, count):
    from repro.runtime.distribution import FreeList

    return engine.run_loop(LOOP, "a", [x], [x], x.shape, FreeList(x.size),
                           CARRY, (), count)


def test_a_count_variant_runs_the_iterations_and_leaves_its_input(engine):
    x = np.full((2, 3), 5.0)
    res = _run_loop(engine, x, 3)
    assert res[0] is None       # only the carried member has an array
    assert res[1].tobytes() == np.full((2, 3), 2.0).tobytes()
    assert x.tobytes() == np.full((2, 3), 5.0).tobytes()
    stats = engine.stats.snapshot()
    assert (stats["native_calls"], stats["loop_iterations"]) == (1, 3)


def test_a_guard_in_any_iteration_refuses_the_count_variant(engine):
    """``sqrt(x)`` of 2, 1, 0 passes; the fourth iteration's −1 fires."""
    assert _run_loop(engine, np.full((2, 3), 2.0), 3) is not None
    assert _run_loop(engine, np.full((2, 3), 2.0), 4) is None
    stats = engine.stats.snapshot()
    assert (stats["guard_fallbacks"], stats["loop_iterations"]) == (1, 3)


def test_a_count_variant_is_checked_against_the_steps(engine, monkeypatch):
    import repro.native.engine as engine_module

    reference = engine_module.group_reference
    monkeypatch.setattr(engine_module, "group_reference",
                        lambda *a: [v + 1.0 for v in reference(*a)])
    assert _run_loop(engine, np.full((2, 3), 5.0), 2) is None
    monkeypatch.setattr(engine_module, "group_reference", reference)
    # permanently numpy-only
    assert _run_loop(engine, np.full((2, 3), 5.0), 2) is None
    stats = engine.stats.snapshot()
    assert (stats["verify_rejects"], stats["native_calls"]) == (1, 0)
