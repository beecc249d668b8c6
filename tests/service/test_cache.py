"""The content-addressed compile cache (docs/SERVICE.md).

Covers both tiers (LRU memory with injectable clock, atomic fail-closed
on-disk), the one-key contract (only what the compiler reads), the
single parse of a new source, single-flight concurrency, dependency
staleness, and the acceptance criterion: a warm request performs zero
compiler passes and its run is bit-identical to the cold one, canonical
trace SHA included, on all three SPMD backends.
"""

import hashlib
import inspect
import json
import threading

import pytest

import repro.compiler
from repro.frontend.mfile import DictProvider, DirectoryProvider
from repro.mpi.machine import MEIKO_CS2
from repro.service.cache import (
    CompileCache,
    canonical_source,
    resolve_disk_root,
)
from repro.trace import canonical_events
from repro.tuning.plan import DEFAULT_PLAN, Plan

PASS_NAMES = ["parse", "resolve", "infer", "lower", "guard", "peephole",
              "licm", "group", "emit"]

SRC = "x = ones(4, 4) * 2;\ndisp(sum(sum(x)));\n"
SRC_WS = "% a comment\nx   = ones(4,4)*2 ;\n\n\ndisp( sum(sum(x)) );  % more\n"
SRC_B = "y = zeros(3, 3) + 5;\ndisp(sum(sum(y)));\n"
SRC_C = "z = ones(2, 6);\ndisp(sum(sum(z')));\n"

COMM_SRC = (
    "A = ones(8, 8);\n"
    "v = ones(8, 1);\n"
    "w = A * v;\n"
    "disp(sum(w));\n"
)


def trace_sha(result) -> str:
    return hashlib.sha256(
        canonical_events(result.trace).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# keys
# ---------------------------------------------------------------------- #


def test_canonical_source_collapses_layout_and_comments():
    assert canonical_source(SRC) == canonical_source(SRC_WS)
    assert canonical_source(SRC) != canonical_source(SRC_B)


def test_canonical_source_of_unparsable_text_is_verbatim():
    broken = "for i = (((\n"
    assert canonical_source(broken) == broken


def test_key_is_whitespace_insensitive():
    cache = CompileCache(disk_root=False)
    assert cache.key(SRC) == cache.key(SRC_WS)


def test_key_and_get_or_compile_take_only_what_the_compiler_reads():
    for method in (CompileCache.key, CompileCache.get_or_compile):
        assert list(inspect.signature(method).parameters) == [
            "self", "source", "name", "provider", "plan"]


def test_key_differs_on_every_component():
    cache = CompileCache(disk_root=False)
    base = dict(name="script", provider=None, plan=None)
    reference = cache.key(SRC, **base)
    variants = [
        dict(base, name="other"),
        dict(base, provider=DictProvider({"f": "function y = f(x)\ny = x;"})),
        dict(base, provider=DictProvider({"f": "function y = f(x)\ny = 2;"})),
        dict(base, plan=Plan(fusion=())),
        dict(base, plan=Plan(fusion=("cse",))),
        dict(base, plan=Plan(licm="safe")),
        dict(base, plan=Plan(licm="off")),
    ]
    keys = [cache.key(SRC, **v) for v in variants] + [cache.key(SRC_B, **base)]
    for key in keys:
        assert key != reference
    assert len(set(keys)) == len(keys)


def test_key_ignores_everything_the_compiler_never_reads(runtime_plan):
    cache = CompileCache(disk_root=False)
    reference = cache.key(SRC)
    assert cache.key(SRC, plan=DEFAULT_PLAN) == reference
    assert cache.key(SRC, plan=runtime_plan) == reference
    assert cache.key(SRC_WS, plan=runtime_plan) == reference


# ---------------------------------------------------------------------- #
# memory tier
# ---------------------------------------------------------------------- #


def test_memory_hit_returns_same_object_with_zero_passes():
    cache = CompileCache(disk_root=False)
    cold = cache.get_or_compile(SRC)
    assert not cold.hit and cold.passes and cold.compile_seconds >= 0
    warm = cache.get_or_compile(SRC_WS)
    assert warm.hit and warm.tier == "memory"
    assert warm.passes == []
    assert warm.program is cold.program
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["compiles"] == 1


def test_lru_eviction_drops_least_recent():
    cache = CompileCache(max_entries=2, disk_root=False)
    a = cache.get_or_compile(SRC)
    b = cache.get_or_compile(SRC_B)
    cache.get_or_compile(SRC)            # touch A: B is now the LRU
    cache.get_or_compile(SRC_C)          # evicts B
    assert cache.contains(a.key)
    assert not cache.contains(b.key)
    assert cache.stats()["evictions_lru"] == 1


def test_ttl_eviction_with_fake_clock(fake_clock):
    cache = CompileCache(disk_root=False, ttl=10.0, clock=fake_clock)
    cold = cache.get_or_compile(SRC)
    fake_clock.tick(5.0)
    assert cache.get_or_compile(SRC).hit          # refreshes the stamp
    fake_clock.tick(9.0)
    assert cache.get_or_compile(SRC).hit          # 9 < ttl since touch
    fake_clock.tick(11.0)
    again = cache.get_or_compile(SRC)
    assert not again.hit and again.program is not cold.program
    assert cache.stats()["evictions_ttl"] == 1


def test_single_flight_compiles_once_across_threads():
    cache = CompileCache(disk_root=False)
    nthreads = 8
    barrier = threading.Barrier(nthreads)
    outcomes = [None] * nthreads

    def worker(i):
        barrier.wait()
        outcomes[i] = cache.get_or_compile(COMM_SRC)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.stats()["compiles"] == 1
    programs = {id(o.program) for o in outcomes}
    assert len(programs) == 1
    assert sum(1 for o in outcomes if not o.hit) == 1


def test_clear_resets_entries_and_stats():
    cache = CompileCache(disk_root=False)
    cold = cache.get_or_compile(SRC)
    cache.clear()
    stats = cache.stats()
    assert stats["size"] == 0 and stats["hits"] == 0
    fresh = cache.get_or_compile(SRC)
    assert not fresh.hit
    assert fresh.program is not cold.program


def test_a_new_source_is_parsed_once_and_a_hit_never(monkeypatch):
    parsed = []
    real = repro.compiler.parse_script

    def counting(source, name="script"):
        parsed.append(source)
        return real(source, name)

    monkeypatch.setattr(repro.compiler, "parse_script", counting)
    cache = CompileCache(disk_root=False)
    cold = cache.get_or_compile(COMM_SRC, name="job")
    assert parsed == [COMM_SRC]
    assert [name for name, _s in cold.passes] == PASS_NAMES
    assert all(seconds >= 0 for _name, seconds in cold.passes)
    assert cache.get_or_compile(COMM_SRC, name="job").hit
    assert parsed == [COMM_SRC]
    # a layout variant is new text: one parse for its key, then a hit
    assert cache.get_or_compile(COMM_SRC + "% note\n", name="job").hit
    assert len(parsed) == 2


def test_unparsable_source_raises_the_compile_diagnostic_uncached():
    from repro.errors import OtterError

    cache = CompileCache(disk_root=False)
    for _ in range(2):
        with pytest.raises(OtterError):
            cache.get_or_compile("for i = (((\n")
    assert cache.stats()["size"] == 0 and cache.stats()["compiles"] == 0


# ---------------------------------------------------------------------- #
# one program serves every run configuration
# ---------------------------------------------------------------------- #


def run_facts(result):
    return (result.output, result.elapsed, tuple(result.spmd.times),
            result.spmd.messages_sent, result.spmd.bytes_sent,
            result.spmd.collectives,
            tuple(sorted(result.spmd.collective_counts.items())))


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_run_time_plan_fields_never_stick_to_the_cached_program(
        order, plan_src, runtime_plan):
    """Two requests whose plans differ only in run-time fields share one
    program, and each run models exactly what a fresh cache given that
    plan alone models — whichever request came first."""
    plans = (Plan(), runtime_plan)
    run_cfg = dict(nprocs=8, machine=MEIKO_CS2, backend="fused")

    def alone(plan):
        program = CompileCache(disk_root=False).get_or_compile(
            plan_src, plan=plan).program
        return run_facts(program.run(plan=plan, **run_cfg))

    expected = [alone(plan) for plan in plans]
    assert expected[0] != expected[1]          # the knobs do matter here

    cache = CompileCache(disk_root=False)
    outcomes = {}
    for i in order:
        outcomes[i] = cache.get_or_compile(plan_src, plan=plans[i])
        # the shared program carries nothing of either request's run side
        assert outcomes[i].program.plan is None
        got = run_facts(outcomes[i].program.run(plan=plans[i], **run_cfg))
        assert got == expected[i]
    assert outcomes[0].program is outcomes[1].program
    assert outcomes[0].key == outcomes[1].key
    assert cache.stats()["compiles"] == 1


def test_cached_program_carries_compile_side_plan_fields_only(plan_src):
    cache = CompileCache(disk_root=False)
    request = Plan(fusion=(), licm="safe", scheme="cyclic",
                   gather_algo="doubling", hierarchy="flat")
    program = cache.get_or_compile(plan_src, plan=request).program
    assert program.plan == Plan(fusion=(), licm="safe")


# ---------------------------------------------------------------------- #
# disk tier
# ---------------------------------------------------------------------- #


def test_disk_tier_rehydrates_across_cache_instances(tmp_path):
    root = tmp_path / "programs"
    first = CompileCache(disk_root=root)
    cold = first.get_or_compile(COMM_SRC)
    r_cold = cold.program.run(nprocs=4, machine=MEIKO_CS2, trace=True)

    # a "fresh process": new cache instance over the same directory
    second = CompileCache(disk_root=root)
    warm = second.get_or_compile(COMM_SRC)
    assert warm.hit and warm.tier == "disk"
    assert warm.passes == []
    assert warm.program.from_cache
    assert warm.program.python_source == cold.program.python_source
    assert warm.program.peephole_stats == cold.program.peephole_stats
    assert warm.program.licm_stats == cold.program.licm_stats
    assert second.stats()["disk_hits"] == 1

    r_warm = warm.program.run(nprocs=4, machine=MEIKO_CS2, trace=True)
    assert r_warm.output == r_cold.output
    assert r_warm.elapsed == r_cold.elapsed
    assert trace_sha(r_warm) == trace_sha(r_cold)

    # front-end artifacts recompile lazily, identically
    assert warm.program.c_source == cold.program.c_source
    assert not warm.program.from_cache


def test_disk_entry_with_stale_mfile_dep_recompiles(tmp_path):
    root = tmp_path / "programs"
    mdir = tmp_path / "mfiles"
    mdir.mkdir()
    helper = mdir / "triple.m"
    helper.write_text("function y = triple(x)\ny = x * 3;\n",
                      encoding="utf-8")
    src = "a = triple(7);\ndisp(a);\n"
    provider = DirectoryProvider([str(mdir)])

    first = CompileCache(disk_root=root)
    cold = first.get_or_compile(src, provider=provider)
    assert "21" in cold.program.run().output

    # same search path (same key), drifted content: the dep validator
    # must reject the disk entry and recompile against the new source
    helper.write_text("function y = triple(x)\ny = x * 4;\n",
                      encoding="utf-8")
    second = CompileCache(disk_root=root)
    fresh_provider = DirectoryProvider([str(mdir)])
    warm = second.get_or_compile(src, provider=fresh_provider)
    assert not warm.hit
    assert second.stats()["disk_hits"] == 0
    assert "28" in warm.program.run().output


def test_disk_tier_is_opt_in(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
    assert resolve_disk_root() is None
    for off in ("0", "off", "NONE", "disabled", ""):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", off)
        assert resolve_disk_root() is None
    monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path / "cc"))
    assert resolve_disk_root() == tmp_path / "cc"


def test_disk_false_never_touches_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path / "cc"))
    cache = CompileCache(disk_root=False)
    cache.get_or_compile(SRC)
    assert not (tmp_path / "cc").exists()


def _published(root):
    (path,) = root.glob("p_*.json")
    return path, json.loads(path.read_text(encoding="utf-8"))


def _tamper_python_source(path, payload):
    # one byte of the emitted Python: it would raise on exec if trusted
    text = path.read_text(encoding="utf-8")
    assert text.count("def main(rt)") == 1
    path.write_text(text.replace("def main(rt)", "def main(rt]"),
                    encoding="utf-8")


def _rename_to_another_key(path, payload):
    payload["key"] = "0" * 64
    path.write_text(json.dumps(payload), encoding="utf-8")


def _truncate(path, payload):
    path.write_text(path.read_text(encoding="utf-8")[:200], encoding="utf-8")


def _non_object_json(path, payload):
    path.write_text("[1, 2, 3]", encoding="utf-8")


def _wrong_version_with_a_valid_digest(path, payload):
    from repro.service.cache import _payload_digest

    payload["version"] = payload["version"] - 1
    payload["digest"] = _payload_digest(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("damage", [
    _tamper_python_source, _rename_to_another_key, _truncate,
    _non_object_json, _wrong_version_with_a_valid_digest])
def test_disk_tier_fails_closed_on_a_damaged_payload(tmp_path, damage,
                                                     monkeypatch):
    root = tmp_path / "programs"
    cold = CompileCache(disk_root=root).get_or_compile(COMM_SRC)
    r_cold = cold.program.run(nprocs=4, machine=MEIKO_CS2)
    path, payload = _published(root)
    damage(path, payload)
    damaged = path.read_text(encoding="utf-8")

    executed = []
    real_exec = repro.compiler.CompiledProgram._load_module

    def watching(self):
        executed.append(self.python_source)
        return real_exec(self)

    monkeypatch.setattr(repro.compiler.CompiledProgram, "_load_module",
                        watching)
    second = CompileCache(disk_root=root)
    again = second.get_or_compile(COMM_SRC)
    assert not again.hit
    assert [name for name, _s in again.passes] == PASS_NAMES
    assert second.stats()["disk_rejects"] == 1
    assert second.stats()["disk_hits"] == 0
    assert again.program.python_source == cold.program.python_source
    r_again = again.program.run(nprocs=4, machine=MEIKO_CS2)
    assert run_facts(r_again) == run_facts(r_cold)
    assert executed == [cold.program.python_source]

    # the miss republished a payload that verifies
    assert path.read_text(encoding="utf-8") != damaged
    third = CompileCache(disk_root=root)
    assert third.get_or_compile(COMM_SRC).tier == "disk"
    assert third.stats()["disk_rejects"] == 0


# ---------------------------------------------------------------------- #
# the acceptance criterion: warm == cold, bit for bit, on every backend
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["lockstep", "fused"])
def test_warm_run_bit_identical_to_cold(backend, tmp_path):
    root = tmp_path / "programs"
    cold_cache = CompileCache(disk_root=root)
    cold = cold_cache.get_or_compile(COMM_SRC)
    assert not cold.hit and cold.passes
    r_cold = cold.program.run(nprocs=4, machine=MEIKO_CS2, backend=backend,
                              trace=True)

    for warm_cache in (cold_cache, CompileCache(disk_root=root)):
        warm = warm_cache.get_or_compile(COMM_SRC)
        assert warm.hit
        assert warm.passes == []       # zero compiler passes when warm
        r_warm = warm.program.run(nprocs=4, machine=MEIKO_CS2,
                                  backend=backend, trace=True)
        assert r_warm.output == r_cold.output
        assert r_warm.elapsed == r_cold.elapsed
        assert r_warm.spmd.messages_sent == r_cold.spmd.messages_sent
        assert r_warm.spmd.bytes_sent == r_cold.spmd.bytes_sent
        assert trace_sha(r_warm) == trace_sha(r_cold)
        assert set(r_warm.workspace) == set(r_cold.workspace)
