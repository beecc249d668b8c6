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
import sys
import threading

import pytest

import repro.compiler
from repro.compiler import OtterCompiler
from repro.frontend.lexer import token_key, tokenize
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
# the same tokens on the same lines: blanks, trailing comments and blank
# lines after the last token move nothing the compiler reads
SRC_WS = "x   = ones(4,4)*2 ;  % a comment\ndisp( sum(sum(x)) );  % more\n\n\n"
# the same tokens two lines further down: the emitted code marks lines
SRC_SHIFTED = "% a comment\n\n" + SRC
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


def test_canonical_source_is_the_token_key():
    assert canonical_source(SRC) == token_key(tokenize(SRC))
    assert canonical_source(SRC) == canonical_source(SRC_WS)
    assert canonical_source(SRC) != canonical_source(SRC_SHIFTED)
    assert canonical_source(SRC) != canonical_source(SRC_B)
    # an imaginary literal's text has no suffix; its key does
    assert canonical_source("x = 3i;") != canonical_source("x = 3;")


def test_canonical_source_of_unparsable_text_is_quoted():
    """Unparsable text keys as a JSON string, which no token key (a JSON
    list) equals — not even that of a program whose key *is* the text."""
    broken = "for i = (((\n"
    assert canonical_source(broken) == json.dumps(broken)
    lookalike = canonical_source("x")
    assert canonical_source(lookalike) != lookalike


def test_key_ignores_layout_within_a_line_only():
    cache = CompileCache(disk_root=False)
    assert cache.key(SRC) == cache.key(SRC_WS)
    assert cache.key(SRC) != cache.key(SRC_SHIFTED)


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

    def counting(source, name="script", tokens=None):
        parsed.append(source)
        return real(source, name, tokens)

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


def test_a_cold_compile_never_unparses(monkeypatch, tmp_path):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the cache key unparsed the AST")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name in ("unparse_script", "unparse_function"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    provider = DictProvider({"f": "function y = f(x)\ny = x + 1;\n"})
    cache = CompileCache(disk_root=tmp_path)
    cold = cache.get_or_compile("a = f(2);\ndisp(a);\n", provider=provider)
    assert not cold.hit and "3" in cold.program.run().output
    assert CompileCache(disk_root=tmp_path).get_or_compile(
        "a = f(2);\ndisp(a);\n", provider=provider).tier == "disk"


def line_markers(python_source):
    return [line.strip() for line in python_source.splitlines()
            if "_c.line = " in line]


@pytest.mark.parametrize("variant, hit", [
    ("% the same program, two lines down\n\n" + COMM_SRC, False),
    (COMM_SRC.replace(";\n", ";   % note\n") + "\n\n", True),
], ids=["line_shifted", "same_lines"])
def test_a_layout_variant_runs_as_its_fresh_compile(variant, hit):
    """Tokens moved two lines down are a miss, and the run traces the
    lines a fresh compile traces, not those of the cached layout; an
    edit within the lines is a hit, and traces the same lines."""
    cache = CompileCache(disk_root=False)
    first = cache.get_or_compile(COMM_SRC)
    second = cache.get_or_compile(variant)
    assert second.hit == hit == (second.program is first.program)
    fresh = OtterCompiler().compile(variant)
    assert second.program.python_source == fresh.python_source
    run = dict(nprocs=4, machine=MEIKO_CS2, trace=True)
    traced = trace_sha(second.program.run(**run))
    assert traced == trace_sha(fresh.run(**run))
    assert (traced == trace_sha(first.program.run(**run))) == hit


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
    assert warm.program.ir is None
    assert warm.program.python_source == cold.program.python_source
    assert warm.program.peephole_stats == cold.program.peephole_stats
    assert warm.program.licm_stats == cold.program.licm_stats
    assert second.stats()["disk_hits"] == 1

    r_warm = warm.program.run(nprocs=4, machine=MEIKO_CS2, trace=True)
    assert r_warm.output == r_cold.output
    assert r_warm.elapsed == r_cold.elapsed
    assert trace_sha(r_warm) == trace_sha(r_cold)

    # front-end artifacts recompile on demand, identically, and are
    # not stored back on the cached program
    assert warm.program.c_source == cold.program.c_source
    assert warm.program.ir is None


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


def test_disk_entry_of_a_line_shifted_mfile_recompiles(tmp_path):
    """An M-file dependency keys by its tokens and their lines: a
    comment line inserted above the body rejects the disk entry (the
    emitted code marks the function's lines), a trailing comment on a
    line does not."""
    root = tmp_path / "programs"
    mdir = tmp_path / "mfiles"
    mdir.mkdir()
    helper = mdir / "triple.m"
    body = "function y = triple(x)\ny = x * 3;\n"
    helper.write_text(body, encoding="utf-8")
    src = "a = triple(7);\ndisp(a);\n"

    def request():
        """A fresh process: a new cache and provider over both dirs."""
        cache = CompileCache(disk_root=root)
        provider = DirectoryProvider([str(mdir)])
        return cache.get_or_compile(src, provider=provider), cache

    cold, _cache = request()
    assert not cold.hit
    helper.write_text("% helper\n" + body, encoding="utf-8")
    shifted, cache = request()
    assert not shifted.hit and cache.stats()["disk_hits"] == 0
    fresh = OtterCompiler(DirectoryProvider([str(mdir)])).compile(src)
    assert line_markers(shifted.program.python_source) == \
        line_markers(fresh.python_source)
    assert line_markers(shifted.program.python_source) != \
        line_markers(cold.program.python_source)
    assert "21" in shifted.program.run().output

    helper.write_text("% helper\nfunction y = triple(x)  % times three\n"
                      "y = x * 3;   \n\n", encoding="utf-8")
    edited, cache = request()
    assert edited.hit and edited.tier == "disk"
    assert edited.program.python_source == shifted.program.python_source


LOAD_SQUARE = "x = load('d.dat');\ny = x * x;\ndisp(y);\n"


def _fresh_output(source, provider):
    return OtterCompiler(provider).compile(source).run().output


def _requests(tier, root):
    """A request function per tier: the same memory cache every time,
    or a new process (a new cache) over one disk root."""
    if tier == "memory":
        cache = CompileCache(disk_root=False)
        return lambda src, provider=None: cache.get_or_compile(
            src, provider=provider)
    return lambda src, provider=None: CompileCache(
        disk_root=root).get_or_compile(src, provider=provider)


def test_memory_entry_with_stale_mfile_dep_recompiles(tmp_path):
    """Both tiers apply one validity rule: a memory entry compiled
    through a directory rechecks its M-files like a disk entry does."""
    mdir = tmp_path / "mfiles"
    mdir.mkdir()
    helper = mdir / "triple.m"
    helper.write_text("function y = triple(x)\ny = x * 3;\n",
                      encoding="utf-8")
    src = "a = triple(7); disp(a);"
    cache = CompileCache(disk_root=False)

    def request():
        return cache.get_or_compile(
            src, provider=DirectoryProvider([str(mdir)]))

    assert request().program.run().output.split() == ["21"]
    helper.write_text("function y = triple(x)\ny = x * 4;\n",
                      encoding="utf-8")
    stale = request()
    assert not stale.hit and cache.stats()["compiles"] == 2
    assert stale.program.run().output == _fresh_output(
        src, DirectoryProvider([str(mdir)]))
    assert stale.program.run().output.split() == ["28"]
    again = request()
    assert again.hit and again.tier == "memory"


def test_dict_provider_data_files_key_the_program():
    cache = CompileCache(disk_root=False)
    scalar = DictProvider({}, data_files={"d.dat": [[2]]})
    square = DictProvider({}, data_files={"d.dat": [[1, 2], [3, 4]]})
    first = cache.get_or_compile(LOAD_SQUARE, provider=scalar)
    second = cache.get_or_compile(LOAD_SQUARE, provider=square)
    assert first.key != second.key and not second.hit
    assert first.program.run().output.split() == ["4"]
    assert second.program.run().output == _fresh_output(LOAD_SQUARE, square)
    assert second.program.run().output.split() == ["7", "10", "15", "22"]


@pytest.mark.parametrize("tier", ["memory", "disk"])
def test_changed_hosted_object_recompiles(tier, tmp_path):
    """A store URL is not in the key: the record holds the digest of the
    object the compile typed from, and a hit rereads it."""
    from repro import datastore

    request = _requests(tier, tmp_path / "programs")
    src = LOAD_SQUARE.replace("d.dat", "mem://d")
    datastore.save("mem://d", [[[2.0]]])
    assert request(src).program.run().output.split() == ["4"]
    datastore.save("mem://d", [[[1.0, 2.0], [3.0, 4.0]]])
    changed = request(src)
    assert not changed.hit
    assert changed.program.run().output == _fresh_output(src, None)
    assert changed.program.run().output.split() == ["7", "10", "15", "22"]
    again = request(src)
    assert again.hit and again.tier == tier


@pytest.mark.parametrize("tier", ["memory", "disk"])
def test_directory_data_file_edited_in_place_recompiles(tier, tmp_path):
    ddir = tmp_path / "data"
    ddir.mkdir()
    data = ddir / "d.dat"
    request = _requests(tier, tmp_path / "programs")
    data.write_text("2\n", encoding="utf-8")
    first = request(LOAD_SQUARE, DirectoryProvider([str(ddir)]))
    assert first.program.run().output.split() == ["4"]
    data.write_text("1 2\n3 4\n", encoding="utf-8")
    edited = request(LOAD_SQUARE, DirectoryProvider([str(ddir)]))
    assert not edited.hit
    assert edited.program.run().output == _fresh_output(
        LOAD_SQUARE, DirectoryProvider([str(ddir)]))
    assert edited.program.run().output.split() == ["7", "10", "15", "22"]
    again = request(LOAD_SQUARE, DirectoryProvider([str(ddir)]))
    assert again.hit and again.tier == tier


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
