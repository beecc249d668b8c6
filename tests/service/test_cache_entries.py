"""What a compile-cache entry holds (docs/SERVICE.md, "The compile
cache"): what running the program needs — the emitted Python, the
pass-6 statistics, the plan, the source — and none of the pass-1..6
artifacts, on either tier.  Emitting C, IR or MATLAB from a cached
program recompiles the front end and keeps nothing of it; a cold
``repro compile`` and the autotuner still run the passes once.
"""

import gc
import tracemalloc
import types
import warnings

import pytest

from repro.cli import main
from repro.compiler import OtterCompiler, compile_source
from repro.frontend.mfile import DictProvider
from repro.service.cache import CompileCache, set_compile_cache
from repro.tuning import tune_program
from tests.corpus import e2e_programs

PROGRAMS = e2e_programs()
VARIANTS = 3

SRC = "x = ones(4, 4) * 2;\ndisp(sum(sum(x)));\n"
SRC_B = "y = zeros(3, 3) + 5;\ndisp(sum(sum(y)));\n"

#: three adjacent means: the search has fusion candidates to probe
TUNE_SRC = ("n = 64; x = rand(n, 1); y = rand(n, 1);\n"
            "for s = 1:2\n cx = mean(x);\n cy = mean(y);\n"
            " x = x + cx; y = y + cy;\nend\ndisp(sum(x) + sum(y));\n")


def _front_end_class(obj) -> bool:
    module = type(obj).__module__
    return module in ("repro.frontend.ast_nodes", "repro.ir.nodes") \
        or module.startswith("repro.analysis")


def _fill(cache, provider, variants=VARIANTS):
    """Each e2e program under ``variants`` distinct keys."""
    for name, (source, _mfiles) in PROGRAMS.items():
        for i in range(variants):
            outcome = cache.get_or_compile(f"{source}zz_{i} = {i};\n",
                                           name=name, provider=provider)
            assert not outcome.hit
    return provider


def _provider():
    """The two M-files every e2e program may call."""
    return DictProvider(PROGRAMS["mfile_demo"][1])


def _front_end_reachable(roots, caller_owned):
    """Instances of the front end's classes reachable from ``roots``
    through ``gc.get_referents``, not descending into code (modules,
    classes, functions) or into the caller's objects."""
    stop = {id(obj) for obj in caller_owned}
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in stop:
            continue
        seen.add(id(obj))
        if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        if _front_end_class(obj):
            found.append(type(obj).__qualname__)
        stack.extend(gc.get_referents(obj))
    return found


def test_entries_reach_no_ast_types_or_ir():
    cache = CompileCache(disk_root=False)
    # the provider is the caller's: it parses and keeps the M-files it
    # serves whether or not a cache holds anything compiled from them
    provider = _fill(cache, _provider())
    entries = list(cache._entries.values())
    assert len(entries) == 7 * VARIANTS
    assert _front_end_reachable(entries, [provider]) == []


def test_an_entry_costs_a_few_kilobytes():
    """At most 16 KB and 16 GC-tracked objects per entry (about 7 KB
    and 6 objects; an entry that kept the AST, the types and the IR
    held about 100 KB and 800)."""
    provider = _provider()
    # the first compile of each program fills what every later one
    # shares: imported modules, the provider's parsed M-files
    _fill(CompileCache(disk_root=False), provider, variants=1)
    cache = CompileCache(disk_root=False)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracked_before = len(gc.get_objects())
        _fill(cache, provider)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
        tracked = len(gc.get_objects()) - tracked_before
    finally:
        tracemalloc.stop()
    entries = cache.stats()["size"]
    assert entries == 7 * VARIANTS
    assert grown / entries <= 16 * 1024, grown / entries
    assert tracked / entries <= 16, tracked / entries


def test_memory_and_disk_hits_hold_no_front_end(tmp_path):
    cache = CompileCache(disk_root=tmp_path)
    miss = cache.get_or_compile(SRC)
    assert miss.full.ir is not None and miss.full.types is not None
    slim = miss.program
    assert (slim.resolved, slim.types, slim.ir) == (None, None, None)
    assert slim.python_source == miss.full.python_source

    memory = cache.get_or_compile(SRC)
    assert memory.tier == "memory" and memory.full is None
    # the one object the cache holds: its loaded module serves every hit
    assert memory.program is slim
    assert memory.program.ir is None

    disk = CompileCache(disk_root=tmp_path).get_or_compile(SRC)
    assert disk.tier == "disk" and disk.full is None
    assert disk.program.ir is None


@pytest.mark.parametrize("source, mfiles", [
    ("tic;\nx = ones(4, 1);\nt = toc;\n", {}),
    ("x = timed(3);\n",
     {"timed": "function y = timed(a)\ntic;\ny = a + toc;\n"}),
], ids=["script", "mfile"])
def test_both_tiers_know_that_a_program_reads_the_clock(tmp_path, source,
                                                        mfiles):
    """``reads_clock`` (which sends a run to lockstep) is read off the
    emitted module, which a memory and a disk entry both keep."""
    provider = DictProvider(mfiles)
    cache = CompileCache(disk_root=tmp_path)
    miss = cache.get_or_compile(source, provider=provider)
    memory = cache.get_or_compile(source, provider=provider)
    disk = CompileCache(disk_root=tmp_path).get_or_compile(
        source, provider=provider)
    assert (memory.tier, disk.tier) == ("memory", "disk")
    assert miss.full.reads_clock and disk.program.reads_clock
    assert memory.program.reads_clock
    assert not cache.get_or_compile(SRC).program.reads_clock


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_emits_from_a_cached_program_equal_an_uncached_compile(name):
    source, mfiles = PROGRAMS[name]
    provider = DictProvider(mfiles)
    fresh = compile_source(source, provider, name=name)
    cached = CompileCache(disk_root=False).get_or_compile(
        source, name=name, provider=provider).program
    assert cached.c_source == fresh.c_source
    assert cached.ir_dump() == fresh.ir_dump()
    assert cached.matlab_source == fresh.matlab_source
    assert (cached.resolved, cached.types, cached.ir) == (None, None, None)


# ---------------------------------------------------------------------- #
# the passes run once where a caller needs the front end
# ---------------------------------------------------------------------- #


@pytest.fixture
def compiles(monkeypatch):
    """The compile-side plan of every ``OtterCompiler.compile`` call."""
    plans = []
    real = OtterCompiler.compile

    def counting(self, *args, **kwargs):
        plans.append(self.plan)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(OtterCompiler, "compile", counting)
    return plans


@pytest.mark.parametrize("emit", ["c", "ir", "matlab", "python", "project"])
def test_a_cold_compile_command_runs_the_passes_once(tmp_path, compiles,
                                                     emit):
    script = tmp_path / "prog.m"
    script.write_text(SRC)
    out = tmp_path / "out"
    written = out / "main.c" if emit == "project" else out
    argv = ["compile", "--emit", emit, str(script), "-o", str(out)]
    assert main(argv) == 0
    assert len(compiles) == 1
    text = written.read_text()
    # a warm one emits the same text, recompiling only for a front end
    assert main(argv) == 0
    assert len(compiles) == (1 if emit == "python" else 2)
    assert written.read_text() == text


def test_the_tuner_compiles_the_default_front_end_once(tmp_path, compiles):
    """Once with a cold memory cache (the miss's own compile) and once
    with a warm disk tier (a recompile for the axis pruning)."""
    root = tmp_path / "programs"
    previous = set_compile_cache(CompileCache(disk_root=root))
    try:
        cold = tune_program(TUNE_SRC, nprocs=4, budget=4)
        assert compiles.count(None) == 1
        del compiles[:]
        set_compile_cache(CompileCache(disk_root=root))
        warm = tune_program(TUNE_SRC, nprocs=4, budget=4)
        assert compiles.count(None) == 1
    finally:
        set_compile_cache(previous)
    assert [c.plan for c in warm.candidates] == \
        [c.plan for c in cold.candidates]


# ---------------------------------------------------------------------- #
# an unwritable disk tier
# ---------------------------------------------------------------------- #


def test_an_unwritable_disk_tier_warns_once_and_serves_from_memory(
        tmp_path):
    # a root under a regular file: no mode bit a root user ignores
    blocker = tmp_path / "file"
    blocker.write_text("")
    root = blocker / "cache"
    for _instance in range(2):
        cache = CompileCache(disk_root=root)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = cache.get_or_compile(SRC)
            cache.get_or_compile(SRC_B)
            again = cache.get_or_compile(SRC)
        assert [w.category for w in caught] == [RuntimeWarning]
        message = str(caught[0].message)
        assert str(root) in message and "Not a directory" in message
        assert not first.hit and again.hit and again.tier == "memory"
        assert again.program.run(nprocs=2).output.split() == ["32"]
