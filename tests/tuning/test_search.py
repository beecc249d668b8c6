"""The search driver's contract: tuned never worse than default, budget
respected, memoization effective, and real wins on collective-heavy
programs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler import clear_compile_cache, compile_source
from repro.tuning import (
    DEFAULT_PLAN,
    alignment_classes,
    clear_eval_memo,
    enumerate_plans,
    eval_memo_stats,
    plan_axes,
    tune_program,
)

MATVEC_SRC = """\
n = 48;
A = rand(n, n);
v = rand(n, 1);
for i = 1:4
  v = A * v;
  v = v / (norm(v) + 1);
end
s = sum(v);
"""

_STMT_POOL = [
    "v = a * v;",
    "v = v / (norm(v) + 1);",
    "a = a + a';",
    "v = cumsum(v);",
    "s = sum(v); v = v + s / n;",
    "v = circshift(v, 1);",
    "for i = 1:2\n  v = a * v;\nend",
]


@st.composite
def small_programs(draw):
    n = draw(st.sampled_from([6, 9]))
    stmts = draw(st.lists(st.sampled_from(_STMT_POOL),
                          min_size=1, max_size=3))
    return "\n".join([f"n = {n};", "a = rand(n, n);", "v = rand(n, 1);"]
                     + stmts + ["total = sum(v);"])


# -- the headline property ------------------------------------------------ #


@settings(max_examples=10, deadline=None)
@given(small_programs(), st.sampled_from([2, 4]))
def test_tuned_never_worse_than_default(src, nprocs):
    """For any program, the tuned plan's virtual clock is <= the default
    plan's: the default is always candidate 0 and the winner is the
    argmin over valid candidates."""
    tuned = tune_program(src, nprocs=nprocs, budget=16)
    assert tuned.best.cost <= tuned.default.cost
    assert tuned.improvement >= 0.0
    assert tuned.default.plan == DEFAULT_PLAN


# -- mechanics ------------------------------------------------------------ #


def test_budget_is_respected():
    for budget in (1, 3, 10):
        tuned = tune_program(MATVEC_SRC, nprocs=4, budget=budget)
        assert 1 <= len(tuned.candidates) <= budget


def test_eval_memo_serves_repeat_searches():
    clear_eval_memo()
    clear_compile_cache()
    first = tune_program(MATVEC_SRC, nprocs=4, budget=12)
    assert not any(c.cached for c in first.candidates)
    again = tune_program(MATVEC_SRC, nprocs=4, budget=12)
    assert all(c.cached for c in again.candidates)
    assert eval_memo_stats()["hits"] >= len(again.candidates)
    # same objective either way
    assert again.best.cost == first.best.cost


def test_search_from_a_disk_tier_hit_matches_the_cold_search(tmp_path):
    """The tuner shares the process cache's disk tier: a rehydrated
    default program (no IR) must prune and search exactly as a freshly
    compiled one, and the winner must run under its full plan."""
    from repro.service.cache import CompileCache, set_compile_cache

    def search():
        clear_eval_memo()
        previous = set_compile_cache(CompileCache(disk_root=tmp_path))
        try:
            tuned = tune_program(MATVEC_SRC, nprocs=16, budget=24)
            run = tuned.best_program.run(nprocs=16, backend="fused",
                                         plan=tuned.best.plan, tune=False)
            return tuned, run.elapsed
        finally:
            set_compile_cache(previous)

    cold, cold_elapsed = search()
    assert cold.compile_memo["compiles"] >= 1
    warm, warm_elapsed = search()
    assert warm.compile_memo["compiles"] == 0
    assert warm.compile_memo["disk_hits"] >= 1
    assert [c.plan for c in warm.candidates] == \
        [c.plan for c in cold.candidates]
    assert [c.cost for c in warm.candidates] == \
        [c.cost for c in cold.candidates]
    assert warm_elapsed == cold_elapsed == cold.best.cost


def test_collective_heavy_program_strictly_improves_at_16():
    """At P=16 the matvec loop allgathers every iteration; recursive
    doubling must beat the modeled ring/sequential-root library."""
    tuned = tune_program(MATVEC_SRC, nprocs=16, budget=64)
    assert tuned.improvement > 0.01
    assert tuned.best.plan.gather_algo == "doubling"
    # and the winner's numerics were checked against the default's
    assert tuned.best.valid


def test_failed_program_reports_without_searching():
    # compiles fine, dies at run time (index out of range)
    tuned = tune_program("v = rand(4, 1);\ns = v(9);", nprocs=4, budget=8)
    assert len(tuned.candidates) == 1
    assert not np.isfinite(tuned.default.cost)
    assert tuned.best is tuned.default
    assert tuned.improvement == 0.0


def test_uncompilable_program_raises():
    import pytest

    from repro.errors import OtterError
    with pytest.raises(OtterError):
        tune_program("undefined_function_xyz(3);", nprocs=4, budget=8)


def test_tune_result_json_roundtrip():
    tuned = tune_program(MATVEC_SRC, nprocs=4, budget=8)
    payload = tuned.to_json()
    assert payload["default_vclock"] >= payload["tuned_vclock"]
    assert payload["best_plan"]["scheme"] in ("block", "cyclic")
    assert len(payload["candidates"]) == len(tuned.candidates)
    assert "plan search" in tuned.report()


# -- hygiene: the search costs plans, nothing else ------------------------ #


def _facts(tuned):
    return [(c.summary, c.cost, c.valid, c.error) for c in tuned.candidates], \
        tuned.best.summary


def _spy_on_run_spmd(monkeypatch):
    import repro.compiler
    from repro.mpi import executor

    seen = []

    def spy(*args, config, **kwargs):
        seen.append(config)
        return executor.run_spmd(*args, config=config, **kwargs)

    monkeypatch.setattr(repro.compiler, "run_spmd", spy)
    return seen


def test_search_ignores_the_environment(monkeypatch):
    import threading

    import repro.trace
    from repro.runconfig import RunConfig

    for name in ("REPRO_TRACE", "REPRO_ON_FAULT", "REPRO_WATCHDOG_SECONDS",
                 "REPRO_SPMD_BACKEND"):
        monkeypatch.delenv(name, raising=False)
    clear_eval_memo()
    scrubbed = _facts(tune_program(MATVEC_SRC, nprocs=4, budget=8))

    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_ON_FAULT", "degrade")
    monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "30")
    monkeypatch.setenv("REPRO_SPMD_BACKEND", "lockstep")

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the search built a trace or armed a timer")

    monkeypatch.setattr(repro.trace, "WorldTrace", forbidden)
    monkeypatch.setattr(threading, "Timer", forbidden)
    seen = _spy_on_run_spmd(monkeypatch)
    clear_eval_memo()
    tuned = tune_program(MATVEC_SRC, nprocs=4, budget=8)
    assert _facts(tuned) == scrubbed
    assert not any(c.cached for c in tuned.candidates)
    assert len(seen) == len(tuned.candidates)
    assert set(seen) == {RunConfig(backend="fused")}


def test_fault_plan_reaches_the_final_run_only(monkeypatch):
    """``run(tune=True, fault_plan=...)`` searches fault-free; the memo
    it leaves behind answers a later fault-free search exactly as a
    fresh process would compute it."""
    import pytest

    from repro.bench.workloads import make_workload
    from repro.errors import RankCrashedError

    cg = make_workload("cg", scale="small")
    clear_eval_memo()
    fresh = _facts(tune_program(cg.source, nprocs=4, budget=8,
                                provider=cg.provider, name="cg"))
    assert len(fresh[0]) == 8 and all(err is None for *_, err in fresh[0])

    clear_eval_memo()
    seen = _spy_on_run_spmd(monkeypatch)
    program = compile_source(cg.source, cg.provider, name="cg")
    with pytest.raises(RankCrashedError):
        program.run(nprocs=4, tune=True, tune_budget=8,
                    fault_plan="seed=7; crash rank=1 step=3")
    assert [c.fault_plan is not None for c in seen] == [False] * 8 + [True]
    after = tune_program(cg.source, nprocs=4, budget=8,
                         provider=cg.provider, name="cg")
    assert all(c.cached for c in after.candidates)
    assert _facts(after) == fresh


def test_eval_memo_tells_providers_and_seeds_apart():
    from repro.frontend.mfile import DictProvider

    src = ("n = 8;\nv = rand(n, 1);\nw = f(v);\n"
           "for i = 1:2\n  w = w / (norm(w) + 1);\nend\ns = sum(w);\n")
    one = DictProvider({"f": "function y = f(x)\ny = x + 1;\n"})
    two = DictProvider({"f": "function y = f(x)\ny = cumsum(x);\n"})
    clear_eval_memo()
    clear_compile_cache()
    first = tune_program(src, nprocs=4, budget=4, provider=one)
    other = tune_program(src, nprocs=4, budget=4, provider=two)
    assert not any(c.cached for c in other.candidates)
    assert other.default.cost != first.default.cost
    reseeded = tune_program(src, nprocs=4, budget=4, provider=one, seed=1)
    assert not any(c.cached for c in reseeded.candidates)
    again = tune_program(src, nprocs=4, budget=4, provider=one)
    assert all(c.cached for c in again.candidates)
    assert _facts(again) == _facts(first)


def test_substrate_failures_are_reported_but_never_memoised(monkeypatch):
    import repro.compiler
    from repro.errors import SpmdWatchdogError

    def expired(*_args, **_kwargs):
        raise SpmdWatchdogError("SPMD watchdog expired after 1s host time")

    clear_eval_memo()
    with monkeypatch.context() as patched:
        patched.setattr(repro.compiler, "run_spmd", expired)
        tuned = tune_program(MATVEC_SRC, nprocs=4, budget=4)
    assert len(tuned.candidates) == 1
    assert tuned.default.error.startswith("SpmdWatchdogError")
    assert eval_memo_stats()["size"] == 0
    healthy = tune_program(MATVEC_SRC, nprocs=4, budget=4)
    assert np.isfinite(healthy.default.cost)
    assert not any(c.cached for c in healthy.candidates)
    # a failure that *is* the program's stays memoised
    broken = "v = rand(4, 1);\ns = v(9);"
    tune_program(broken, nprocs=4, budget=4)
    assert tune_program(broken, nprocs=4, budget=4).default.cached


# -- enumeration ---------------------------------------------------------- #


def test_enumerate_plans_default_first_unique_deterministic():
    program = compile_source(MATVEC_SRC)
    plans_a = enumerate_plans(program, None, nprocs=4, budget=32)
    plans_b = enumerate_plans(program, None, nprocs=4, budget=32)
    assert plans_a == plans_b
    assert plans_a[0] == DEFAULT_PLAN
    keys = [p.key() for p in plans_a]
    assert len(keys) == len(set(keys))
    assert len(plans_a) <= 32


def test_plan_axes_prune_on_probe_counts():
    program = compile_source(MATVEC_SRC)
    # no collectives observed -> no collective-algorithm axes
    axes = plan_axes(program, {"allgather": 0, "allreduce": 0}, nprocs=4)
    assert "gather_algo" not in axes
    assert "allreduce_algo" not in axes
    # observed -> axes present
    axes = plan_axes(program, {"allgather": 3, "allreduce": 2}, nprocs=4)
    assert "gather_algo" in axes
    assert "allreduce_algo" in axes
    # serial runs have no distribution or collective axes at all
    axes = plan_axes(program, None, nprocs=1)
    assert "dist" not in axes and "gather_algo" not in axes


FUSION_SRC = """\
A = rand(12, 12); x = rand(12, 1); y = rand(12, 1);
g = A' * x;
B = circshift(A, [1, 0]);
t = sum(sum(B));
a = mean(x);
b = mean(y);
"""


def test_fusion_axis_is_derived_from_the_rewrite_registry():
    """For every rewrite that fired, the schedule without it; for every
    rewrite the default leaves out, the schedule with it — if it would
    fire; and pass 6 off."""
    program = compile_source(FUSION_SRC)
    assert program.peephole_stats.fired() == {
        "transpose_matmul": 1, "const_args": 1, "reduce2": 1}
    default = DEFAULT_PLAN.fusion
    assert plan_axes(program, None, nprocs=1)["fusion"] == [
        {"fusion": tuple(r for r in default if r != "transpose_matmul")},
        {"fusion": tuple(r for r in default if r != "const_args")},
        {"fusion": tuple(r for r in default if r != "reduce2")},
        {"fusion": (*default, "batch_reduce")},
        {"fusion": ()},
    ]
    # nothing fires, nothing would: no axis
    assert "fusion" not in plan_axes(compile_source("x = 1 + 2;"), None,
                                     nprocs=1)
    # only a rewrite outside the default would: that one candidate
    lone = compile_source("x = rand(9, 1); y = rand(9, 1);\n"
                          "a = max(x);\nb = max(y);")
    assert plan_axes(lone, None, nprocs=1)["fusion"] == [
        {"fusion": (*default, "batch_reduce")}]
    # ... and probing for it left the program's IR alone
    assert "reduce_batch" not in lone.ir_dump()


def test_search_finds_the_rewrite_the_default_plan_leaves_out():
    """Three adjacent means (nbody's lines 17-19): two of the three
    allreduces go, and the tuner says so."""
    src = ("n = 400; x = rand(n, 1); y = rand(n, 1); z = rand(n, 1);\n"
           "for s = 1:4\n cx = mean(x);\n cy = mean(y);\n cz = mean(z);\n"
           " x = x + cx; y = y + cy; z = z + cz;\nend\n")
    result = tune_program(src, nprocs=16, budget=16)
    assert "batch_reduce" in result.best.plan.fusion
    assert result.best.valid and result.improvement > 0.3
    assert "batch_reduce" in result.report()


def test_alignment_classes_group_interacting_names():
    program = compile_source(MATVEC_SRC)
    classes = alignment_classes(program.ir)
    by_name = {name: cls for cls in classes for name in cls}
    # A and v interact through the matvec: same class
    assert by_name["A"] == by_name["v"]


def test_run_with_tune_returns_tuned_result():
    program = compile_source(MATVEC_SRC)
    result = program.run(nprocs=4, backend="fused", tune=True,
                         tune_budget=8)
    assert result.tune is not None
    assert len(result.tune.candidates) <= 8
    # the run itself executed under the winning plan
    assert result.spmd.elapsed <= result.tune.default.cost + 1e-12


# -- topology-aware axes (modern machine profiles) ------------------------- #


def test_hierarchy_axis_requires_multi_node_machine():
    from repro.mpi import FATTREE_CLUSTER, MEIKO_CS2

    program = compile_source(MATVEC_SRC)
    counts = {"allgather": 3, "allreduce": 2}
    # Meiko is a single 16-CPU node: no hierarchy knob to turn
    axes = plan_axes(program, counts, nprocs=16, machine=MEIKO_CS2)
    assert "hierarchy" not in axes
    # no machine given -> no topology evidence -> no axis
    axes = plan_axes(program, counts, nprocs=16)
    assert "hierarchy" not in axes
    # fat tree at P=64 spans nodes: the flat deviation is offered
    axes = plan_axes(program, counts, nprocs=64, machine=FATTREE_CLUSTER)
    assert axes["hierarchy"] == [{"hierarchy": "flat"}]
    # but not when the whole world fits on one 32-core node
    axes = plan_axes(program, counts, nprocs=16, machine=FATTREE_CLUSTER)
    assert "hierarchy" not in axes
    # and not without any collectives to reroute
    axes = plan_axes(program, {"allgather": 0}, nprocs=64,
                     machine=FATTREE_CLUSTER)
    assert "hierarchy" not in axes


def test_enumerate_plans_explores_hierarchy_on_fattree():
    from repro.mpi import FATTREE_CLUSTER

    program = compile_source(MATVEC_SRC)
    plans = enumerate_plans(program, None, nprocs=64, budget=64,
                            machine=FATTREE_CLUSTER)
    assert any(p.hierarchy == "flat" for p in plans)
    # without the machine the knob never appears
    plans = enumerate_plans(program, None, nprocs=64, budget=64)
    assert all(p.hierarchy == "auto" for p in plans)


def test_tuned_never_worse_on_modern_profile():
    """The headline guarantee holds on the fat-tree profile too, with the
    hierarchy axis in play at a node-spanning P."""
    from repro.mpi import FATTREE_CLUSTER

    tuned = tune_program(MATVEC_SRC, nprocs=64, budget=24,
                         machine=FATTREE_CLUSTER)
    assert tuned.best.cost <= tuned.default.cost
    assert tuned.improvement >= 0.0
    assert tuned.best.valid
    # the search actually considered a flat-hierarchy candidate
    assert any(c.plan.hierarchy == "flat" for c in tuned.candidates)
