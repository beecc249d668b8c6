"""Plan semantics: identity, validation, knob plumbing, and the
collective-algorithm cost math the tuner exploits."""

import numpy as np
import pytest

from repro.compiler import (
    clear_compile_cache,
    compile_cache_stats,
    compile_cached,
    compile_source,
)
from repro.mpi.machine import MEIKO_CS2
from repro.runtime.distribution import MAP_CACHE_SIZE, get_geometry
from repro.tuning import DEFAULT_PLAN, FUSION_REWRITES, Plan

LOOP_SRC = """\
n = 24;
a = rand(n, n);
v = rand(n, 1);
for i = 1:4
  w = a' * v;
  v = w / (norm(w) + 1);
  v(1) = v(1) + 1;
end
s = sum(v);
"""


# -- identity ------------------------------------------------------------- #


def test_default_plan_compiles_identically():
    """plan=DEFAULT_PLAN must be byte-for-byte the legacy pipeline."""
    legacy = compile_source(LOOP_SRC)
    planned = compile_source(LOOP_SRC, plan=DEFAULT_PLAN)
    assert legacy.python_source == planned.python_source
    assert legacy.c_source == planned.c_source


def test_plan_keys_distinguish_plans():
    a = Plan()
    b = Plan(licm="safe")
    c = Plan(dist=(("x", "cyclic"),))
    assert len({a.key(), b.key(), c.key()}) == 3
    assert a.key() == Plan().key()          # content hash, not object id
    assert a.key() == DEFAULT_PLAN.key()


def test_compile_key_ignores_runtime_knobs():
    """Plans differing only in runtime knobs share one compilation."""
    compile_only = Plan()
    runtime_only = Plan(scheme="cyclic", gather_algo="doubling",
                        allreduce_algo="halving", cache_gathers=True,
                        dist=(("v", "cyclic"),))
    assert compile_only.compile_key() == runtime_only.compile_key()
    assert Plan(licm="off").compile_key() != compile_only.compile_key()

    clear_compile_cache()
    p1 = compile_cached(LOOP_SRC, plan=compile_only)
    p2 = compile_cached(LOOP_SRC, plan=runtime_only)
    assert p1 is p2
    stats = compile_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_plan_validation():
    with pytest.raises(ValueError):
        Plan(scheme="diagonal")
    with pytest.raises(ValueError):
        Plan(licm="sometimes")
    with pytest.raises(ValueError):
        Plan(guard="nobody")
    with pytest.raises(ValueError, match="duplicate fusion rewrite 'cse'"):
        Plan(fusion=("cse", "cse"))
    with pytest.raises(ValueError, match="unknown fusion rewrite 'csee'; "
                                         "choose from .*'batch_reduce'"):
        Plan(fusion=("csee",))
    with pytest.raises(ValueError):
        Plan(gather_algo="quantum")
    with pytest.raises(ValueError):
        Plan(dist=(("x", "striped"),))


def test_plan_dist_is_canonicalized():
    a = Plan(dist=(("b", "cyclic"), ("a", "block")))
    b = Plan(dist=(("a", "block"), ("b", "cyclic")))
    assert a == b and a.key() == b.key()


def test_summary_and_describe():
    assert DEFAULT_PLAN.summary() == "default"
    p = Plan(licm="off", gather_algo="doubling")
    assert "licm=off" in p.summary()
    assert "gather_algo=doubling" in p.summary()
    assert "licm" in p.describe()


# -- collective-algorithm cost math --------------------------------------- #


@pytest.mark.parametrize("nprocs", [2, 4, 16])
@pytest.mark.parametrize("nbytes", [8, 4096, 10 ** 6])
def test_doubling_gather_never_slower_than_ring(nprocs, nbytes):
    ring = MEIKO_CS2
    doubling = DEFAULT_PLAN.apply_machine(ring)  # default: no change
    assert doubling is ring
    doubling = Plan(gather_algo="doubling").apply_machine(ring)
    for op in ("gather", "scatter", "allgather"):
        assert (doubling.collective_time(op, nbytes, nprocs)
                <= ring.collective_time(op, nbytes, nprocs))


@pytest.mark.parametrize("nprocs", [2, 4, 16])
@pytest.mark.parametrize("nbytes", [0, 8, 4096, 10 ** 6])
def test_halving_allreduce_never_slower_than_tree(nprocs, nbytes):
    tree = MEIKO_CS2
    halving = Plan(allreduce_algo="halving").apply_machine(tree)
    assert (halving.collective_time("allreduce", nbytes, nprocs)
            <= tree.collective_time("allreduce", nbytes, nprocs))


def test_alltoall_keeps_ring_under_doubling():
    """Recursive doubling does not apply to personalized all-to-all."""
    doubling = Plan(gather_algo="doubling").apply_machine(MEIKO_CS2)
    assert (doubling.collective_time("alltoall", 4096, 8)
            == MEIKO_CS2.collective_time("alltoall", 4096, 8))


def test_machine_model_validates_algos():
    import dataclasses
    with pytest.raises(ValueError):
        dataclasses.replace(MEIKO_CS2, gather_algo="bogus")
    with pytest.raises(ValueError):
        dataclasses.replace(MEIKO_CS2, allreduce_algo="bogus")


# -- knob plumbing: every plan value is correct, merely differently paced - #


def _workspace(plan, nprocs=4):
    prog = compile_source(LOOP_SRC, plan=plan)
    result = prog.run(nprocs=nprocs, backend="fused", plan=plan, tune=False)
    return {k: np.asarray(v) for k, v in result.workspace.items()}


@pytest.mark.parametrize("plan", [
    Plan(licm="off"),
    Plan(licm="safe"),
    Plan(guard="replicated"),
    Plan(ew_split=True),
    Plan(fusion=()),
    Plan(fusion=("cse",)),
    Plan(fusion=FUSION_REWRITES),
    Plan(fusion=tuple(reversed(FUSION_REWRITES))),
    # the rewrites before loop_group reversed, loop_group still last
    Plan(fusion=tuple(reversed(FUSION_REWRITES[:-1])) + FUSION_REWRITES[-1:]),
    Plan(scheme="cyclic"),
    Plan(gather_algo="doubling", allreduce_algo="halving"),
], ids=lambda p: p.summary())
def test_every_knob_preserves_numerics(plan):
    ref = _workspace(DEFAULT_PLAN)
    got = _workspace(plan)
    assert set(ref) == set(got)
    for key in ref:
        np.testing.assert_allclose(got[key], ref[key],
                                   rtol=1e-9, atol=1e-12, err_msg=key)


def test_licm_policies_actually_differ():
    aggressive = compile_source(LOOP_SRC, plan=Plan(licm="aggressive"))
    off = compile_source(LOOP_SRC, plan=Plan(licm="off"))
    assert off.licm_stats.hoisted == 0
    assert aggressive.licm_stats.hoisted >= off.licm_stats.hoisted
    safe = compile_source(LOOP_SRC, plan=Plan(licm="safe"))
    assert safe.licm_stats.hoisted <= aggressive.licm_stats.hoisted


def test_ew_split_produces_single_op_trees():
    src = "n = 8;\nu = rand(n, 1);\nw = u + 2 * u .* u - u / 3;\nt = sum(w);"
    fused = compile_source(src)
    split = compile_source(src, plan=Plan(ew_split=True))
    assert split.python_source != fused.python_source
    # split never emits a nested ew tree: every rt.ew call has depth 1
    from repro.ir.nodes import Elementwise, EwNode
    for block in split.ir.walk():
        for stmt in block:
            if isinstance(stmt, Elementwise) and isinstance(stmt.expr, EwNode):
                assert not any(isinstance(a, EwNode)
                               for a in stmt.expr.args), stmt


# -- map-geometry cache --------------------------------------------------- #


def test_map_cache_configure_and_stats():
    get_geometry.cache_clear()
    prog = compile_source("n = 32;\nv = rand(n, 1);\ns = sum(v);")
    prog.run(nprocs=4, backend="fused", tune=False)
    first = get_geometry.cache_info()
    prog.run(nprocs=4, backend="fused", tune=False)
    second = get_geometry.cache_info()
    assert first.maxsize == MAP_CACHE_SIZE == 65536
    assert first.misses > 0                     # first run populated
    assert second.misses == first.misses        # nothing evicted ...
    assert second.hits > first.hits             # ... second run reused it
    assert second.currsize == second.misses < MAP_CACHE_SIZE
