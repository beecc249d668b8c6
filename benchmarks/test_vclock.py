"""Modeled virtual-clock benchmarks: default plan vs. tuned plan.

Where ``test_wallclock.py`` times the *host*, this module records the
*modeled* machine: for the heat stencil and the four paper workloads at
P in {1, 4, 16}, the final virtual clock under the default optimization
plan and under the plan the autotuner picks, written to
``BENCH_vclock.json`` at the repo root.

The assertions pin the autotuner's contract:

* the tuned plan never regresses the default at any rank count (the
  default plan is always candidate 0 of the search);
* at P = 16 the tuner finds a real improvement (> 1% modeled time) on at
  least three of the five workloads — the collective-heavy ones; the
  p2p-dominated stencil legitimately has little to gain;
* the search evaluates the whole plan space the tuner builds for the
  workload (tuning/space.py), up to the budget, in < 10 s host time per
  workload — the fused backend makes candidate evaluation cheap enough
  to sweep.

It also records the modeled scaling of the 2-D stencil workload
(``image_filter`` section): P in {1, 2, 4, 8, 16}, default plan.  The
``image_filter_before`` section is the same sweep at the commit before
row shifts became neighbour exchanges (531c418), kept by hand.  The
``pass6_rewrites`` section is the before/after of pass 6's
collective-removing rewrites on the frozen benchmark programs.
"""

import json
import os
import time

from test_wallclock import HEAT_SOURCE

from repro.bench.workloads import image_filter, make_workload
from repro.compiler import compile_source
from repro.mpi import MEIKO_CS2
from repro.tuning import (DEFAULT_PLAN, FUSION_REWRITES, Plan,
                          enumerate_plans, tune_program)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_vclock.json")

NPROCS = (1, 4, 16)
BUDGET = 64
WORKLOADS = ("heat", "cg", "ocean", "nbody", "closure")

#: at P = 16, at least this many workloads must improve by > 1%
MIN_IMPROVED = 3


def _sources(scale):
    out = {"heat": (HEAT_SOURCE, None)}
    for key in ("cg", "ocean", "nbody", "closure"):
        w = make_workload(key, scale=scale)
        out[key] = (w.source, w.provider)
    return out


def _space_size(source, provider, key, nprocs):
    """``min(BUDGET, size of the plan space)`` the tuner searches for
    ``source`` at ``nprocs``: the axes of the program compiled under the
    default plan, pruned by the collectives its default run makes."""
    program = compile_source(source, provider, name=key)
    counts = program.run(nprocs, MEIKO_CS2,
                         plan=DEFAULT_PLAN).spmd.collective_counts
    # enumerate_plans stops at its budget: the list is the capped space
    return len(enumerate_plans(program, counts, nprocs=nprocs,
                               budget=BUDGET, machine=MEIKO_CS2))


def test_vclock_default_vs_tuned(scale):
    """Sweep every workload at every rank count; record and assert.

    The full sweep (and its < 10 s / whole-space claims) is a
    small-scale property — that is the scale the fused backend makes
    nearly free.  At calibration (paper) scale a single
    candidate evaluation runs the full-size workload, so the sweep is
    reduced to a budget-16 spot check of the never-regress contract.
    """
    if scale != "small":
        cg = make_workload("cg", scale=scale)
        tuned = tune_program(cg.source, nprocs=16, machine=MEIKO_CS2,
                             budget=16, provider=cg.provider, name="cg")
        assert tuned.improvement >= 0.0
        _merge_json({"paper_spot": {
            "workload": "cg", "nprocs": 16, "budget": 16,
            "default_vclock_ms": round(tuned.default.cost * 1e3, 6),
            "tuned_vclock_ms": round(tuned.best.cost * 1e3, 6),
            "improvement_pct": round(100.0 * tuned.improvement, 4),
            "best_plan": tuned.best.summary,
        }})
        return

    entries = {}
    for key, (source, provider) in _sources(scale).items():
        per_p = {}
        for p in NPROCS:
            t0 = time.perf_counter()
            tuned = tune_program(source, nprocs=p, machine=MEIKO_CS2,
                                 budget=BUDGET, provider=provider, name=key)
            host_s = time.perf_counter() - t0
            per_p[str(p)] = {
                "default_vclock_ms": round(tuned.default.cost * 1e3, 6),
                "tuned_vclock_ms": round(tuned.best.cost * 1e3, 6),
                "improvement_pct": round(100.0 * tuned.improvement, 4),
                "best_plan": tuned.best.summary,
                "candidates": len(tuned.candidates),
                "search_host_s": round(host_s, 4),
            }
            # contract: never regress, and the search itself is cheap
            assert tuned.improvement >= 0.0, (key, p)
            assert host_s < 10.0, (key, p, host_s)
            assert len(tuned.candidates) == _space_size(
                source, provider, key, p), (key, p, len(tuned.candidates))
        entries[key] = per_p

    improved = [key for key in WORKLOADS
                if entries[key]["16"]["improvement_pct"] > 1.0]
    assert len(improved) >= MIN_IMPROVED, entries

    _merge_json({
        "machine_model": MEIKO_CS2.name,
        "scale": scale,
        "nprocs": list(NPROCS),
        "budget": BUDGET,
        "workloads": entries,
        "improved_at_16": improved,
    })


IMAGE_NPROCS = (1, 2, 4, 8, 16)


def test_vclock_image_filter():
    """The benchmark's image filter (n = 256, 16 steps — the text of
    benchmarks/e2e/programs/image_filter.m): its row shifts move one
    boundary row per rank, so the modeled time keeps falling with P — at
    least 6x on 16 CPUs (it was 2.2x while each shift allgathered the
    image; measured 7.7x)."""
    program = compile_source(image_filter(n=256, steps=16).source,
                             name="image_filter")
    rows = {}
    for p in IMAGE_NPROCS:
        result = program.run(nprocs=p, machine=MEIKO_CS2, backend="fused")
        assert result.spmd.backend == "fused"
        rows[str(p)] = {
            "vclock_ms": round(result.elapsed * 1e3, 6),
            "messages": result.spmd.messages_sent,
            "bytes": result.spmd.bytes_sent,
            "collectives": result.spmd.collectives,
        }
    clocks = [rows[str(p)]["vclock_ms"] for p in IMAGE_NPROCS]
    assert clocks == sorted(clocks, reverse=True), clocks
    assert clocks[0] / clocks[-1] >= 6.0, clocks
    _merge_json({"image_filter": {
        "machine_model": MEIKO_CS2.name,
        "program": "benchmarks/e2e/programs/image_filter.m",
        "backend": "fused",
        "speedup_at_16": round(clocks[0] / clocks[-1], 3),
        "nprocs": rows,
    }})


#: pass 6 before it learned what costs a collective, and the registry
PASS6_BEFORE = ("transpose_matmul", "cse")
PASS6_PROGRAMS = ("image_filter", "nbody", "ocean", "closure", "heat", "cg")


def test_vclock_pass6_rewrites():
    """What ``const_args``, ``reduce2`` and ``batch_reduce`` take off
    the modeled clock of the frozen benchmark programs: one fused run of
    each of three pass-6 schedules — the one before them, the default
    plan's, and every rewrite of the registry — at P = 4 and 16.
    Programs none of them fires on charge the same, bit for bit."""
    schedules = {"before": PASS6_BEFORE, "default": DEFAULT_PLAN.fusion,
                 "every_rewrite": FUSION_REWRITES}
    rows = {}
    for key in PASS6_PROGRAMS:
        with open(os.path.join(REPO_ROOT, "benchmarks", "e2e", "programs",
                               f"{key}.m"), encoding="utf-8") as fh:
            source = fh.read()
        rows[key] = {}
        for label, fusion in schedules.items():
            plan = Plan(fusion=fusion)
            program = compile_source(source, name=key, plan=plan)
            for p in (4, 16):
                result = program.run(nprocs=p, machine=MEIKO_CS2,
                                     backend="fused", plan=plan)
                rows[key].setdefault(label, {
                    "fired": program.peephole_stats.fired()})[f"P={p}"] = {
                    "machine": MEIKO_CS2.name, "nprocs": p,
                    "vclock_ms": round(result.elapsed * 1e3, 6),
                    "collectives": result.spmd.collectives}
        for p in ("P=4", "P=16"):
            before, default, every = (rows[key][label][p]
                                      for label in schedules)
            assert every["vclock_ms"] <= default["vclock_ms"] \
                <= before["vclock_ms"], (key, p)
            assert every["collectives"] <= default["collectives"] \
                <= before["collectives"], (key, p)
            if not rows[key]["every_rewrite"]["fired"].keys() \
                    - set(PASS6_BEFORE):
                assert every == before, (key, p)
    image = rows["image_filter"]["default"]
    assert image["P=4"]["collectives"] <= 20 >= image["P=16"]["collectives"]
    assert image["P=16"]["vclock_ms"] <= 90.0
    assert image["P=4"]["vclock_ms"] \
        <= 0.96 * rows["image_filter"]["before"]["P=4"]["vclock_ms"]
    _merge_json({"pass6_rewrites": {
        "programs": "benchmarks/e2e/programs/*.m", "backend": "fused",
        "schedules": {label: list(fusion)
                      for label, fusion in schedules.items()},
        "runs": rows,
    }})


def _merge_json(section: dict) -> None:
    """Read-modify-write BENCH_vclock.json (same discipline as
    ``test_wallclock._merge_into_report``, different file)."""
    report = {}
    if os.path.exists(JSON_PATH):
        try:
            with open(JSON_PATH) as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            report = {}
    report.update(section)
    with open(JSON_PATH, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
