"""Host wall-clock benchmarks of the simulation substrate itself.

Everything else in ``benchmarks/`` reports *modeled* (virtual) seconds;
this module times the *host* — how long compiling and running a workload
actually takes on the machine executing the test suite.  That is the
quantity the vectorized-payload work optimizes, and emitting it to
``BENCH_wallclock.json`` gives subsequent PRs a perf trajectory.

Four kinds of checks:

* ``test_wallclock_trajectory`` — times compile+run for the
  heat-diffusion stencil and the four paper workloads at P in {1, 4, 16}
  and writes ``BENCH_wallclock.json`` at the repo root.
* ``test_nprocs_scaling_sweep`` — the lockstep-scheduler sweep: host
  seconds (and host seconds *per simulated rank*) for every paper
  workload at P in {1, 2, 4, 8, 16}, recorded in the JSON's
  ``nprocs_scaling`` section.  Host cost at large P is dominated by each
  rank re-executing the program's Python control flow — inherent to SPMD
  simulation — so the per-rank metric is the one the scheduler drives
  toward "nearly free".
* ``test_fused_vs_lockstep_sweep`` — the rank-fused backend's contract:
  one pass stands in for all P ranks, so host wall-clock at P = 16 must
  stay within 2x of P = 1 for the heat/cg/ocean workloads (lockstep
  grows roughly linearly in P).  Recorded in the JSON's
  ``fused_vs_lockstep`` section alongside the speedup ratios.
* ``test_scheduler_substrate_overhead`` — isolates the communication
  substrate (collectives and ring exchanges with trivial compute) and
  compares the lockstep and fused backends head-to-head at P = 16;
  fused must win outright on rank-agnostic collective traffic (it folds
  the exchange in-process).  The JSON's
  ``scheduler_substrate_ms_p16_before`` keeps the last row that still
  had the free-running ``threads`` backend in it — the measurement
  that backend was deleted on.
* ``test_alltoall_payload_walk_is_o1`` — pins the structural property
  that makes the hot path fast: the number of ``sizeof`` payload walks
  per alltoall message does not grow with the element count (payloads
  are flat array pairs, sized via ``.nbytes`` in O(1)).
* ``test_trace_marker_overhead`` — the ``_c.line = N`` source-line
  markers the trace layer relies on must stay plain attribute stores
  when tracing is disabled (the ``trace=None`` default): asserted
  structurally (no descriptor may hide code behind ``line``), with an
  A/B against a marker-stripped clone recorded in the JSON's
  ``trace_overhead`` section as a gross-regression tripwire.

All JSON writes are read-modify-write so the tests may run in any order
(or singly) without clobbering each other's sections.
"""

import json
import os
import platform
import time

import numpy as np

from repro.bench.workloads import make_workload
from repro.compiler import OtterCompiler
from repro.mpi import MEIKO_CS2, run_spmd
from repro.runtime.context import RuntimeContext

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_wallclock.json")

NPROCS = (1, 4, 16)

#: the scheduler sweep: every power of two up to the Meiko's 16 CPUs
SWEEP_NPROCS = (1, 2, 4, 8, 16)

#: the heat-diffusion stencil of examples/heat_diffusion.py — the
#: workload whose messaging overhead motivated the vectorized payloads
HEAT_SOURCE = """\
n = 4000;
steps = 150;
x = linspace(0, 2*pi, n);
u = sin(x) + 0.5 * sin(3 * x);
alpha = 0.2;
e0 = sum(u .* u);
for s = 1:steps
    left = circshift(u, 1);
    right = circshift(u, -1);
    u = u + alpha * (left - 2 * u + right);
end
e1 = sum(u .* u);
fprintf('energy %.6f -> %.6f (decay %.4f)\\n', e0, e1, e1 / e0);
"""


def _merge_into_report(section: dict) -> None:
    """Read-modify-write BENCH_wallclock.json: update only the keys this
    test owns, preserving sections written by the other tests."""
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


def _host_line() -> str:
    """Where the numbers next to it were measured (ROADMAP aim 1: no
    host-time row without the machine recorded beside it)."""
    return (f"{platform.machine()} {platform.system()} "
            f"{platform.release()}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}, numpy {np.__version__}")


def _time_workload(key, source, provider=None):
    t0 = time.perf_counter()
    program = OtterCompiler(provider=provider).compile(source, name=key)
    compile_s = time.perf_counter() - t0
    runs = {}
    for p in NPROCS:
        t0 = time.perf_counter()
        result = program.run(nprocs=p, machine=MEIKO_CS2)
        runs[str(p)] = round(time.perf_counter() - t0, 4)
        assert result.elapsed > 0
    return {"compile_s": round(compile_s, 4), "run_s": runs}


def test_wallclock_trajectory(scale):
    """Time compile+run for the stencil and the four paper workloads,
    and emit BENCH_wallclock.json for the perf trajectory."""
    entries = {"heat": _time_workload("heat", HEAT_SOURCE)}
    for key in ("cg", "ocean", "nbody", "closure"):
        w = make_workload(key, scale=scale)
        entries[key] = _time_workload(key, w.source, provider=w.provider)
    _merge_into_report({
        "machine_model": MEIKO_CS2.name,
        "scale": scale,
        "nprocs": list(NPROCS),
        "workloads": entries,
        "total_wall_s": round(sum(
            e["compile_s"] + sum(e["run_s"].values())
            for e in entries.values()), 4),
    })
    for key, entry in entries.items():
        assert entry["compile_s"] > 0, key
        assert all(t > 0 for t in entry["run_s"].values()), key


def test_nprocs_scaling_sweep(scale):
    """Sweep P = 1..16 under the lockstep scheduler and record what one
    extra simulated rank actually costs on the host.

    Honest accounting: total host time DOES grow with P, because each of
    the P ranks re-executes the whole program's Python control flow —
    that re-execution, not scheduling, dominates (profiling shows
    per-rank CPU time ~= wall at P = 16).  What the scheduler makes
    nearly free is everything *around* the program: handoffs replace
    condvar broadcasts and timeout polling, so host-seconds-per-rank
    *falls* as P grows.  Both numbers are recorded; the assertion pins
    the per-rank trend, which is the scheduler's actual contract.
    """
    entries = {}
    sources = {"heat": (HEAT_SOURCE, None)}
    for key in ("cg", "ocean", "nbody", "closure"):
        w = make_workload(key, scale=scale)
        sources[key] = (w.source, w.provider)
    for key, (source, provider) in sources.items():
        program = OtterCompiler(provider=provider).compile(source, name=key)
        wall = {}
        for p in SWEEP_NPROCS:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                result = program.run(nprocs=p, machine=MEIKO_CS2,
                                     backend="lockstep")
                best = min(best, time.perf_counter() - t0)
            assert result.elapsed > 0
            wall[str(p)] = round(best, 4)
        per_rank = {str(p): round(wall[str(p)] / p, 5) for p in SWEEP_NPROCS}
        entries[key] = {
            "wall_s": wall,
            "wall_s_per_rank": per_rank,
            "p16_over_p1": round(wall["16"] / wall["1"], 2),
        }
    # the scheduler contract: an extra simulated rank is cheaper than a
    # full re-run.  Asserted on the aggregate across workloads — the
    # per-workload numbers (recorded below) include single-digit-ms runs
    # whose timing is dominated by host noise under suite load.
    total_p1 = sum(e["wall_s"]["1"] for e in entries.values())
    total_p16_per_rank = sum(e["wall_s"]["16"] for e in entries.values()) / 16
    assert total_p16_per_rank < total_p1, (
        f"per-rank host cost did not amortize: {entries}")
    _merge_into_report({
        "nprocs_scaling": {
            "backend": "lockstep",
            "nprocs": list(SWEEP_NPROCS),
            "metric": "min-of-2 host seconds (and per simulated rank)",
            "workloads": entries,
        },
    })


def test_fused_vs_lockstep_sweep(scale):
    """Sweep P = 1..16 on both the lockstep and fused backends and pin
    the tentpole claim: fused executes the generated program ONCE, so
    its host cost is nearly flat in P while lockstep re-runs the whole
    program P times.

    The assertion is the acceptance bar from the performance-model
    contract: fused P = 16 within 2x of fused P = 1 for heat, cg, and
    ocean.  Every run is also checked to have genuinely stayed fused
    (no silent lockstep fallback padding the numbers) and to report the
    same modeled elapsed time as lockstep — accounting equivalence is
    asserted exhaustively in tests/, but re-checking the headline here
    keeps the benchmark honest.
    """
    sources = {"heat": (HEAT_SOURCE, None)}
    for key in ("cg", "ocean"):
        w = make_workload(key, scale=scale)
        sources[key] = (w.source, w.provider)
    entries = {}
    for key, (source, provider) in sources.items():
        program = OtterCompiler(provider=provider).compile(source, name=key)
        wall = {"lockstep": {}, "fused": {}}
        for p in SWEEP_NPROCS:
            modeled = {}
            for backend in ("lockstep", "fused"):
                best = float("inf")
                for _ in range(3):
                    t0 = time.perf_counter()
                    result = program.run(nprocs=p, machine=MEIKO_CS2,
                                         backend=backend)
                    best = min(best, time.perf_counter() - t0)
                if backend == "fused":
                    assert result.spmd.backend == "fused", (key, p)
                modeled[backend] = result.elapsed
                wall[backend][str(p)] = round(best, 4)
            assert modeled["fused"] == modeled["lockstep"], (key, p)
        ratio = round(wall["fused"]["16"] / wall["fused"]["1"], 2)
        entries[key] = {
            "lockstep_wall_s": wall["lockstep"],
            "fused_wall_s": wall["fused"],
            "fused_p16_over_p1": ratio,
            "speedup_at_p16": round(
                wall["lockstep"]["16"] / wall["fused"]["16"], 2),
        }
        assert wall["fused"]["16"] <= 2.0 * wall["fused"]["1"], (
            f"{key}: fused P=16 host cost not within 2x of P=1: {entries}")
    _merge_into_report({
        "fused_vs_lockstep": {
            "nprocs": list(SWEEP_NPROCS),
            "metric": "min-of-3 host seconds",
            "host": _host_line(),
            "workloads": entries,
        },
    })


#: the large-world sweep: node-spanning powers of four on the fat tree
SCALING_NPROCS = (16, 64, 256, 1024)


def test_fused_scaling_sweep(scale):
    """The P=1024 scaling claim: with per-rank accounting vectorized into
    numpy arrays, the fused backend's host cost per *simulated rank*
    must not blow up as the world grows — one program pass plus O(P)
    array arithmetic, never O(P) Python loops.

    Sweeps heat/cg/ocean at P in {16, 64, 256, 1024} on the fat-tree
    cluster profile (the 1997 machines cap at 16 CPUs), asserts every
    run genuinely stayed fused, and pins the acceptance bar: host
    seconds per simulated rank at P = 1024 within 4x of P = 16.
    Recorded in the JSON's ``fused_scaling`` section.
    """
    from repro.mpi import FATTREE_CLUSTER

    sources = {"heat": (HEAT_SOURCE, None)}
    for key in ("cg", "ocean"):
        w = make_workload(key, scale=scale)
        sources[key] = (w.source, w.provider)
    entries = {}
    for key, (source, provider) in sources.items():
        program = OtterCompiler(provider=provider).compile(source, name=key)
        wall = {}
        vclock = {}
        for p in SCALING_NPROCS:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                result = program.run(nprocs=p, machine=FATTREE_CLUSTER,
                                     backend="fused")
                best = min(best, time.perf_counter() - t0)
            assert result.spmd.backend == "fused", (key, p)
            wall[str(p)] = round(best, 4)
            vclock[str(p)] = result.elapsed
        per_rank = {str(p): round(wall[str(p)] / p, 6)
                    for p in SCALING_NPROCS}
        entries[key] = {
            "fused_wall_s": wall,
            "wall_s_per_rank": per_rank,
            "per_rank_p1024_over_p16": round(
                per_rank["1024"] / per_rank["16"], 3),
            "modeled_s": {p: round(t, 6) for p, t in vclock.items()},
        }
        assert per_rank["1024"] <= 4.0 * per_rank["16"], (
            f"{key}: per-rank host cost blew up at P=1024: {entries}")
    _merge_into_report({
        "fused_scaling": {
            "machine_model": FATTREE_CLUSTER.name,
            "backend": "fused",
            "nprocs": list(SCALING_NPROCS),
            "metric": "min-of-2 host seconds (and per simulated rank)",
            "host": _host_line(),
            "workloads": entries,
        },
    })


def test_native_kernels_sweep(scale):
    """The native-tier acceptance bar: fused-backend host wall-clock for
    the elementwise-dominated image-filtering workload must improve
    >= 1.5x with the JIT kernel tier on, bit-identically, and warm runs
    must perform zero recompiles.

    Sweeps heat/cg/ocean/image_filter at P in {1, 4, 16} on the fused
    backend with the tier forced off vs required, min-of-3 each way.
    Every native run is checked against the off run for identical
    output and modeled time (the tier is host-time-only by contract),
    and the warm-cache claim is pinned via the per-run engine counters:
    after the first `require` run, later runs compile nothing and never
    re-read the disk cache.  Only the image filter carries the speedup
    assertion — cg/ocean are dominated by GEMM/reductions, not
    elementwise chains, and their (honest, possibly ~1x) ratios are
    recorded for the trajectory.  Recorded in the JSON's
    ``native_kernels`` section.
    """
    import pytest

    from repro.bench.workloads import image_filter
    from repro.native import get_engine

    if not get_engine().available:
        pytest.skip("no C compiler / cffi: native tier unavailable")

    sources = {
        "image_filter": (image_filter(n=512, steps=8).source, None),
        "heat": (HEAT_SOURCE, None),
    }
    for key in ("cg", "ocean"):
        w = make_workload(key, scale=scale)
        sources[key] = (w.source, w.provider)
    entries = {}
    for key, (source, provider) in sources.items():
        program = OtterCompiler(provider=provider).compile(source, name=key)
        # cold run: compiles (or disk-loads) every kernel once
        cold = program.run(nprocs=4, machine=MEIKO_CS2, backend="fused",
                           native="require")
        wall = {"off": {}, "native": {}}
        speedup = {}
        warm_compiles = 0
        warm_disk = 0
        for p in NPROCS:
            results = {}
            for mode, label in (("off", "off"), ("require", "native")):
                best = float("inf")
                for _ in range(3):
                    t0 = time.perf_counter()
                    result = program.run(nprocs=p, machine=MEIKO_CS2,
                                         backend="fused", native=mode)
                    best = min(best, time.perf_counter() - t0)
                results[label] = result
                wall[label][str(p)] = round(best, 4)
                if label == "native":
                    warm_compiles += result.native["compiles"]
                    warm_disk += result.native["disk_hits"]
            # the tier is host-time-only: output and virtual clock are
            # bit-identical with the numpy path
            assert results["off"].output == results["native"].output, (key, p)
            assert results["off"].elapsed == results["native"].elapsed, \
                (key, p)
            assert results["native"].native["native_calls"] > 0, (key, p)
            speedup[str(p)] = round(
                wall["off"][str(p)] / wall["native"][str(p)], 2)
        # warm-cache contract: after the cold run every kernel is
        # resident in process — zero compiles, zero disk loads
        assert warm_compiles == 0, (key, warm_compiles)
        assert warm_disk == 0, (key, warm_disk)
        entries[key] = {
            "off_wall_s": wall["off"],
            "native_wall_s": wall["native"],
            "speedup": speedup,
            "best_speedup": max(speedup.values()),
            "native_calls_per_run": cold.native["native_calls"],
            "kernels": cold.native["kernels"],
        }
    best = entries["image_filter"]["best_speedup"]
    assert best >= 1.5, (
        f"native tier under the acceptance bar on the elementwise-dominated "
        f"workload: best image-filter speedup {best}x < 1.5x: {entries}")
    _merge_into_report({
        "native_kernels": {
            "backend": "fused",
            "nprocs": list(NPROCS),
            "metric": "min-of-3 host seconds, native off vs require",
            "image_filter_size": {"n": 512, "steps": 8},
            "warm_recompiles": 0,
            "workloads": entries,
        },
    })


def _substrate_programs():
    def collectives(comm):
        for _ in range(200):
            comm.allreduce(1.0)

    def ring(comm):
        buf = np.zeros(8)
        for _ in range(200):
            buf = comm.sendrecv(buf, dest=(comm.rank + 1) % comm.size,
                                source=(comm.rank - 1) % comm.size)

    return {"allreduce_x200": collectives, "ring_sendrecv_x200": ring}


def test_scheduler_substrate_overhead():
    """Head-to-head on the bare communication substrate at P = 16:
    the lockstep scheduler's baton handoffs vs the fused in-process
    facade.  Fused must beat lockstep outright on the rank-agnostic
    collective program — it folds the exchange in-process with zero
    scheduling.  The ring program reads
    ``comm.rank``, so under fused it exercises the divergence fallback:
    its recorded time is one aborted fused attempt plus a full lockstep
    run, pinned to stay within noise of plain lockstep."""
    timings = {}
    for name, prog in _substrate_programs().items():
        row = {}
        for backend in ("lockstep", "fused"):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                run_spmd(16, MEIKO_CS2, prog, backend=backend)
                best = min(best, time.perf_counter() - t0)
            row[backend] = round(best * 1e3, 2)
        timings[name] = row
    # the collective program never observes rank: fused runs it once
    assert timings["allreduce_x200"]["fused"] < \
        timings["allreduce_x200"]["lockstep"], timings
    # the ring program diverges immediately: fallback cost ~= lockstep
    assert timings["ring_sendrecv_x200"]["fused"] < \
        timings["ring_sendrecv_x200"]["lockstep"] * 1.5, timings
    _merge_into_report({
        "scheduler_substrate_ms_p16": {
            "metric": "min-of-3 host milliseconds, 16 ranks",
            "host": _host_line(),
            "programs": timings,
        },
    })


def _count_sizeof_walks(n, monkeypatch):
    """Run one alltoall-fallback circshift on an n-element vector and
    return how many times the comm layer walked a payload."""
    from repro.mpi import comm as comm_mod
    from repro.mpi import datatypes as dt_mod

    real_sizeof = dt_mod.sizeof
    calls = {"n": 0}

    def counting_sizeof(obj):
        calls["n"] += 1
        return real_sizeof(obj)

    # patch both entry points: comm holds a direct reference, and the
    # recursive walk inside sizeof resolves through datatypes' globals —
    # so every payload-tree node visited is counted exactly once
    monkeypatch.setattr(comm_mod, "sizeof", counting_sizeof)
    monkeypatch.setattr(dt_mod, "sizeof", counting_sizeof)

    def fn(comm):
        rt = RuntimeContext(comm, seed=1)
        v = rt.rand(float(n), 1.0)
        # a shift of n/2 exceeds every block: forced alltoall fallback
        rt.circshift(v, float(n // 2))

    run_spmd(4, MEIKO_CS2, fn)
    return calls["n"]


def test_trace_marker_overhead():
    """The trace layer's compile-time cost with tracing DISABLED: the
    emitted ``_c.line = N`` markers (one attribute store per source
    statement) vs a clone of the same program with every marker stripped
    out.

    The true cost is far below this host's timing noise — heat executes
    ~11k marker stores (~0.5 ms) in a ~190 ms run, i.e. ~0.3%, while
    identical back-to-back runs here differ by 4-8% under load bursts
    (the previously recorded ratio of 0.94, markers *faster* than no
    markers, is that noise).  No wall-clock bar can resolve 0.3% inside
    that, so the contract is asserted structurally — ``line`` must stay
    a plain instance attribute on every comm class, never a property or
    other descriptor that would put code behind each marker — and the
    timed A/B (order-alternated paired ratios, median) is kept as a
    gross-regression tripwire at 15% plus the perf trajectory record in
    BENCH_wallclock.json."""
    import dataclasses
    import re

    from repro.mpi.comm import Comm
    from repro.mpi.fused import FusedComm

    # structural contract: `_c.line = N` must be a bare attribute store
    for cls in (Comm, FusedComm):
        for klass in cls.__mro__:
            desc = klass.__dict__.get("line")
            assert desc is None or not hasattr(desc, "__set__"), (
                f"{cls.__name__}.line became a data descriptor "
                f"({desc!r}); markers are no longer plain stores")

    source = HEAT_SOURCE.replace("steps = 150;", "steps = 450;")
    assert "steps = 450;" in source
    program = OtterCompiler().compile(source, name="heat")
    stripped_source = re.sub(
        r"^[ \t]*_c(?:\.line = \d+| = rt\.comm)\n", "",
        program.python_source, flags=re.MULTILINE)
    assert "_c.line" in program.python_source
    assert "_c.line" not in stripped_source
    stripped = dataclasses.replace(program,
                                   python_source=stripped_source,
                                   _module=None)

    def once(prog):
        # native="off" isolates the marker cost on the stable numpy path;
        # with the JIT tier engaged the body is faster and cold-cache
        # dlopen noise lands unevenly, widening the spread.
        t0 = time.perf_counter()
        result = prog.run(nprocs=4, machine=MEIKO_CS2, backend="lockstep",
                          native="off")
        dt = time.perf_counter() - t0
        return dt, result.elapsed

    # warm both modules (exec + numpy caches), then pair up runs with the
    # order alternating each rep so drift hits both sides equally
    once(program), once(stripped)
    pair_ratios = []
    marked = float("inf")
    plain = float("inf")
    for rep in range(11):
        if rep % 2:
            dt_m, modeled_marked = once(program)
            dt_p, modeled_plain = once(stripped)
        else:
            dt_p, modeled_plain = once(stripped)
            dt_m, modeled_marked = once(program)
        marked = min(marked, dt_m)
        plain = min(plain, dt_p)
        pair_ratios.append(dt_m / dt_p)
    # the markers are trace-only: modeled time must be bit-identical
    assert modeled_marked == modeled_plain
    pair_ratios.sort()
    ratio = pair_ratios[len(pair_ratios) // 2]
    _merge_into_report({
        "trace_overhead": {
            "metric": ("median of 11 order-alternated paired ratios, "
                       "heat(x3 steps) @ P=4, trace disabled, native off"),
            "with_markers_s": round(marked, 4),
            "stripped_s": round(plain, 4),
            "ratio": round(ratio, 4),
        },
    })
    assert ratio <= 1.15, (
        f"disabled-trace marker overhead tripwire (15%, gross-regression "
        f"only — see docstring): {ratio:.4f} (paired ratios {pair_ratios})")


def test_alltoall_payload_walk_is_o1(monkeypatch):
    """Payload-size accounting per alltoall message must not scale with
    the element count: packed (indices, values) array pairs are sized in
    O(1) via .nbytes, never walked element by element."""
    small = _count_sizeof_walks(256, monkeypatch)
    large = _count_sizeof_walks(16384, monkeypatch)
    assert small > 0
    assert large == small, (
        f"sizeof walks grew with element count: {small} -> {large}")
