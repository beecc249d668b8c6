"""Per-layer metrics, measured from outside ``src/repro``.

A layer is a module under ``src/repro/``.  Every number here comes from
timing calls into that module's public functions (minimum over a few
repetitions, plus the counts the calls return); none of it runs while
an end-to-end number is being timed.  ``README.md`` says which
end-to-end metric each of these should move, on which workload.
"""

import dataclasses
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

import repro.codegen.py_emitter as py_emitter
import repro.compiler as compiler_mod
from repro.analysis.infer import infer_types
from repro.analysis.resolve import resolve_program
from repro.codegen import kernels as K
from repro.codegen.py_emitter import emit_python
from repro.compiler import compile_source
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_script
from repro.ir.guard import guard_program
from repro.ir.licm import licm_program
from repro.ir.lower import lower_program
from repro.ir.peephole import peephole_program
from repro.mpi import MEIKO_CS2, run_spmd
from repro.runtime.context import RuntimeContext
from repro.service.cache import CompileCache, canonical_source

from spans import SpanRecorder
from workloads import ALL_PROGRAMS, SUITE, load_sources

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
P = 16


def best(fn, reps):
    """Minimum seconds of ``fn()`` over ``reps`` calls."""
    low = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        low = min(low, time.perf_counter() - t0)
    return low


def best_pair(first, second, reps):
    """Minimum seconds of two alternatives timed in adjacent pairs whose
    order alternates, so drift and bursts of the host land on both."""
    low = [float("inf"), float("inf")]
    fns = (first, second)
    for rep in range(reps):
        for which in ((0, 1) if rep % 2 else (1, 0)):
            t0 = time.perf_counter()
            fns[which]()
            low[which] = min(low[which], time.perf_counter() - t0)
    return low


# -------------------------------------------------------------------------- #
# the traced replay of the workload itself
# -------------------------------------------------------------------------- #

def traced_replay(workload, index, passes, untraced_min_s, path):
    """Replay ``passes`` passes under the span recorder and write them.

    ``pass -> step:<program> -> {cache.lookup | cache.get_or_compile ->
    cache.key, frontend.parse, ..., codegen.emit} -> program.run``.  The
    compiler calls its passes through module-level names, so wrapping
    those names for the length of the replay puts a span around each
    pass without touching ``src/repro``.
    """
    rec = SpanRecorder(workload.spec.name)
    targets = [
        (CompileCache, "key", "cache.key"),
        (compiler_mod, "parse_script", "frontend.parse"),
        (compiler_mod, "resolve_program", "analysis.resolve"),
        (compiler_mod, "infer_types", "analysis.infer"),
        (compiler_mod, "lower_program", "ir.lower"),
        (compiler_mod, "guard_program", "ir.guard"),
        (compiler_mod, "peephole_program", "ir.peephole"),
        (compiler_mod, "licm_program", "ir.licm"),
        (py_emitter, "emit_python", "codegen.emit"),
    ]
    step_min = [float("inf")] * len(workload.steps)
    with rec.patched(targets):
        for _ in range(passes):
            times, ok = workload.run_pass(next(index), rec)
            if not ok:
                raise SystemExit(
                    f"traced pass failed: {workload.last_error}")
            step_min = [min(a, b) for a, b in zip(step_min, times)]
    rec.dump(path)
    summary = rec.summary()
    if summary["max_pass_self_sum_gap"] > 0.02:
        raise SystemExit(f"span self times do not sum to their pass: "
                         f"{summary['max_pass_self_sum_gap']:.4f}")
    return {"trace.bench_span_overhead": sum(step_min) / untraced_min_s,
            "trace.bench_spans": len(rec.rows)}


# -------------------------------------------------------------------------- #
# frontend / analysis / ir / codegen: the compiler in pass order
# -------------------------------------------------------------------------- #

def _count_stmts(ir):
    return sum(len(block) for block in ir.walk())


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def compiler_layers(sources, reps):
    """The eight passes in compiler order, summed over the programs."""
    out = {}
    counts = dict.fromkeys(("frontend.tokens", "ir.stmts_lowered",
                            "ir.stmts_final", "ir.peephole_fused",
                            "ir.licm_hoisted", "codegen.py_lines"), 0)
    for key, (source, provider) in sources.items():
        low = {}
        for rep in range(reps):
            dt = {}
            script, dt["frontend.parse_ms"] = timed(parse_script, source, key)
            _, dt["frontend.unparse_ms"] = timed(canonical_source, source)
            resolved, dt["analysis.resolve_ms"] = timed(
                resolve_program, script, provider)
            types, dt["analysis.infer_ms"] = timed(infer_types, resolved)
            ir, dt["ir.lower_ms"] = timed(lower_program, resolved, types)
            lowered = _count_stmts(ir)
            _, dt["ir.guard_ms"] = timed(guard_program, ir)
            peep, dt["ir.peephole_ms"] = timed(peephole_program, ir)
            licm, dt["ir.licm_ms"] = timed(licm_program, ir)
            text, dt["codegen.emit_ms"] = timed(emit_python, ir)
            for name, seconds in dt.items():
                low[name] = min(low.get(name, seconds), seconds)
        counts["frontend.tokens"] += len(tokenize(source, key))
        counts["ir.stmts_lowered"] += lowered
        counts["ir.stmts_final"] += _count_stmts(ir)
        counts["ir.peephole_fused"] += peep.transpose_fused + peep.cse_removed
        counts["ir.licm_hoisted"] += licm.hoisted
        counts["codegen.py_lines"] += len(text.splitlines())
        for name, seconds in low.items():
            out[name] = out.get(name, 0.0) + seconds * 1e3
    out.update(counts)
    return out


# -------------------------------------------------------------------------- #
# service.cache
# -------------------------------------------------------------------------- #

def cache_layers(sources, reps, work):
    """Key, hit and miss costs of the compile cache, summed over the
    programs; the disk tier lives in a directory of its own."""
    disk_root = tempfile.mkdtemp(prefix="disk-", dir=work)

    def variant(source, tag):
        return f"{source}zz_layer_{tag} = 1;\n"

    def miss_total(cache, tag):
        """Seconds of one miss per program, and the part outside the
        compiler's own pass timings."""
        total = overhead = 0.0
        for key, (source, provider) in sources.items():
            outcome, dt = timed(cache.get_or_compile, variant(source, tag),
                                name=key, provider=provider)
            assert not outcome.hit
            total += dt
            overhead += dt - outcome.compile_seconds
        return total, overhead

    memory = CompileCache(disk_root=False)
    disk = CompileCache(disk_root=disk_root)
    memory_rows = [miss_total(memory, f"m{rep}") for rep in range(reps)]
    disk_rows = [miss_total(disk, f"d{rep}") for rep in range(reps)]

    # the hit and key paths: what `disk` published, looked up by a cache
    # that has never seen it
    warm = CompileCache(disk_root=disk_root)
    hit = key = disk_hit = 0.0
    for name, (source, provider) in sources.items():
        request = variant(source, "d0")
        first, dt = timed(warm.get_or_compile, request, name=name,
                          provider=provider)
        assert first.tier == "disk", first.describe()
        disk_hit += dt
        hit += best(lambda: warm.get_or_compile(
            request, name=name, provider=provider), 20 * reps)
        key += best(lambda: warm.key(request, name=name, provider=provider),
                    20 * reps)
    shutil.rmtree(disk_root, ignore_errors=True)
    memory_overhead = min(row[1] for row in memory_rows)
    return {
        "cache.key_us": key * 1e6,
        "cache.hit_us": hit * 1e6,
        "cache.miss_overhead_ms": memory_overhead * 1e3,
        # what a miss adds outside the compiler when the disk tier is on
        "cache.disk_publish_ms":
            (min(row[1] for row in disk_rows) - memory_overhead) * 1e3,
        "cache.disk_hit_ms": disk_hit * 1e3,
    }


# -------------------------------------------------------------------------- #
# mpi: the substrate with trivial compute, 16 ranks
# -------------------------------------------------------------------------- #

def _empty(comm):
    return None


def _allreduces(comm):
    for _ in range(200):
        comm.allreduce(1.0)


def _barriers(comm):
    for _ in range(200):
        comm.barrier()


def _ring(comm):
    buf = np.zeros(8)
    for _ in range(200):
        buf = comm.sendrecv(buf, dest=(comm.rank + 1) % comm.size,
                            source=(comm.rank - 1) % comm.size)


def mpi_layers(reps, pinned_cpu, allowed_cpus):
    def cost(fn, backend, n=reps):
        return best(lambda: run_spmd(P, MEIKO_CS2, fn, backend=backend), n)

    fused_spawn = cost(_empty, "fused", 20 * reps)
    lock_spawn = cost(_empty, "lockstep")
    lock_barriers = cost(_barriers, "lockstep")
    lock_ring = cost(_ring, "lockstep")
    # reads comm.rank: the fused attempt diverges and re-runs under lockstep
    fused_ring = cost(_ring, "fused")
    # the same pass with the pin lifted (medians: the unpinned pass is
    # bimodal, which is the point)
    def median_barriers():
        rows = sorted(timed(run_spmd, P, MEIKO_CS2, _barriers,
                            backend="lockstep")[1]
                      for _ in range(2 * reps + 1))
        return rows[len(rows) // 2]

    pinned = median_barriers()
    os.sched_setaffinity(0, allowed_cpus)
    try:
        unpinned = median_barriers()
    finally:
        os.sched_setaffinity(0, {pinned_cpu})
    return {
        "mpi.fused.spawn_us": fused_spawn * 1e6,
        "mpi.lockstep.spawn_ms": lock_spawn * 1e3,
        "mpi.fused.allreduce_us":
            (cost(_allreduces, "fused") - fused_spawn) / 200 * 1e6,
        "mpi.lockstep.allreduce_us":
            (cost(_allreduces, "lockstep") - lock_spawn) / 200 * 1e6,
        "mpi.lockstep.sendrecv_us": (lock_ring - lock_spawn) / 200 * 1e6,
        "mpi.fused.sendrecv_us": (fused_ring - lock_spawn) / 200 * 1e6,
        "mpi.lockstep.handoff_us":
            (lock_barriers - lock_spawn) / (200 * P) * 1e6,
        "mpi.lockstep.unpinned_ratio": unpinned / pinned,
        "explain.ring_fused_over_lockstep": fused_ring / lock_ring,
    }


# -------------------------------------------------------------------------- #
# runtime: one op body at a time inside run_spmd, 16 ranks
# -------------------------------------------------------------------------- #

#: (metric suffix, repetitions, op) — ``v`` is a 4000-vector, ``m`` a
#: 160 x 160 matrix, both distributed
_RUNTIME_OPS = (
    ("ew_us", 50, lambda rt, v, m: rt.ew(
        lambda a, b: K.add(a, K.mul(2.0, b)), 2, v, v,
        spec=("+", "@0", (".*", 2.0, "@1")))),
    ("call_builtin_circshift_us", 50,
     lambda rt, v, m: rt.call_builtin("circshift", [v, 1.0], 1)),
    ("call_builtin_sum_us", 50,
     lambda rt, v, m: rt.call_builtin("sum", [v], 1)),
    ("matmul_us", 5, lambda rt, v, m: rt.matmul(m, m)),
    ("set_element_us", 50,
     lambda rt, v, m: rt.set_element(v, [5.0], 1.5)),
    ("element_us", 50, lambda rt, v, m: rt.element(v, 4)),
    ("from_literal_us", 50,
     lambda rt, v, m: rt.from_literal([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])),
)


def runtime_layers(reps):
    """Cost of one runtime call for all 16 ranks: a run that makes the
    call ``n`` times minus a run that makes it never, over ``n``."""
    def body(comm, op, n):
        rt = RuntimeContext(comm, seed=1)
        try:
            v = rt.rand(1.0, 4000.0)
            m = rt.rand(160.0, 160.0)
            for _ in range(n):
                op(rt, v, m)
        finally:
            rt.close()

    out = {}
    for backend in ("fused", "lockstep"):
        base = best(lambda: run_spmd(P, MEIKO_CS2, body, None, 0,
                                     backend=backend), reps)
        for suffix, n, op in _RUNTIME_OPS:
            full = best(lambda: run_spmd(P, MEIKO_CS2, body, op, n,
                                         backend=backend), reps)
            out[f"runtime.{backend}.{suffix}"] = (full - base) / n * 1e6
    return out


# -------------------------------------------------------------------------- #
# native, trace, tuning, service, cli, and the ROADMAP's open questions
# -------------------------------------------------------------------------- #

def native_layers(programs, reps, work):
    from repro.native import ENV_CACHE_DIR, get_engine

    image = programs["image_filter"]
    # first-ever-run cost: an empty kernel cache and the real compiler
    # (get_engine keys its engines by this variable, so the run below
    # gets a fresh one)
    saved = os.environ.get(ENV_CACHE_DIR)
    os.environ[ENV_CACHE_DIR] = tempfile.mkdtemp(prefix="cold-", dir=work)
    try:
        cold, cold_s = timed(image.run, nprocs=4, machine=MEIKO_CS2,
                             backend="fused", native="auto")
        warm, warm_s = timed(image.run, nprocs=4, machine=MEIKO_CS2,
                             backend="fused", native="auto")
    finally:
        shutil.rmtree(os.environ[ENV_CACHE_DIR], ignore_errors=True)
        if saved is None:
            del os.environ[ENV_CACHE_DIR]
        else:
            os.environ[ENV_CACHE_DIR] = saved
    report = warm.native or {}
    fallbacks = sum(report.get(field, 0) for field in (
        "guard_fallbacks", "signature_fallbacks", "unsupported_specs",
        "probe_rejects", "verify_rejects", "compile_failures"))

    # one chain (heat's update), same spec, 256 x 256 operands
    spec = ("+", "@0", (".*", "@1", ("+", ("-", "@2", (".*", 2.0, "@0")),
                                     "@3")))

    def chain(a, b, c, d):
        return K.add(a, K.mul(b, K.add(K.sub(c, K.mul(2.0, a)), d)))

    rng = np.random.default_rng(0)
    args = [rng.random((256, 256)), 0.2, rng.random((256, 256)),
            rng.random((256, 256))]
    engine = get_engine()
    numpy = call = best(lambda: chain(*args), 40 * reps)
    # without a compiler the tier falls back to the numpy body above
    if engine.available and engine.run(spec, args, chain) is not None:
        call = best(lambda: engine.run(spec, args, chain), 40 * reps)

    def fused(key, nprocs=P, native="auto"):
        program = programs[key]
        return lambda: program.run(nprocs=nprocs, machine=MEIKO_CS2,
                                   backend="fused", native=native)

    auto = off = 0.0
    for key in SUITE:
        fused(key)()        # kernels built or loaded before anything is timed
        pair = best_pair(fused(key), fused(key, native="off"), reps)
        auto += pair[0]
        off += pair[1]
    require = "require" if engine.available else "auto"
    ocean = best_pair(fused("ocean", 4, require), fused("ocean", 4, "off"),
                      reps)
    heat = best_pair(fused("heat", 1), fused("heat"), reps)
    return {
        "native.calls_per_pass": report.get("native_calls", 0),
        "native.kernels": (cold.native or {}).get("kernels", 0),
        "native.fallbacks": fallbacks,
        "native.call_us": call * 1e6,
        "native.numpy_us": numpy * 1e6,
        "native.cold_build_s": cold_s - warm_s,
        "native.auto_over_off": auto / off,
        "explain.native_require_over_off_ocean": ocean[0] / ocean[1],
        "explain.fused_heat_p1_over_p16": heat[0] / heat[1],
    }


def trace_layers(programs, reps):
    """The emitted ``_c.line`` markers with tracing off (A/B against a
    clone with every marker stripped, as ``test_trace_marker_overhead``
    does), and the recorder with tracing on."""
    from repro.trace import chrome_trace

    heat = programs["heat"]
    stripped = dataclasses.replace(
        heat, _module=None, python_source=re.sub(
            r"^[ \t]*_c(?:\.line = \d+| = rt\.comm)\n", "",
            heat.python_source, flags=re.MULTILINE))
    assert "_c.line" not in stripped.python_source

    def lockstep(program, trace=None):
        return lambda: program.run(nprocs=4, machine=MEIKO_CS2,
                                   backend="lockstep", native="off",
                                   trace=trace)

    lockstep(stripped)()
    marked, plain = best_pair(lockstep(heat), lockstep(stripped),
                              2 * reps + 1)
    traced, untraced = best_pair(lockstep(heat, True), lockstep(heat),
                                 2 * reps + 1)
    result = heat.run(nprocs=4, machine=MEIKO_CS2, backend="lockstep",
                      native="off", trace=True)
    events = sum(len(rec.events) for rec in result.trace.recorders)
    export = best(lambda: chrome_trace(result.trace), reps)
    return {"trace.off_ratio": marked / plain,
            "trace.on_ratio": traced / untraced,
            "trace.events": events,
            "trace.export_ms": export * 1e3}


def tuning_layers(sources):
    from repro.tuning import clear_eval_memo, tune_program

    source, provider = sources["cg"]
    clear_eval_memo()
    result = tune_program(source, nprocs=P, machine=MEIKO_CS2, budget=16,
                          provider=provider, name="cg")
    return {"tuning.search_ms": result.host_seconds * 1e3,
            "tuning.candidates": len(result.candidates)}


def service_layers(sources, reps):
    from repro.service import ServiceServer

    server = ServiceServer(cache=CompileCache(disk_root=False))
    client = server.loopback()
    try:
        source = sources["heat"][0]
        client.run(source, name="heat", nprocs=4, backend="fused")
        return {
            "service.loopback_ping_us": best(client.ping, 40 * reps) * 1e6,
            "service.run_hit_ms": best(lambda: client.run(
                source, name="heat", nprocs=4, backend="fused"), reps) * 1e3,
        }
    finally:
        client.close()


def cli_layers(reps, work):
    """What a fresh ``python -m repro`` process pays (children inherit
    this process's pin and scrubbed environment)."""
    probe = ("import sys, time; t0 = time.perf_counter(); import repro.cli; "
             "print(time.perf_counter() - t0, len(sys.modules))")
    rows = []
    for _ in range(max(reps // 2, 1) + 1):
        proc = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True, timeout=60)
        seconds, modules = proc.stdout.split()
        rows.append((float(seconds), int(modules)))
    script = os.path.join(HERE, "programs", "heat.m")
    oneshot = best(lambda: subprocess.run(
        [sys.executable, "-m", "repro", "run", script, "-n", "4"],
        check=True, capture_output=True, timeout=60, cwd=work), reps)
    return {"cli.import_ms": min(rows)[0] * 1e3,
            "cli.modules": rows[-1][1],
            "cli.oneshot_ms": oneshot * 1e3}


def layer_pass(args):
    """Every per-layer metric that does not come from the workload's
    own passes.  The same for every workload (and seed-independent but
    for the sources' seed tail)."""
    reps = 1 if args.smoke else 5
    sources = load_sources(ALL_PROGRAMS, args.seed)
    programs = {key: compile_source(source, provider, name=key)
                for key, (source, provider) in sources.items()}
    out = {}
    out.update(compiler_layers(sources, reps))
    out.update(cache_layers(sources, min(reps, 3), args.work))
    out.update(mpi_layers(reps, args.pinned_cpu, args.allowed_cpus))
    out.update(runtime_layers(min(reps, 3)))
    out.update(native_layers(programs, reps, args.work))
    out.update(trace_layers(programs, reps))
    out.update(tuning_layers(sources))
    out.update(service_layers(sources, reps))
    out.update(cli_layers(reps, args.work))
    return out
