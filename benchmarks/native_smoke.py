"""CI native-tier smoke: prove the JIT tier engages, stays bit-identical,
reuses its kernel cache, compiles to vector loops and keeps its pages.

Run as a script (``PYTHONPATH=src:benchmarks python
benchmarks/native_smoke.py``).  Compiles the elementwise-dominated
image-filtering workload, runs it fused at P=4 with the tier forced off
and forced on (twice, to exercise the warm path), and checks:

* output and virtual clock are identical off vs on;
* the tier actually served calls (``require`` would have raised
  otherwise anyway);
* the warm run performs **zero** compiles and zero disk loads — every
  kernel is already resident;
* the benchmark-sized image filter (n=256, 16 steps) takes at most
  :data:`MAX_FAULTS_PER_PASS` minor page faults per warm pass — recycled
  op outputs keep their pages mapped (docs/NATIVE.md) — and at most
  :data:`MAX_CALLS_PER_PASS` native calls: each step's ten elementwise
  statements are one group kernel (pass 6's ``ew_group``).

It also counts how many of the kernels the runs loaded gcc reports as
vectorized (``-fopt-info-vec-optimized`` over each kernel's C text with
the flags the engine built it with, ``engine.flags``; reported, not
gated — other compilers say "n/a").

Writes a hit-rate table to ``native_report.md`` (appended to
``$GITHUB_STEP_SUMMARY`` by the workflow) plus ``native_report.json``
for the artifact, and exits non-zero on any violation.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

from repro.bench.workloads import image_filter
from repro.compiler import OtterCompiler
from repro.mpi import MEIKO_CS2
from repro.native import get_engine

#: the gate on the benchmark image filter's minor page faults per pass
#: (about 112 with recycled op outputs, 3 296 without)
MAX_FAULTS_PER_PASS = 500
#: the gate on its native calls per pass (16 with its steps grouped,
#: 160 without)
MAX_CALLS_PER_PASS = 32


def per_pass(program, passes=20):
    """Minor page faults and native calls of one warm fused
    ``native=require`` run."""
    for _ in range(3):
        program.run(nprocs=4, machine=MEIKO_CS2, backend="fused",
                    native="require")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calls = 0
    for _ in range(passes):
        calls += program.run(nprocs=4, machine=MEIKO_CS2, backend="fused",
                             native="require").native["native_calls"]
    return ((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            / passes, calls / passes)


def vectorized_kernels(engine):
    """``(vectorized, kernels)`` over the engine's loaded kernels, or
    ``(None, kernels)`` when the compiler is not gcc."""
    keys = engine.loaded_keys()
    version = subprocess.run([engine.cc, "--version"], capture_output=True,
                             text=True).stdout
    if "Free Software Foundation" not in version:
        return None, len(keys)
    count = 0
    with tempfile.TemporaryDirectory() as scratch:
        for key in keys:
            proc = subprocess.run(
                [engine.cc, *engine.flags, "-fopt-info-vec-optimized",
                 str(engine.cache.source_path(key)), "-o",
                 os.path.join(scratch, "k.so"), "-lm"],
                capture_output=True, text=True)
            count += "loop vectorized" in proc.stderr
    return count, len(keys)


def main() -> int:
    workload = image_filter(n=128, steps=4)
    program = OtterCompiler().compile(workload.source, name=workload.key)

    def timed(native):
        t0 = time.perf_counter()
        result = program.run(nprocs=4, machine=MEIKO_CS2, backend="fused",
                             native=native)
        return time.perf_counter() - t0, result

    off_s, off = timed("off")
    cold_s, cold = timed("require")
    warm_s, warm = timed("require")

    bench = image_filter(n=256, steps=16)
    faults, calls_per_pass = per_pass(
        OtterCompiler().compile(bench.source, name=bench.key))
    vectorized, kernels = vectorized_kernels(get_engine())

    failures = []
    if off.output != cold.output or off.output != warm.output:
        failures.append("output differs between native off/on")
    if off.elapsed != cold.elapsed or off.elapsed != warm.elapsed:
        failures.append("virtual clock differs between native off/on")
    if cold.native["native_calls"] == 0:
        failures.append("native tier never served a call")
    if warm.native["compiles"] != 0:
        failures.append(f"warm run recompiled "
                        f"{warm.native['compiles']} kernels")
    if warm.native["disk_hits"] != 0:
        failures.append("warm run re-read the disk cache")
    if faults > MAX_FAULTS_PER_PASS:
        failures.append(f"image filter took {faults:.0f} minor page faults "
                        f"per pass (gate: {MAX_FAULTS_PER_PASS})")
    if calls_per_pass > MAX_CALLS_PER_PASS:
        failures.append(f"image filter made {calls_per_pass:.0f} native "
                        f"calls per pass (gate: {MAX_CALLS_PER_PASS})")

    calls = warm.native["native_calls"]
    hits = warm.native["mem_hits"]
    shown = "n/a (not gcc)" if vectorized is None \
        else f"**{vectorized}/{kernels}**"
    rows = [
        "### Native kernel tier smoke (image filter, fused, P=4)",
        "",
        "| run | host s | native calls | compiles | disk hits |"
        " warm hits |",
        "|---|---|---|---|---|---|",
        f"| native off | {off_s:.3f} | — | — | — | — |",
        f"| cold | {cold_s:.3f} | {cold.native['native_calls']} |"
        f" {cold.native['compiles']} | {cold.native['disk_hits']} |"
        f" {cold.native['mem_hits']} |",
        f"| warm | {warm_s:.3f} | {calls} | {warm.native['compiles']} |"
        f" {warm.native['disk_hits']} | {hits} |",
        "",
        f"warm in-process hit rate: **{hits}/{calls}"
        f" = {100.0 * hits / max(calls, 1):.1f}%**;"
        f" virtual clock identical off/on: "
        f"**{off.elapsed == warm.elapsed}**",
        "",
        f"kernels gcc vectorized ({warm.native['isa']} build): {shown};"
        f" image filter (n=256, 16 steps) per pass: minor page faults"
        f" **{faults:.0f}** (gate {MAX_FAULTS_PER_PASS}), native calls"
        f" **{calls_per_pass:.0f}** (gate {MAX_CALLS_PER_PASS})",
    ]
    report = "\n".join(rows) + "\n"
    print(report)
    with open("native_report.md", "w", encoding="utf-8") as fh:
        fh.write(report)
    with open("native_report.json", "w", encoding="utf-8") as fh:
        json.dump({
            "off_wall_s": round(off_s, 4),
            "cold_wall_s": round(cold_s, 4),
            "warm_wall_s": round(warm_s, 4),
            "cold": cold.native,
            "warm": warm.native,
            "kernels": kernels,
            "vectorized_kernels": vectorized,
            "faults_per_pass": faults,
            "native_calls_per_pass": calls_per_pass,
            "kernel_cache": os.environ.get("REPRO_KERNEL_CACHE", ""),
        }, fh, indent=2)
        fh.write("\n")
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print("native smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
