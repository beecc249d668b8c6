"""CI scaling smoke: fused heat + cg at P=256 on the fat-tree profile.

Run as a script (``PYTHONPATH=src:benchmarks python
benchmarks/scaling_smoke.py``).  Guards the vectorized per-rank
accounting: the fused backend must stay fused (no silent lockstep
fallback) at a node-spanning world size, finish each workload inside a
hard wall-clock budget, and keep host-seconds-per-simulated-rank below
an absolute ceiling — the quantity the numpy rank arrays make nearly
free.  It also counts the Python calls of one warm run at P=256 and at
P=16 and gates their ratio: unlike the wall-clock budgets (slack for
slow runners) the count is deterministic, so the gate is tight.
A third job gates the 2-D stencil: ``image_filter`` must reach its
vertical neighbours by boundary exchange (two messages per rank per
step), which is what lets its *modeled* time keep falling to one row per
rank — modeled seconds and message counts, exact on any runner.
A fourth gates what pass 6's collective-removing rewrites bought on the
frozen benchmark programs at 16 Meiko CPUs (collective counts and
modeled milliseconds, exact on any runner).
Writes the sweep to ``scaling_report.json`` for the CI artifact and
exits non-zero on any violation so the job fails loudly.
"""

import itertools
import json
import os
import sys
import time

from test_wallclock import HEAT_SOURCE

from repro.bench.workloads import image_filter, make_workload
from repro.compiler import OtterCompiler
from repro.mpi import FATTREE_CLUSTER, MEIKO_CS2
from repro.tuning import DEFAULT_PLAN, FUSION_REWRITES, Plan

NPROCS = 256

#: hard per-workload host budget (seconds).  Local min-of-2 runs land
#: near 0.012s (heat and cg) at P=256; 10s absorbs slow CI hosts
#: while still catching any return to O(P) Python-loop accounting,
#: which costs minutes at this world size.
WALL_BUDGET_S = 10.0

#: per-simulated-rank ceiling (seconds/rank).  Locally ~0.0002-0.0007;
#: an order-of-magnitude regression on a slow runner still fits, a
#: de-vectorization does not.
PER_RANK_BUDGET_S = 0.02

#: world size the P=256 call count is compared against
BASE_NPROCS = 16

#: ceiling on calls(P=256) / calls(P=16) for one warm fused run.
#: Geometry, accounting dispatch and the partial kernels of ``sum``,
#: ``dot``, ``matvec`` and friends are O(1) Python per op (one numpy
#: call per run of equally loaded ranks, at most two runs).  What still
#: grows with P: the second run itself (n % P != 0 at 256, not at 16),
#: the node-spanning collective formula (two model levels instead of
#: one), assembling the program's per-rank results at the end — and,
#: outside these two programs, the rank-order Python fold of
#: ``[m, k] = max(v)`` and the sample sort (docs/SCALING.md).  Measured
#: 1.03 (heat) and 1.17 (cg); with per-rank partial loops it was 1.15
#: and 3.2.
CALL_RATIO_CEILING = {"heat": 1.10, "cg": 1.5}


#: image_filter(n=256, steps=8), fused.  Floor on modeled
#: elapsed(P=4) / elapsed(P=16) on the Meiko CS-2 (measured 3.75; 2.05
#: while every shift allgathered its 1x2 argument, 1.12 when every row
#: shift allgathered the image) and ceiling on elapsed(P=256) /
#: elapsed(P=1) on the fat tree, one row per rank (measured 0.012; 0.083
#: and 0.278 before).
IMAGE_N, IMAGE_STEPS = 256, 8
IMAGE_MEIKO_P4_OVER_P16_FLOOR = 3.3
IMAGE_FATTREE_P256_OVER_P1_CEILING = 0.03


#: benchmarks/e2e/programs/<key>.m at 16 CPUs of the Meiko CS-2, fused:
#: (program, pass-6 schedule) -> (ceiling on modeled ms, on collectives).
#: The milliseconds are the measured values + 2 % (image_filter: the
#: issue's round 90, measured 83.8; it was 161.7 with 83 collectives
#: while every circshift allgathered its 1x2 shift); nbody under the
#: default plan stays where it was, 21.54 — ``batch_reduce``, which
#: takes it to 11.24, is in the tuner's space only (EXPERIMENTS.md)
PASS6_CEILINGS = {
    ("image_filter", DEFAULT_PLAN.fusion): (90.0, 20),
    ("ocean", DEFAULT_PLAN.fusion): (13.893 * 1.02, 24),
    ("nbody", DEFAULT_PLAN.fusion): (21.540 * 1.02, 52),
    ("nbody", FUSION_REWRITES): (11.236 * 1.02, 36),
}


def pass6_gate(failures: list) -> list:
    """Modeled time and collectives of the programs pass 6's
    collective-removing rewrites were measured on."""
    rows = []
    for (key, fusion), (ms_ceiling, coll_ceiling) in PASS6_CEILINGS.items():
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "e2e", "programs", f"{key}.m")) as fh:
            source = fh.read()
        plan = Plan(fusion=fusion)
        result = OtterCompiler(plan=plan).compile(source, name=key).run(
            nprocs=BASE_NPROCS, machine=MEIKO_CS2, backend="fused", plan=plan)
        ms = result.elapsed * 1e3
        if ms > ms_ceiling or result.spmd.collectives > coll_ceiling:
            failures.append(
                f"{key} ({plan.summary()}): {ms:.3f} ms modeled, "
                f"{result.spmd.collectives} collectives at "
                f"P={BASE_NPROCS} on {MEIKO_CS2.name} (ceilings "
                f"{ms_ceiling:.3f} ms, {coll_ceiling})")
        print(f"[scaling-smoke] {key} ({plan.summary()}): {ms:.3f} ms, "
              f"{result.spmd.collectives} collectives at P={BASE_NPROCS} "
              f"({MEIKO_CS2.name})")
        rows.append({"program": key, "fusion": list(fusion),
                     "machine": MEIKO_CS2.name, "nprocs": BASE_NPROCS,
                     "modeled_ms": round(ms, 6), "ms_ceiling": ms_ceiling,
                     "collectives": result.spmd.collectives,
                     "collectives_ceiling": coll_ceiling})
    return rows


def count_calls(fn) -> int:
    """Python ``call`` + ``c_call`` profile events while ``fn()`` runs."""
    counter = itertools.count()

    def profiler(_frame, event, _arg):
        if event == "call" or event == "c_call":
            next(counter)

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return next(counter)


def image_filter_gate(failures: list) -> dict:
    """The 2-D stencil's modeled scaling and message counts."""
    program = OtterCompiler().compile(
        image_filter(n=IMAGE_N, steps=IMAGE_STEPS).source,
        name="image_filter")
    runs = {(machine.name, nprocs): program.run(
                nprocs=nprocs, machine=machine, backend="fused")
            for machine, sizes in ((MEIKO_CS2, (4, 16)),
                                   (FATTREE_CLUSTER, (1, NPROCS)))
            for nprocs in sizes}
    for (machine, nprocs), result in runs.items():
        if result.spmd.backend != "fused":
            failures.append(f"image_filter: fell back to "
                            f"{result.spmd.backend} at P={nprocs}")
        want = 2 * IMAGE_STEPS * nprocs if nprocs > 1 else 0
        if result.spmd.messages_sent != want:
            failures.append(
                f"image_filter: {result.spmd.messages_sent} messages on "
                f"{machine} at P={nprocs}, not the {want} of two boundary "
                f"rows per rank per step")
    speedup = runs[MEIKO_CS2.name, 4].elapsed \
        / runs[MEIKO_CS2.name, 16].elapsed
    if speedup < IMAGE_MEIKO_P4_OVER_P16_FLOOR:
        failures.append(
            f"image_filter: modeled P=4 / P=16 on {MEIKO_CS2.name} is "
            f"{speedup:.2f} (floor {IMAGE_MEIKO_P4_OVER_P16_FLOOR})")
    remaining = runs[FATTREE_CLUSTER.name, NPROCS].elapsed \
        / runs[FATTREE_CLUSTER.name, 1].elapsed
    if remaining > IMAGE_FATTREE_P256_OVER_P1_CEILING:
        failures.append(
            f"image_filter: modeled P={NPROCS} / P=1 on "
            f"{FATTREE_CLUSTER.name} is {remaining:.3f} "
            f"(ceiling {IMAGE_FATTREE_P256_OVER_P1_CEILING})")
    print(f"[scaling-smoke] image_filter: modeled P=4/P=16 x{speedup:.2f} "
          f"({MEIKO_CS2.name}), P={NPROCS}/P=1 x{remaining:.3f} "
          f"({FATTREE_CLUSTER.name})")
    return {
        "n": IMAGE_N, "steps": IMAGE_STEPS,
        "runs": [{"machine": machine, "nprocs": nprocs,
                  "backend": result.spmd.backend,
                  "modeled_s": result.elapsed,
                  "messages": result.spmd.messages_sent,
                  "bytes": result.spmd.bytes_sent,
                  "collectives": result.spmd.collectives}
                 for (machine, nprocs), result in runs.items()],
        "meiko_p4_over_p16": round(speedup, 4),
        "meiko_p4_over_p16_floor": IMAGE_MEIKO_P4_OVER_P16_FLOOR,
        "fattree_p256_over_p1": round(remaining, 4),
        "fattree_p256_over_p1_ceiling": IMAGE_FATTREE_P256_OVER_P1_CEILING,
    }


def main() -> int:
    cg = make_workload("cg", scale="small")
    jobs = [("heat", HEAT_SOURCE, None), ("cg", cg.source, cg.provider)]
    payload, failures = {}, []
    for name, source, provider in jobs:
        program = OtterCompiler(provider=provider).compile(source, name=name)
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            result = program.run(nprocs=NPROCS, machine=FATTREE_CLUSTER,
                                 backend="fused")
            best = min(best, time.perf_counter() - t0)
        per_rank = best / NPROCS
        calls = {}
        for nprocs in (BASE_NPROCS, NPROCS):
            def run():
                program.run(nprocs=nprocs, machine=FATTREE_CLUSTER,
                            backend="fused")

            run()           # this world size's geometries are interned
            calls[nprocs] = count_calls(run)
        call_ratio = calls[NPROCS] / calls[BASE_NPROCS]
        payload[name] = {
            "nprocs": NPROCS,
            "machine": FATTREE_CLUSTER.name,
            "backend": result.spmd.backend,
            "wall_s": round(best, 4),
            "wall_s_per_rank": round(per_rank, 6),
            "modeled_s": result.elapsed,
            "calls": {str(nprocs): n for nprocs, n in calls.items()},
            "call_ratio": round(call_ratio, 4),
            "call_ratio_ceiling": CALL_RATIO_CEILING[name],
        }
        if result.spmd.backend != "fused":
            failures.append(f"{name}: fell back to "
                            f"{result.spmd.backend} at P={NPROCS}")
        if best > WALL_BUDGET_S:
            failures.append(f"{name}: {best:.2f}s exceeds the "
                            f"{WALL_BUDGET_S:.0f}s wall budget")
        if per_rank > PER_RANK_BUDGET_S:
            failures.append(f"{name}: {per_rank:.4f}s/rank exceeds the "
                            f"{PER_RANK_BUDGET_S}s/rank ceiling")
        if call_ratio > CALL_RATIO_CEILING[name]:
            failures.append(
                f"{name}: {calls[NPROCS]} calls at P={NPROCS} is "
                f"{call_ratio:.2f}x the {calls[BASE_NPROCS]} at "
                f"P={BASE_NPROCS} (ceiling {CALL_RATIO_CEILING[name]})")
        print(f"[scaling-smoke] {name}: P={NPROCS} fused in {best:.3f}s "
              f"({per_rank * 1e3:.3f} ms/rank, "
              f"modeled {result.elapsed:.4f}s), "
              f"calls x{call_ratio:.2f} vs P={BASE_NPROCS}")

    payload["image_filter"] = image_filter_gate(failures)
    payload["pass6"] = pass6_gate(failures)

    with open("scaling_report.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    for failure in failures:
        print(f"[scaling-smoke] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
