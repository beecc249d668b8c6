"""One workload in one fresh, pinned process (started by ``run.py``).

Phases, chosen by ``--phase``:

``setup``    what every CLI invocation pays: first line of this file ->
             import -> read inputs -> cold compile -> first complete
             pass.  Prints the seconds that took and exits.
``measure``  verify against the oracle, count Python calls (profiler
             on, nothing timed), warm up, time the measured passes
             (profiler and spans off); with ``--trace 1`` also replay
             5 % of the passes under the span recorder and run the
             per-layer pass.

The last line of stdout is one JSON object.
"""

import time

_T_FIRST = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def pin():
    """Pin this process to the highest CPU it may use; must run before
    numpy is imported (OpenBLAS sizes its pool from the affinity mask).
    Returns ``(pinned cpu, the mask it had)``."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu, allowed


def count_calls(fn):
    """Python ``call`` + ``c_call`` events while ``fn()`` runs, on every
    thread it starts.  ``next`` on an ``itertools.count`` is one C call,
    so concurrent rank threads cannot lose an increment."""
    counter = itertools.count()

    def profiler(_frame, event, _arg):
        if event == "call" or event == "c_call":
            next(counter)

    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        value = fn()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return next(counter), value


def percentile_with_ten_beyond(ordered):
    """The highest percentile that still has ten samples above it (with
    too few samples for that: the median)."""
    return ordered[max(len(ordered) - 11, len(ordered) // 2)]


def measure(workload, args, out):
    from envinfo import calibration_unit, collect, loadavg

    spec = workload.spec
    passes = max(int(round(spec.pass_rate * args.seconds)), 3)
    if args.smoke:
        passes = 10
    elif args.trace:
        # the traced run shares its time with the replay and the layer
        # pass; its untraced stretch only feeds diagnostics
        passes = max(passes // 4, 3)
    out["env"]["loadavg_before"] = loadavg()

    t0 = time.perf_counter()
    modeled = workload.verify()
    out["verify_s"] = time.perf_counter() - t0

    # ---- counting phase: profiler on, nothing timed -------------------
    index = itertools.count(1)
    counts = []
    for _ in range(3):
        calls, (_times, ok) = count_calls(
            lambda: workload.run_pass(next(index)))
        if not ok:
            raise SystemExit(f"counting pass failed: {workload.last_error}")
        counts.append(calls)
    out["pycalls"] = counts
    spread = (max(counts) - min(counts)) / min(counts)
    if spread > (0.0 if spec.exact_calls else 5e-4):
        raise SystemExit(
            f"{spec.name}: pycalls_per_op is not deterministic: {counts}")

    # ---- the measured passes -----------------------------------------
    # verification and counting have already filled every cache, so a
    # few untimed passes are all the warm-up the minimum needs
    for _ in range(3):
        workload.run_pass(next(index))
    gc.collect()
    step_min = [float("inf")] * len(workload.steps)
    totals = []
    calib = []
    failed = 0
    # the pass count is fixed so that a faster commit gets no more
    # samples for its minimum; on a host slower than the one the rates
    # were taken on, --seconds cuts the loop short instead
    deadline = time.perf_counter() + args.seconds
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for done in range(1, passes + 1):
        times, ok = workload.run_pass(next(index))
        t0 = time.perf_counter()
        calibration_unit()
        calib.append(time.perf_counter() - t0)
        failed += not ok
        totals.append(sum(times))
        for k, dt in enumerate(times):
            if dt < step_min[k]:
                step_min[k] = dt
        if done % 50 == 0:
            gc.collect()
        if time.perf_counter() > deadline:
            break
    out["measured_wall_s"] = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    totals.sort()
    calib.sort()
    out["attempted"] = len(totals)
    out["failed"] = failed
    out["last_error"] = workload.last_error
    out["e2e"] = {
        "op_loops_min": sum(step_min) / calib[len(calib) // 10],
        "pycalls_per_op": sum(counts) / len(counts),
        "vclock_s": modeled["vclock_s"],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    out["diag"] = {
        "e2e.op_ms_min": sum(step_min) * 1e3,
        "e2e.op_ms_p50": totals[len(totals) // 2] * 1e3,
        "e2e.op_ms_p90": percentile_with_ten_beyond(totals) * 1e3,
        "e2e.cpu_ms_per_op": cpu_s / len(totals) * 1e3,
        "e2e.verify_s": out["verify_s"],
        "interp.oracle_ms": modeled["oracle_s"] * 1e3,
        "mpi.messages": modeled["messages"],
        "mpi.bytes": modeled["bytes"],
        "mpi.collectives": modeled["collectives"],
        "host.calib_ms_min": calib[0] * 1e3,
        "host.calib_ms_p10": calib[len(calib) // 10] * 1e3,
        "host.calib_ms_p50": calib[len(calib) // 2] * 1e3,
        "host.calib_ms_mean": sum(calib) / len(calib) * 1e3,
    }
    out["step_ms_min"] = {key: step_min[k] * 1e3
                          for k, (key, _s) in enumerate(workload.steps)}

    if args.trace:
        import layers

        out["layers"] = layers.traced_replay(
            workload, index, max(passes // 5, 3), sum(step_min),
            os.path.join(args.out, f"spans-{spec.name}.json"))
        out["layers"].update(layers.layer_pass(args))
    out["env"].update(collect(ROOT, args.pinned_cpu, args.allowed_cpus),
                      loadavg_after=loadavg(), passes=len(totals),
                      seed=args.seed)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    args.pinned_cpu, args.allowed_cpus = pin()

    sys.path.insert(0, HERE)
    from workloads import SPECS, Workload

    workload = Workload(SPECS[args.workload], args.seed)
    out = {"workload": args.workload, "phase": args.phase, "env": {}}
    if args.phase == "setup":
        _times, ok = workload.run_pass(0)
        out["setup_s"] = time.perf_counter() - _T_FIRST
        if not ok:
            raise SystemExit(f"first pass failed: {workload.last_error}")
    else:
        out["import_s"] = time.perf_counter() - _T_FIRST
        measure(workload, args, out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
