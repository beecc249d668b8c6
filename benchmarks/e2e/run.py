#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                     # all four workloads
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --layers            # + traced run: spans, layers
    python3 benchmarks/e2e/run.py --aa                # same code twice
    python3 benchmarks/e2e/run.py --check benchmarks/e2e/baseline.json
    python3 benchmarks/e2e/run.py --smoke             # 10 passes each, < 20 s

Every workload runs in its own fresh process pinned to one CPU
(``worker.py``); this file only starts those processes, folds the cold
launches into ``setup_s``, prints and compares.
With ``--workload`` the last line of stdout is the JSON object the
driver reads; the exit code is non-zero on any mismatch or failed op.
README.md has the metric, workload and prediction tables.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")

#: cold launches behind ``setup_s``: one discarded (it primes the page
#: cache, the ``.pyc`` files and the kernel cache), then this many before
#: and again after the measured phase, so that they sample the same
#: half minute as the calibration loop they are divided by
SETUP_LAUNCHES = 3


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env(work):
    """One thread of load, nothing inherited that changes behaviour:
    every ``REPRO_*`` knob scrubbed, BLAS/OpenMP pools of one, a fixed
    hash seed, caches and temp files inside the per-run work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(ROOT, "src")
        + (os.pathsep + inherited if inherited else ""),
        REPRO_KERNEL_CACHE=os.path.join(work, "kernels"),
        TMPDIR=work,
    )
    return env


def launch(phase, name, args, work, out_dir, trace=0):
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--phase", phase, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", out_dir, "--work", work]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=child_env(work), cwd=ROOT, text=True,
                          capture_output=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name}: {phase} worker failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name, args, out_dir):
    """All phases of one workload; returns its result row."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)

    def cold_launches(n):
        return [launch("setup", name, args, work, out_dir)["setup_s"]
                for _ in range(n)]

    try:
        setup = []      # a traced run reports no setup_s and makes none
        if args.smoke and not args.trace:
            setup = cold_launches(1)
        elif not args.trace:
            cold_launches(1)        # discarded: primes the caches
            setup = cold_launches(SETUP_LAUNCHES)
        row = launch("measure", name, args, work, out_dir, args.trace)
        if setup and not args.smoke:
            setup += cold_launches(SETUP_LAUNCHES)
        if args.layers:
            row["layers"] = launch("measure", name, args, work, out_dir,
                                   trace=1)["layers"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    row["setup_samples"] = setup
    if setup:
        # reference seconds: the quickest launch, over what the
        # calibration loop took on average in the same half minute, for
        # a loop of exactly 1 ms (of min or median, over the samples'
        # minimum, 10th percentile, median or mean, this pairing moved
        # least between two sets of ten runs: README.md)
        row["e2e"]["setup_s"] = min(setup) / row["diag"]["host.calib_ms_mean"]
    row["correct"] = row["failed"] == 0
    return row


# -------------------------------------------------------------------------- #
# printing and comparing
# -------------------------------------------------------------------------- #

def print_row(row, contract):
    name = row["workload"]
    units = {m["name"]: m["unit"] for m in
             contract["end_to_end"] + contract["per_layer"]}
    print(f"== {name}  seed={row['env']['seed']}  ops={row['attempted']}  "
          f"failed_ops={row['failed']}  verify_s={row['verify_s']:.3f}  "
          f"measured_s={row['measured_wall_s']:.2f}  "
          f"pinned_cpu={row['env']['pinned_cpu']}")
    for group in ("e2e", "diag", "layers"):
        for metric, value in row.get(group, {}).items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {name:<20} {metric:<40} {shown:>14} "
                  f"{units.get(metric, '')}")
    print("  per program, min ms: " + "  ".join(
        f"{key} {ms:.2f}" for key, ms in row["step_ms_min"].items()))
    if row["setup_samples"]:
        print("  set-up launches, plain s: "
              + " ".join(f"{s:.3f}" for s in row["setup_samples"]))
    if row["failed"]:
        print(f"  LAST ERROR: {row['last_error']}")


def compare(label_a, rows_a, label_b, rows_b, contract, two_sided=False):
    """Per metric x workload: both values, relative difference and
    PASS/FAIL against the metric's bound (``two_sided``: the same code
    ran twice, so a difference in either direction is noise beyond the
    bound).  Returns the FAIL count."""
    fails = 0
    print(f"{'workload':<20} {'metric':<16} {label_a:>14} {label_b:>14} "
          f"{'rel diff':>9}  bound")
    for name in sorted(set(rows_a) & set(rows_b)):
        for metric in contract["end_to_end"]:
            a = rows_a[name]["e2e"].get(metric["name"])
            b = rows_b[name]["e2e"].get(metric["name"])
            if a is None or b is None:
                continue
            worse = (b - a) / a if metric["better"] == "lower" \
                else (a - b) / a
            if two_sided:
                worse = abs(worse)
            verdict = "PASS" if worse <= metric["bound"] else "FAIL"
            fails += verdict == "FAIL"
            print(f"{name:<20} {metric['name']:<16} {a:>14.6g} {b:>14.6g} "
                  f"{worse:>+9.2%}  {metric['bound']:.1%} {verdict}")
    return fails


def driver_line(row, contract, trace):
    """The one JSON object the driver reads."""
    values = dict(row.get("diag", {}), **row.get("layers", {})) if trace \
        else row["e2e"]
    metrics = {}
    for metric in contract["per_layer" if trace else "end_to_end"]:
        value = values[metric["name"]]
        if not math.isfinite(value):
            raise SystemExit(f"{metric['name']} is not finite: {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": row["correct"],
                       "attempted": row["attempted"],
                       "failed": row["failed"], "metrics": metrics})


def main():
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true",
                        help="after the untraced run, make the traced "
                             "one too (spans, per-layer pass)")
    parser.add_argument("--out", default=os.path.join(WORK, "out"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--check", metavar="BASELINE.json")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("benchmarks/e2e/run.py: no src/repro next to the "
                         "benchmark: nothing to measure")
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    todo = [args.workload] if args.workload else names

    def one_set(order):
        rows = {}
        for name in order:
            rows[name] = run_workload(name, args, out_dir)
            print_row(rows[name], contract)
        return rows

    rows = one_set(todo)
    bad = sum(not row["correct"] for row in rows.values())
    if args.aa:
        # second set in the opposite order, so slow drift of the host
        # lands on different workloads in the two sets
        again = one_set(todo[::-1])
        bad += sum(not row["correct"] for row in again.values())
        bad += compare("A", rows, "A'", again, contract, two_sided=True)
        rows = {"A": rows, "A'": again}
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            baseline = json.load(fh)
        bad += compare("baseline", baseline, "this run", rows, contract)
    with open(os.path.join(out_dir, "results.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.workload and not args.aa:
        print(driver_line(rows[args.workload], contract, args.trace))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
