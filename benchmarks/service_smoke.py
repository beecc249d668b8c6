"""CI service smoke: one server, two clients, warm runs compile nothing.

Run as a script (``PYTHONPATH=src:benchmarks python
benchmarks/service_smoke.py``).  Boots ``python -m repro.serve`` on an
ephemeral port with an on-disk compile-cache tier, connects two TCP
clients, and checks the docs/SERVICE.md acceptance criteria end to end:

* client 1's cold run compiles; client 2's identical request is a warm
  cache hit that executes **zero** compiler passes, and so is its
  repeat at a different processor count (one compiled program serves
  every run configuration);
* cold and warm responses are bit-identical — output, modeled elapsed
  time, per-rank clocks, message/byte counters, and the canonical trace
  SHA;
* a second server process over the same cache directory serves the
  request from the **disk** tier, again with zero passes and identical
  results (the compile-once-run-many story across restarts);
* hosted ``mem://`` data written by one session is visible to the next.

Writes ``service_report.json`` for the artifact and exits non-zero on
any violation.
"""

import json
import os
import re
import subprocess
import sys
import time

from repro.service import ServiceClient

WORKLOADS = {
    "heat": ("u = zeros(16, 16);\n"
             "f = ones(16, 16);\n"
             "for it = 1:8\n"
             "  u = u + f * 0.25;\n"
             "end\n"
             "disp(sum(sum(u)));\n"),
    "cg": ("A = ones(12, 12) + 11 * eye(12);\n"
           "x = ones(12, 1);\n"
           "for it = 1:6\n"
           "  x = A * x * 0.01;\n"
           "end\n"
           "disp(sum(x));\n"),
}
NPROCS = 4
OTHER_NPROCS = 8


def start_server(cache_dir: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"server did not come up: {line!r}")
    return proc, match.group(1), int(match.group(2))


def check_pair(cold: dict, warm: dict, failures: list, label: str) -> None:
    if not warm["cached"] or warm["passes"]:
        failures.append(f"{label}: warm run was not a zero-pass cache hit "
                        f"(cached={warm['cached']}, "
                        f"passes={len(warm['passes'])})")
    for field in ("output", "elapsed", "rank_times", "messages", "bytes",
                  "collectives"):
        if cold[field] != warm[field]:
            failures.append(f"{label}: {field} differs cold vs warm")
    if cold["trace"]["sha"] != warm["trace"]["sha"]:
        failures.append(f"{label}: canonical trace SHA drifted")


def main() -> int:
    cache_dir = os.path.abspath("service_cache")
    failures: list[str] = []
    report: dict = {"nprocs": NPROCS, "workloads": {}}

    proc, host, port = start_server(cache_dir)
    try:
        with ServiceClient.connect(host, port) as one, \
                ServiceClient.connect(host, port) as two:
            for name, src in WORKLOADS.items():
                t0 = time.perf_counter()
                cold = one.run(src, nprocs=NPROCS, trace=True)
                cold_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                warm = two.run(src, nprocs=NPROCS, trace=True)
                warm_s = time.perf_counter() - t0
                check_pair(cold, warm, failures, name)
                other = two.run(src, nprocs=OTHER_NPROCS)
                if not other["cached"] or other["passes"] \
                        or other["key"] != cold["key"]:
                    failures.append(
                        f"{name}: nprocs={OTHER_NPROCS} was not a zero-pass "
                        f"hit on the same key (cached={other['cached']}, "
                        f"passes={len(other['passes'])})")
                if other["output"] != cold["output"]:
                    failures.append(f"{name}: output differs at "
                                    f"nprocs={OTHER_NPROCS}")
                report["workloads"][name] = {
                    "key": cold["key"], "output": cold["output"].strip(),
                    "elapsed_virtual": cold["elapsed"],
                    "cold_host_s": cold_s, "warm_host_s": warm_s,
                    "warm_tier": warm["tier"],
                    "trace_sha": cold["trace"]["sha"],
                }
            stats = one.stats()
            report["cache"] = stats["cache"]
            if stats["cache"]["compiles"] != len(WORKLOADS):
                failures.append(
                    f"expected {len(WORKLOADS)} compiles, cache reports "
                    f"{stats['cache']['compiles']}")
            if stats["tracker_installed"]:
                failures.append("session left a memory tracker installed")
            two.shutdown()
    finally:
        proc.wait(timeout=10)

    # restart: a fresh server over the same cache dir must serve every
    # workload from the disk tier without running a single pass
    proc, host, port = start_server(cache_dir)
    try:
        with ServiceClient.connect(host, port) as c:
            for name, src in WORKLOADS.items():
                reply = c.run(src, nprocs=NPROCS, trace=True)
                if not reply["cached"] or reply["tier"] != "disk" \
                        or reply["passes"]:
                    failures.append(f"{name}: restart did not hit the disk "
                                    f"tier (tier={reply['tier']})")
                if reply["trace"]["sha"] != \
                        report["workloads"][name]["trace_sha"]:
                    failures.append(f"{name}: trace SHA drifted across "
                                    "server restart")
                report["workloads"][name]["restart_tier"] = reply["tier"]
            # hosted data round trip across sessions of this server
            c.run("a = ones(4, 4) * 2;\nsave('mem://smoke/a', a);\n",
                  nprocs=2)
        with ServiceClient.connect(host, port) as again:
            reply = again.run("b = load('mem://smoke/a');\n"
                              "disp(sum(sum(b)));\n", nprocs=2)
            if reply["output"].strip() != "32":
                failures.append("hosted mem:// data not shared across "
                                "sessions")
            again.shutdown()
    finally:
        proc.wait(timeout=10)

    report["failures"] = failures
    with open("service_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    for name, row in report["workloads"].items():
        print(f"[service-smoke] {name}: cold {row['cold_host_s'] * 1e3:.0f} "
              f"ms -> warm {row['warm_host_s'] * 1e3:.0f} ms "
              f"({row['warm_tier']} tier; restart: {row['restart_tier']})")
    if failures:
        print("FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("[service-smoke] ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
