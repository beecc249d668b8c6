"""Concurrency stress: N sessions hammering one server.

Pins the multiplexing contract (docs/SERVICE.md): exactly one compile
per distinct compile key no matter how many sessions race or at how
many processor counts they run, no cross-session workspace or RNG
bleed, and a per-request watchdog that aborts only its own session's
run.
"""

import threading

import pytest

from repro.service import ServiceError, ServiceServer
from repro.service.cache import CompileCache

NPROCS = 2
NPROCS_MIX = (1, 2, 4)

# miniature versions of the paper's workload mix
HEAT = (
    "u = zeros(8, 8);\n"
    "f = ones(8, 8);\n"
    "for it = 1:5\n"
    "  u = u + f * 0.1;\n"
    "end\n"
    "disp(sum(sum(u)));\n"
)
CG = (
    "A = ones(6, 6) + 5 * eye(6);\n"
    "x = ones(6, 1);\n"
    "for it = 1:4\n"
    "  x = A * x;\n"
    "end\n"
    "disp(sum(x));\n"
)
OCEAN = (
    "psi = ones(8, 8);\n"
    "for it = 1:3\n"
    "  psi = psi * 0.5 + 1;\n"
    "end\n"
    "disp(sum(sum(psi)));\n"
)
WORKLOADS = (HEAT, CG, OCEAN)

RAND_SRC = "r = rand(6, 6);\ndisp(sum(sum(r)));\n"

SLOW = (
    "s = 0;\n"
    "for i = 1:5000\n"
    "  s = s + sum(sum(ones(8, 8)));\n"
    "end\n"
    "disp(s);\n"
)


def _run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_stress_one_compile_per_unique_key_and_identical_outputs():
    server = ServiceServer(cache=CompileCache(disk_root=False))
    nthreads, rounds = 9, 3
    barrier = threading.Barrier(nthreads)
    results: dict[int, list] = {}
    keys: set = set()
    failures: list = []

    def session(tid):
        try:
            with server.loopback() as client:
                barrier.wait()
                mine = []
                for r in range(rounds):
                    src = WORKLOADS[(tid + r) % len(WORKLOADS)]
                    nprocs = NPROCS_MIX[tid % len(NPROCS_MIX)]
                    reply = client.run(src, nprocs=nprocs)
                    keys.add(reply["key"])
                    mine.append((src, nprocs, reply["output"],
                                 reply["elapsed"]))
                results[tid] = mine
        except Exception as exc:  # noqa: BLE001 — collected for the assert
            failures.append((tid, exc))

    _run_threads([lambda tid=i: session(tid) for i in range(nthreads)])
    assert not failures
    assert len(results) == nthreads

    # exactly one compile per distinct compile key, no matter the
    # contention or the processor counts the sessions ran at
    stats = server.cache.stats()
    assert len(keys) == len(WORKLOADS)
    assert stats["compiles"] == len(keys)
    assert stats["hits"] + stats["misses"] == nthreads * rounds

    # every session saw the same output per source, and the same
    # modeled time per (source, nprocs)
    outputs: dict[str, set] = {}
    clocks: dict[tuple, set] = {}
    for mine in results.values():
        for src, nprocs, output, elapsed in mine:
            outputs.setdefault(src, set()).add(output)
            clocks.setdefault((src, nprocs), set()).add(elapsed)
    assert set(outputs) == set(WORKLOADS)
    assert len(clocks) == len(WORKLOADS) * len(NPROCS_MIX)
    for what, outcomes in list(outputs.items()) + list(clocks.items()):
        assert len(outcomes) == 1, f"nondeterministic results for {what!r}"


def test_no_rng_bleed_between_concurrent_sessions():
    """Seeded RNG state is per-run: concurrent sessions using different
    seeds must each see their seed's exact stream, repeatably."""
    server = ServiceServer(cache=CompileCache(disk_root=False))
    seeds = (0, 1, 2, 3)
    repeats = 3
    barrier = threading.Barrier(len(seeds))
    outputs: dict[int, set] = {seed: set() for seed in seeds}
    failures: list = []

    def session(seed):
        try:
            with server.loopback() as client:
                barrier.wait()
                for _ in range(repeats):
                    reply = client.run(RAND_SRC, nprocs=NPROCS, seed=seed)
                    outputs[seed].add(reply["output"])
        except Exception as exc:  # noqa: BLE001
            failures.append((seed, exc))

    _run_threads([lambda s=seed: session(s) for seed in seeds])
    assert not failures
    # deterministic within a seed...
    for seed in seeds:
        assert len(outputs[seed]) == 1
    # ...and distinct across seeds (no shared RNG stream)
    distinct = {next(iter(outputs[seed])) for seed in seeds}
    assert len(distinct) == len(seeds)
    # one compile served every seed (seed is not part of the key)
    assert server.cache.stats()["compiles"] == 1


def test_watchdog_fires_per_session_not_per_server():
    server = ServiceServer(cache=CompileCache(disk_root=False))
    barrier = threading.Barrier(2)
    box: dict = {}

    def victim():
        with server.loopback() as client:
            barrier.wait()
            try:
                client.run(SLOW, nprocs=NPROCS, watchdog=1e-6)
                box["victim"] = "no error"
            except ServiceError as exc:
                box["victim"] = exc.kind
            # the session itself survives its aborted run
            box["victim_after"] = client.run(HEAT, nprocs=NPROCS)["output"]

    def bystander():
        with server.loopback() as client:
            barrier.wait()
            box["bystander"] = client.run(HEAT, nprocs=NPROCS)["output"]

    _run_threads([victim, bystander])
    assert box["victim"] == "SpmdWatchdogError"
    assert box["victim_after"] == box["bystander"]
    with server.loopback() as probe:
        assert probe.stats()["tracker_installed"] is False


@pytest.mark.parametrize("tier", ["memory", "disk"])
def test_stress_with_disk_tier_stays_single_flight(tier, tmp_path):
    root = False if tier == "memory" else tmp_path / "programs"
    server = ServiceServer(cache=CompileCache(disk_root=root))
    nthreads = 6
    barrier = threading.Barrier(nthreads)
    failures: list = []

    def session():
        try:
            with server.loopback() as client:
                barrier.wait()
                assert client.run(CG, nprocs=NPROCS)["ok"]
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    _run_threads([session] * nthreads)
    assert not failures
    assert server.cache.stats()["compiles"] == 1
