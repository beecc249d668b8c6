"""Ablation — pass 6 (peephole) on vs off.

The paper motivates the pass as replacing "a sequence of run-time library
calls ... by a single call".  The biggest win is the fused ``A' * B``
(transpose+multiply), which avoids materializing/gathering the transpose;
a normal-equations gradient iteration is the showcase.  CG's vector dots
also fuse, but vector transposes are layout-free in this runtime, so the
effect there is small — which the benchmark records too.
"""

from pathlib import Path

import pytest

from repro.bench.harness import BenchHarness
from repro.bench.workloads import Workload, make_workload
from repro.compiler import compile_source
from repro.mpi import MEIKO_CS2
from repro.tuning import FUSION_REWRITES, Plan

NORMAL_EQS = Workload("normal_eqs", "Normal equations gradient", """\
% Gradient iterations on the least-squares normal equations.
rand('seed', 31);
m = 1024;
n = 256;
A = rand(m, n);
xtrue = ones(n, 1);
b = A * xtrue;
x = zeros(n, 1);
mu = 0.5 / m;
for k = 1:30
    r = A * x - b;
    g = A' * r;                      % <- transpose + multiply fusion
    x = x - mu * g;
end
err = max(abs(x - xtrue));
fprintf('normal-eqs err %.3e\\n', err);
""")


def test_ablation_peephole(benchmark, harness):
    def measure():
        on = harness.otter_time(NORMAL_EQS, nprocs=8, peephole=True)
        off = harness.otter_time(NORMAL_EQS, nprocs=8, peephole=False)
        return on, off

    on, off = benchmark.pedantic(measure, rounds=1, iterations=1)
    gain = off / on
    print(f"\nAblation (pass 6 peephole): fused {on * 1e3:.2f} ms vs "
          f"unfused {off * 1e3:.2f} ms -> {gain:.2f}x")

    # the fused A'*r must be a clear win
    assert gain > 1.3

    stats = harness.compiled(NORMAL_EQS, peephole=True).peephole_stats
    assert stats.transpose_fused == 1

    # CG's dots fuse too, but must never get *slower*
    cg = make_workload("cg", scale="small")
    cg_on = harness.otter_time(cg, nprocs=8, peephole=True)
    cg_off = harness.otter_time(cg, nprocs=8, peephole=False)
    assert cg_on <= cg_off * 1.01
    benchmark.extra_info["normal_eqs_gain"] = round(gain, 3)
    benchmark.extra_info["cg_gain"] = round(cg_off / cg_on, 4)


#: the frozen benchmark inputs (read, never edited)
PROGRAMS = Path(__file__).resolve().parent / "e2e" / "programs"

#: rewrite -> the program it was measured on for ROADMAP item 1, and the
#: collectives it must remove from one run at 16 Meiko CPUs
COLLECTIVE_REWRITES = {
    "const_args": ("image_filter", 64),     # one allgather per circshift
    "reduce2": ("closure", 1),              # sum(sum(R)): the scalar one
    "batch_reduce": ("nbody", 16),          # 3 means -> 1, 8 steps
}


@pytest.mark.parametrize("rewrite", sorted(COLLECTIVE_REWRITES))
def test_ablation_collective_rewrites(benchmark, rewrite):
    """Each collective-removing rewrite on vs off (the rest of the
    registry on either way): modeled time and collective count at 16
    CPUs of the Meiko CS-2, same printed output."""
    key, removed = COLLECTIVE_REWRITES[rewrite]
    source = (PROGRAMS / f"{key}.m").read_text(encoding="utf-8")

    def measure():
        runs = {}
        for label, fusion in (
                ("on", FUSION_REWRITES),
                ("off", tuple(r for r in FUSION_REWRITES if r != rewrite))):
            plan = Plan(fusion=fusion)
            runs[label] = compile_source(source, name=key, plan=plan).run(
                nprocs=16, machine=MEIKO_CS2, backend="fused", plan=plan)
        return runs

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)
    on, off = runs["on"], runs["off"]
    print(f"\nAblation ({rewrite}, {key} @ 16 x {MEIKO_CS2.name}): "
          f"{on.elapsed * 1e3:.3f} ms / {on.spmd.collectives} collectives "
          f"vs {off.elapsed * 1e3:.3f} ms / {off.spmd.collectives} without")
    assert on.output == off.output
    assert off.spmd.collectives - on.spmd.collectives == removed
    assert on.elapsed < off.elapsed
    benchmark.extra_info.update({
        "program": key, "machine": MEIKO_CS2.name, "nprocs": 16,
        "on_ms": round(on.elapsed * 1e3, 6),
        "off_ms": round(off.elapsed * 1e3, 6),
        "on_collectives": on.spmd.collectives,
        "off_collectives": off.spmd.collectives,
    })
