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


def _image_filter_counts(fusion, nprocs=4):
    """One fused native run of the image filter under ``fusion``: the
    result, each group kernel's output count (``None``: every member),
    and the shifted arrays made — by ``circshift``'s rotations or by a
    halo tap's full kernel."""
    from repro.native import get_engine
    from repro.runtime import context, structural

    source = (PROGRAMS / "image_filter.m").read_text(encoding="utf-8")
    plan = Plan(fusion=fusion)
    program = compile_source(source, name="image_filter", plan=plan)
    engine = get_engine()
    outs, shifted = [], []
    run_group, rotated, tap = engine.run_group, structural._rotated, \
        context.Group.tap

    def counting(gspec, sig, args, values, shape, bufs, spare, out=None,
                 shifts=()):
        outs.append(None if out is None else len(out))
        return run_group(gspec, sig, args, values, shape, bufs, spare, out,
                         shifts)

    def tapped(group):
        value = tap(group)
        if value.held.strides[0]:       # an array, not the zero view
            shifted.append(value)
        return value

    engine.run_group = counting
    structural._rotated = lambda *a: shifted.append(a) or rotated(*a)
    context.Group.tap = tapped
    try:
        result = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                             backend="fused", native="auto", plan=plan,
                             trace=True)
    finally:
        del engine.run_group
        structural._rotated, context.Group.tap = rotated, tap
    return result, outs, len(shifted)


def test_ablation_ew_group(benchmark):
    """``ew_group`` on vs off (``halo`` and ``lean``, which would take
    its place, off either way) on the image filter at 4 CPUs, fused
    with the native tier: the ten elementwise statements of a step are
    one kernel call instead of ten — 160 → 16 calls a run — and the
    modeled time does not move."""
    from repro.native import resolve_native

    if resolve_native("auto") is None:
        pytest.skip("native tier unavailable")
    plain = tuple(r for r in FUSION_REWRITES if r not in ("halo", "lean"))
    source = (PROGRAMS / "image_filter.m").read_text(encoding="utf-8")

    def measure():
        runs = {}
        for label, fusion in (
                ("on", plain),
                ("off", tuple(r for r in plain if r != "ew_group"))):
            plan = Plan(fusion=fusion)
            runs[label] = compile_source(
                source, name="image_filter", plan=plan).run(
                nprocs=4, machine=MEIKO_CS2, backend="fused", native="auto",
                plan=plan)
        return runs

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)
    on, off = runs["on"], runs["off"]
    print(f"\nAblation (ew_group, image_filter @ 4 x {MEIKO_CS2.name}): "
          f"{on.native['native_calls']} native calls vs "
          f"{off.native['native_calls']} without, "
          f"{on.elapsed * 1e3:.3f} ms modeled both")
    assert (on.native["native_calls"], off.native["native_calls"]) \
        == (16, 160)
    assert on.elapsed == off.elapsed and on.output == off.output
    benchmark.extra_info.update({
        "program": "image_filter", "nprocs": 4,
        "on_native_calls": on.native["native_calls"],
        "off_native_calls": off.native["native_calls"],
        "modeled_ms": round(on.elapsed * 1e3, 6),
    })


#: row -> per run of the image filter at 4 CPUs, with the whole registry
#: and without the row: the group calls' output counts and the shifted
#: arrays made
HOST_ROWS = {
    # the shifts are taps: no rotation, and the last step's full kernel
    # writes the four shifted arrays the workspace keeps
    "halo": (([1] * 15 + [13], 4), ([1] * 15 + [9], 64)),
    # steps before the last write ``img`` alone
    "lean": (([1] * 15 + [13], 4), ([None] * 16, 64)),
}


@pytest.mark.parametrize("row", sorted(HOST_ROWS))
def test_ablation_host_rows(benchmark, row):
    """``halo`` and ``lean`` each on vs off (the rest of the registry on
    either way) on the image filter at 4 CPUs, fused with the native
    tier: 16 group calls a run either way, fewer arrays written and no
    rotation with the row, and the same output, modeled clock and
    trace."""
    from repro.native import resolve_native
    from repro.trace import canonical_events

    if resolve_native("auto") is None:
        pytest.skip("native tier unavailable")

    def measure():
        return {label: _image_filter_counts(fusion) for label, fusion in (
            ("on", FUSION_REWRITES),
            ("off", tuple(r for r in FUSION_REWRITES if r != row)))}

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)
    (on, on_outs, on_shifted), (off, off_outs, off_shifted) = \
        runs["on"], runs["off"]
    print(f"\nAblation ({row}, image_filter @ 4 x {MEIKO_CS2.name}): "
          f"group outputs {on_outs} vs {off_outs} without, shifted arrays "
          f"{on_shifted} vs {off_shifted}, {on.elapsed * 1e3:.3f} ms "
          f"modeled both")
    assert ((on_outs, on_shifted), (off_outs, off_shifted)) == HOST_ROWS[row]
    assert on.elapsed == off.elapsed and on.output == off.output
    assert on.spmd.times == off.spmd.times
    assert canonical_events(on.trace) == canonical_events(off.trace)
    benchmark.extra_info.update({
        "program": "image_filter", "nprocs": 4, "row": row,
        "on_arrays_written": sum(n or 14 for n in on_outs),
        "off_arrays_written": sum(n or 14 for n in off_outs),
        "on_shifted": on_shifted, "off_shifted": off_shifted,
        "modeled_ms": round(on.elapsed * 1e3, 6),
    })
