"""Ablation — replicate-on-first-use gather caching in the run-time.

The paper's run-time library re-gathers a distributed operand every time
a communication-requiring operation needs it replicated.  Because the
reproduction's MATRIX values are immutable, the gathered replica can be
memoized on the descriptor; this benchmark measures how much of the
modeled communication that recovers on a product-heavy kernel (default
remains OFF to keep the figure calibration paper-faithful).
"""

from repro.compiler import compile_source
from repro.tuning import Plan

SRC = """\
rand('seed', 44);
n = 192;
B = rand(n, n);
A = rand(n, n);
C = rand(n, n);
acc = zeros(n, n);
for k = 1:12
    acc = acc + A * B + C * B;
end
chk = sum(sum(acc));
fprintf('gather-cache chk %.6e\\n', chk);
"""


def test_ablation_gather_cache(benchmark):
    no_licm = Plan(licm="off")  # keep products in the loop
    program = compile_source(SRC, plan=no_licm)

    def measure():
        off = program.run(nprocs=8, plan=no_licm)
        on = program.run(nprocs=8,
                         plan=Plan(licm="off", cache_gathers=True))
        return off, on

    off, on = benchmark.pedantic(measure, rounds=1, iterations=1)
    gain = off.elapsed / on.elapsed
    ag_off = off.spmd.collective_counts.get("allgather", 0)
    ag_on = on.spmd.collective_counts.get("allgather", 0)
    print(f"\nAblation (gather cache): {off.elapsed * 1e3:.1f} ms "
          f"({ag_off} allgathers) vs {on.elapsed * 1e3:.1f} ms "
          f"({ag_on} allgathers) -> {gain:.2f}x")

    assert on.workspace["chk"] == off.workspace["chk"]
    assert ag_on < ag_off / 2
    assert gain > 1.05
    benchmark.extra_info["gain"] = round(gain, 3)
    benchmark.extra_info["allgathers"] = [ag_off, ag_on]
