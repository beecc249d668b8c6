"""Every MATLAB program the repo ships, for whole-corpus front-end and
inference tests: the paper workloads of ``repro.bench.workloads`` (both
scales), the frozen benchmark inputs under ``benchmarks/e2e/programs/``
and the scripts embedded in ``examples/``."""

import importlib.util
from pathlib import Path

from repro.bench.workloads import all_workloads, image_filter

ROOT = Path(__file__).resolve().parent.parent


def _example(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)     # every example guards main()
    return module


#: every op that is one ``remap`` — transposes, column, row and range
#: reads and stores, flips, ``reshape``, ``repmat`` — a vector ``tril`` /
#: ``triu``, and the slicing heat (docs/PERFORMANCE_MODEL.md §5), so
#: that ``tools/identity_sweep.py`` covers indexing
INDEXING = """\
rand('seed', 11);
A = rand(24, 10);
B = A';
S = (A + B') / 2;
c = A(:, 3);
r = A(7, :);
R = A(5:20, 2:9);
A(3:22, 4) = c(3:22) * 2;
A(9, 2:6) = r(2:6) + 1;
F = flipud(A) - 2 * fliplr(A);
Q = reshape(A, 40, 6);
M = repmat(Q(1:8, :), 2, 3);
v = rand(1, 40);
t = tril(v, 5) + triu(v', -3)';
n = 60;
a = 0.2;
u = zeros(1, n);
u(n / 2) = 1;
for step = 1:20
  u(2:n-1) = u(2:n-1) + a*(u(1:n-2) - 2*u(2:n-1) + u(3:n));
end
fprintf('%.6f %.6f %.6f\\n', sum(sum(S)), sum(c) + sum(r), sum(sum(R)));
fprintf('%.6f %.6f %.6f\\n', sum(sum(F)), sum(sum(M)), sum(t));
fprintf('%.6f %.6f\\n', sum(u), max(u));
"""


#: the ops whose collectives take one item per held rank: the sample
#: sort of a block vector (a cyclic one, under the cyclic map, and a
#: matrix take the gather), NaNs, blocks left empty by more ranks than
#: elements; ``find``, ``[m, k] = max/min`` with ties, real and complex
#: ``cumsum``/``cumprod``
SORTING = """\
rand('seed', 5);
v = rand(1, 45);
w = rand(33, 1) - 0.5;
w(7) = NaN;
w(20) = NaN;
A = rand(12, 5);
s = sort(v);
t = sort(w);
S = sort(A);
e = sort(rand(1, 3));
u = sort(round(8 * v));
i1 = find(v > 0.5);
i2 = find(A > 0.7);
[m1, k1] = max(w);
[m2, k2] = min(round(4 * v));
c1 = cumsum(v);
c2 = cumprod(1 + w(1:6) / 4);
z = cumprod(1 + (v(1:12) - 1i * v(45:-1:34)) / 8);
fprintf('%.6f %.6f %.6f %.6f\\n', s(1), s(45), sum(s), t(31));
fprintf('%.6f %.6f %.6f %d\\n', sum(sum(S)), sum(e), sum(u), numel(i1));
fprintf('%d %d %d %.6f %d\\n', sum(i2), k1, k2, m1, isnan(t(33)));
fprintf('%.6f %.6f %.6f %.6f\\n', c1(45), c2(6), real(z(12)), imag(z(12)));
"""


def e2e_programs():
    """``{name: (script source, {M-file name: source})}`` of the frozen
    end-to-end benchmark inputs: seven scripts sharing two M-files."""
    e2e = ROOT / "benchmarks" / "e2e" / "programs"
    mfiles = {path.stem: path.read_text(encoding="utf-8")
              for path in sorted((e2e / "mfiles").glob("*.m"))}
    return {path.stem: (path.read_text(encoding="utf-8"), mfiles)
            for path in sorted(e2e.glob("*.m"))}


def shipped_programs():
    """``{label: (script source, {M-file name: source})}``."""
    programs = {"tests/indexing": (INDEXING, {}),
                "tests/sorting": (SORTING, {})}
    for scale in ("small", "paper"):
        for workload in all_workloads(scale):
            programs[f"bench/{workload.key}@{scale}"] = (workload.source, {})
    programs["bench/image_filter"] = (image_filter().source, {})
    for stem, program in e2e_programs().items():
        programs[f"e2e/{stem}"] = program
    for path in sorted((ROOT / "examples").glob("*.py")):
        module = _example(path)
        if hasattr(module, "SCRIPT"):
            programs[f"examples/{path.stem}"] = (
                module.SCRIPT, dict(getattr(module, "MFILES", {})))
    return programs


def all_sources():
    """``{label: source}`` of every script and M-file above."""
    sources = {}
    for label, (script, mfiles) in shipped_programs().items():
        sources[label] = script
        for name, text in mfiles.items():
            sources[f"{label.split('/')[0]}/mfiles/{name}"] = text
    return sources


def batched_ops_source(n, nprocs, seed=1):
    """A script over ``n``-vectors and ``n``-row matrices that calls
    every op whose fused arm computes the ranks' partials in one numpy
    call per run of equally loaded ranks — the subject of the fused ==
    lockstep shape sweeps (``n < nprocs``, ``n % nprocs != 0``, ...).
    Shifts are sized around the block of ``n // nprocs`` elements:
    the ring exchange up to it, the alltoall beyond."""
    block = max(n // nprocs, 1)
    shifts = sorted({1, -1, block - 1, 1 - block, block, -block,
                     block + 1, -block - 1} - {0})
    return "\n".join([
        f"rand('seed', {seed});", f"n = {n};",
        "v = (rand(1, n) - 0.5) .* 10 .^ round(8 * rand(1, n) - 4);",
        "w = (rand(n, 1) - 0.5) .* 10 .^ round(8 * rand(n, 1) - 4);",
        "A = rand(n, 5) - 0.5;", "B = rand(n, 3) - 0.5;",
        "C = rand(4, n) - 0.5;",
        "z = v + 1i * circshift(v, 2);", "Z = A + 1i * circshift(A, [1, 1]);",
        "s = sum(v); p = prod(1 + v / n); hi = max(v); lo = min(w);",
        "mu = mean(w); d1 = dot(v, w); d2 = w' * w; d3 = v * w;",
        "y1 = C * w; y2 = A' * w; y3 = A' * B; y4 = v * A; y5 = C * A;",
        "t1 = trapz(v); t2 = trapz(linspace(0, 1, n), v);",
        "t3 = trapz2(A, 0.5, 0.25); c1 = cumsum(v); c2 = cumprod(1 + w / n);",
        "[mx, kx] = max(v); [mn, kn] = min(w);",
        "cs = sum(A); cp = prod(1 + A / 4); cm = max(A); ca = mean(A);",
        "rs = sum(A, 2); f1 = find(v > 0.1); f2 = find(A > 0.3);",
        "zs = sum(z); zd = z * z'; zc = cumsum(z);",
        "zp = cumprod(1 + 1i * (rand(n, 1) - 0.5));",
        "zy = Z' * w; zz = Z' * Z; zw = v * Z; zr = sum(Z, 2);",
        "q1 = circshift(A, [1, 2]); q2 = circshift(A, [-2, -1]);",
        "q3 = circshift(A, [0, 3]); q4 = circshift(v, [0, 2]);"]
        + [f"r{i} = circshift(v, {k}); u{i} = circshift(w, {k});"
           for i, k in enumerate(shifts)]) + "\n"
