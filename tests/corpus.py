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


def shipped_programs():
    """``{label: (script source, {M-file name: source})}``."""
    programs = {}
    for scale in ("small", "paper"):
        for workload in all_workloads(scale):
            programs[f"bench/{workload.key}@{scale}"] = (workload.source, {})
    programs["bench/image_filter"] = (image_filter().source, {})
    e2e = ROOT / "benchmarks" / "e2e" / "programs"
    mfiles = {path.stem: path.read_text(encoding="utf-8")
              for path in sorted((e2e / "mfiles").glob("*.m"))}
    for path in sorted(e2e.glob("*.m")):
        programs[f"e2e/{path.stem}"] = (path.read_text(encoding="utf-8"),
                                        mfiles)
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
