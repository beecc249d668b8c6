"""Backend-differential golden traces.

For two representative workloads (heat diffusion and conjugate
gradient) the per-source-line communication profile — and a SHA-256 of
the full canonical event stream — is pinned to committed golden files.
The same bytes must come out of every backend (``lockstep``,
``fused``) and out of repeated runs: the trace layer rides
on the repo's standing invariant that all backends produce bit-identical
virtual clocks and communication accounting.

Regenerate after an intentional model change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/trace/test_golden_traces.py
"""

import hashlib
import os

import pytest

from repro.bench.workloads import conjugate_gradient, image_filter
from repro.compiler import compile_source
from repro.mpi import MEIKO_CS2
from repro.native import get_engine
from repro.trace import canonical_events, render_source_profile

BACKENDS = ("lockstep", "fused")
NPROCS = 4
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

HEAT_SRC = """\
n = 64;
u = zeros(n, 1);
u(1) = 1.0;
alpha = 0.1;
for step = 1:8
  left = circshift(u, 1);
  right = circshift(u, -1);
  u = u + alpha * (left - 2 * u + right);
  total = sum(u);
end
disp(total);
"""

PROGRAMS = {
    "heat_diffusion": HEAT_SRC,
    "cg": conjugate_gradient(n=64, iters=8).source,
    "image_filter": image_filter(n=32, steps=2).source,
}


def _trace_text(key: str, source: str, backend: str,
                native: str = None) -> str:
    program = compile_source(source, name=key)
    result = program.run(nprocs=NPROCS, machine=MEIKO_CS2,
                         backend=backend, trace=True, native=native)
    profile = render_source_profile(result.trace.line_profile(), source,
                                    filename=key, elapsed=result.elapsed)
    digest = hashlib.sha256(
        canonical_events(result.trace).encode("utf-8")).hexdigest()
    return f"{profile}\ncanonical-sha256: {digest}\n"


def _golden_path(key: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{key}_p{NPROCS}.profile")


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_golden_trace_all_backends(key):
    source = PROGRAMS[key]
    texts = {backend: _trace_text(key, source, backend)
             for backend in BACKENDS}
    assert texts["lockstep"] == texts["fused"], \
        "fused backend diverged from lockstep trace"
    path = _golden_path(key)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts["lockstep"])
        pytest.skip(f"regenerated {path}")
    with open(path, "r", encoding="utf-8") as fh:
        golden = fh.read()
    assert texts["lockstep"] == golden, (
        f"trace for {key} drifted from {path}; if the cost model or "
        f"trace schema changed intentionally, regenerate with "
        f"REPRO_UPDATE_GOLDEN=1")


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_golden_trace_stable_across_runs(key):
    source = PROGRAMS[key]
    first = _trace_text(key, source, "lockstep")
    second = _trace_text(key, source, "lockstep")
    assert first == second


@pytest.mark.skipif(not get_engine().available,
                    reason="no C compiler / cffi: native tier unavailable")
def test_golden_trace_native_invariant():
    """The native kernel tier changes host time only: canonical event
    bytes (virtual clock, messages, bytes) must be identical with the
    tier forced off and forced on."""
    source = PROGRAMS["image_filter"]
    off = _trace_text("image_filter", source, "fused", native="off")
    on = _trace_text("image_filter", source, "fused", native="require")
    assert off == on, "native tier leaked into the canonical trace"
