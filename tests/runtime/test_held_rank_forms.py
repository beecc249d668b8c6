"""``find``, ``[m, k] = max/min``, vector ``cumsum``/``cumprod`` and
the sample ``sort``: each is one op body over the ranks it holds, and
the communicator's per-held-rank forms (``collect``, ``combine``,
``route``, ``prefixes``, ``own``) move the pieces on lockstep and price
them in closed form under fusion.

The accounting is pinned as the two-armed bodies these replaced left
it: every rank's clock (``float.hex``), the message, byte and
collective counts and the canonical trace's SHA-256, at P in
{1, 3, 4, 16} under both maps, on both backends.  The values are
small integers, powers of two and Gaussian integers, so every partial
sum and product is exact and the values equal the interpreter's bit
for bit."""

import hashlib

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.interp.interpreter import run_source
from repro.trace import canonical_events
from repro.tuning import Plan

#: ties (the extrema of ``v``), NaNs (``u``), empty blocks (``u`` at
#: P = 16), a matrix ``find`` and ``sort`` (the gather), complex scans
SOURCE = """\
v = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 9, 0, 0, 7, 9, 2, 0, 1, 8, 4];
u = [2, NaN, 1, 7, NaN, 7, 0];
A = [1, 0, 2; 0, 0, 3; 4, 0, 0; 0, 5, 6; 7, 0, 0];
p = [1, 2, -1, 0.5, 2, 1, -2, 0.5, 1, 2, 4, 0.25, -1, 1, 2];
i1 = find(v);
i2 = find(A);
i3 = find(u > 1);
[m1, k1] = max(v);
[m2, k2] = min(v);
[m3, k3] = max(u);
[m4, k4] = min(-u');
c1 = cumsum(v);
c2 = cumprod(p);
z = v(1:15) + 1i * p;
c3 = cumsum(z);
c4 = cumprod(p + 1i * (p > 0));
s1 = sort(v);
s2 = sort(u);
s3 = sort(A);
s4 = sort(-v');
q = s1 .* 2 + c1;
"""

#: (P, scheme) -> (every rank's clock, messages, bytes, collectives,
#: collective counts, canonical trace SHA-256 prefix)
AT_PARENT = {
    (1, "block"): (
        ("0x1.09c770b40ed77p-13",) * 1,
        0, 0, 12, {"allgather": 8, "allreduce": 4, "scan": 4},
        "524f6dacd2a0c2d4"),
    (1, "cyclic"): (
        ("0x1.370a17355211cp-13",) * 1,
        0, 0, 17, {"allgather": 13, "allreduce": 4, "scan": 4},
        "78003be71466c211"),
    (3, "block"): (
        ("0x1.6e1185bab51a9p-8",) * 3,
        0, 0, 26, {"allgather": 14, "allreduce": 4, "alltoall": 4, "scan": 4},
        "4781b1155ce58467"),
    (3, "cyclic"): (
        ("0x1.3baf3044e70e6p-8",) * 3,
        0, 0, 21, {"allgather": 13, "allreduce": 4, "scan": 4},
        "b226e2212ad0ec22"),
    (4, "block"): (
        ("0x1.ccf156b7d9e5ap-8",) * 1 + ("0x1.ccefea4bf499bp-8",) * 3,
        0, 0, 26, {"allgather": 14, "allreduce": 4, "alltoall": 4, "scan": 4},
        "17ea09403b1a526a"),
    (4, "cyclic"): (
        ("0x1.802c46288c730p-8",) * 1 + ("0x1.802ad9bca7271p-8",) * 3,
        0, 0, 21, {"allgather": 13, "allreduce": 4, "scan": 4},
        "6db5339e9dde919e"),
    (16, "block"): (
        ("0x1.ba8c528d215e6p-6",) * 5 + ("0x1.ba8bf772280b6p-6",) * 11,
        0, 0, 26, {"allgather": 14, "allreduce": 4, "alltoall": 4, "scan": 4},
        "94c50f8e9aeeea56"),
    (16, "cyclic"): (
        ("0x1.5702d52598d9bp-6",) * 5 + ("0x1.57027a0a9f86bp-6",) * 11,
        0, 0, 21, {"allgather": 13, "allreduce": 4, "scan": 4},
        "499e69186af339f6"),
}


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE, name="held_ranks")


@pytest.fixture(scope="module")
def oracle():
    return run_source(SOURCE).workspace


@pytest.mark.parametrize("backend", ("lockstep", "fused"))
@pytest.mark.parametrize("nprocs, scheme", sorted(AT_PARENT))
def test_charges_what_the_two_armed_bodies_did(program, oracle, nprocs,
                                               scheme, backend):
    result = program.run(nprocs=nprocs, backend=backend, native="off",
                         plan=Plan(scheme=scheme), trace=True)
    assert result.spmd.backend == backend
    for name, want in oracle.items():
        got, want = np.asarray(result.workspace[name]), np.asarray(want)
        assert got.shape == want.shape and got.dtype == want.dtype \
            and got.tobytes() == want.tobytes(), name
    spmd = result.spmd
    trace = hashlib.sha256(
        canonical_events(result.trace).encode()).hexdigest()[:16]
    assert (tuple(float(t).hex() for t in spmd.times), spmd.messages_sent,
            spmd.bytes_sent, spmd.collectives,
            dict(spmd.collective_counts), trace) == AT_PARENT[nprocs, scheme]
