"""``circshift``, element reads (``a(i)``, ``A(i, j)``) and guarded
scalar stores (``a(i) = x``): each is one op body over what the
descriptor holds.  The shift's plan (:func:`~repro.runtime.structural.
shift_plan`) picks a copy, a column step, a ring step, an alltoall or
the gather; the communicator moves the ring's edge and the alltoall's
pieces on lockstep and prices them in closed form under fusion.  An
element's position is the descriptor's ``held_index``.

The accounting is pinned as the two-armed bodies these replaced left
it: every rank's clock (``float.hex``), the message, byte and
collective counts, the canonical trace's SHA-256 and the defensive
copies the stores took (``set_element_copies``), at P in {1, 3, 4, 16}
under both maps, on both backends.  The shifts cover vectors and
matrices, scalar and ``[kr kc]`` shifts of one, of more than the
smallest block, of a whole turn and negative ones, a run-time shift
vector and a matrix with fewer rows than ranks; the stores cover the
in-place loop, an aliased store (copied), a store into a remap's
result and a complex value into a real matrix.  The values are small
integers, so every result equals the interpreter's bit for bit."""

import hashlib

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.interp.interpreter import run_source
from repro.runtime.context import RuntimeContext
from repro.trace import canonical_events
from repro.tuning import Plan

SOURCE = """\
v = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 9, 0, 0, 7, 9, 2, 0, 1, 8, 4];
c = v';
A = reshape(1:60, 20, 3);
S = reshape(1:36, 12, 3);
z = v + 1i * (v > 4);
s1 = circshift(v, 1);
s2 = circshift(c, -1);
s3 = circshift(v, 7);
s4 = circshift(c, -9);
s5 = circshift(v, 21);
s6 = circshift(v, -43);
s7 = circshift(z, 2);
s8 = circshift(v, [0, 3]);
s9 = circshift(v, [1, 0]);
s10 = circshift(c, [-2, 5]);
m1 = circshift(A, 1);
m2 = circshift(A, -1);
m3 = circshift(A, 7);
m4 = circshift(A, 20);
m5 = circshift(A, [1, 1]);
m6 = circshift(A, [0, -1]);
m7 = circshift(A, [-6, 2]);
m8 = circshift(A, [20, 3]);
m9 = circshift(A, [0, 3]);
m10 = circshift(S, 1);
m11 = circshift(S, [-1, 1]);
k = [2, -1];
m12 = circshift(A, k);
x1 = v(3);
x2 = A(2, 3);
x3 = A(47);
x4 = z(8);
x5 = c(21);
t = 0;
for i = 1:21
  t = t + v(i) * c(22 - i);
end
w = zeros(1, 21);
for i = 1:21
  w(i) = v(i) * 2;
end
u = w;
w(2) = 5;
A(3, 2) = 7;
A(20) = -1;
B = A;
A(20, 3) = 0.5;
S(5) = 2 + 3i;
z(2) = 4;
r = w(2) + u(2) + A(3, 2) + B(20, 3);
"""

#: (P, scheme) -> (every rank's clock, messages, bytes, collectives,
#: collective counts, canonical trace SHA-256 prefix)
AT_PARENT = {
    (1, "block"): (
        ("0x1.27637cf531aa1p-11",) * 1,
        0, 0, 16, {"alltoall": 16, "bcast": 72},
        "056081b0b657ae34"),
    (1, "cyclic"): (
        ("0x1.2f0d81dc48436p-11",) * 1,
        0, 0, 19, {"allgather": 19, "bcast": 72},
        "0e647104051606e8"),
    (3, "block"): (
        ("0x1.c66b10b19967bp-7",) * 3,
        42, 1392, 76, {"alltoall": 4, "bcast": 72},
        "d2bacfcb61e220d8"),
    (3, "cyclic"): (
        ("0x1.f831e11bcccafp-7",) * 3,
        0, 0, 92, {"allgather": 19, "alltoall": 1, "bcast": 72},
        "122a3b2da174a5b9"),
    (4, "block"): (
        ("0x1.db8ebd3fcf8a0p-7",) * 4,
        48, 1056, 78, {"alltoall": 6, "bcast": 72},
        "15737e107bce9a26"),
    (4, "cyclic"): (
        ("0x1.1280160812ae6p-6",) * 4,
        0, 0, 91, {"allgather": 19, "bcast": 72},
        "6790f0a5916c74aa"),
    (16, "block"): (
        ("0x1.3c512f6ea1d03p-5",) * 16,
        96, 1536, 84, {"allgather": 2, "alltoall": 10, "bcast": 72},
        "2e97f18b8d692b7b"),
    (16, "cyclic"): (
        ("0x1.918db9530dbd5p-5",) * 16,
        0, 0, 93, {"allgather": 19, "alltoall": 2, "bcast": 72},
        "f7a1d274cae3277b"),
}

#: the defensive copies each rank's stores took: the aliased ``w(2)``
#: and ``A(20, 3)``, on both backends (``A(3, 2)`` writes in place: a
#: block whose base only it refers to is its own memory, the one
#: ``distribution.owns_memory`` rule both descriptors share)
COPIES = {"lockstep": 2, "fused": 2}


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE, name="shift_and_element")


@pytest.fixture(scope="module")
def oracle():
    return run_source(SOURCE).workspace


@pytest.mark.parametrize("backend", ("lockstep", "fused"))
@pytest.mark.parametrize("nprocs, scheme", sorted(AT_PARENT))
def test_charges_what_the_two_armed_bodies_did(program, oracle, nprocs,
                                               scheme, backend,
                                               monkeypatch):
    copies = []
    close = RuntimeContext.close

    def closing(rt):
        copies.append(rt.set_element_copies)
        close(rt)

    monkeypatch.setattr(RuntimeContext, "close", closing)
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
    ranks = nprocs if backend == "lockstep" else 1
    assert copies == [COPIES[backend]] * ranks
