"""Recycled op outputs on the fused backend (``Geometry.spare``).

A fused descriptor that dies as the only owner of its buffer hands the
buffer to its geometry's free list, and the next native kernel output or
shift rotation of that geometry is written into it.  The rule that makes
this safe is the reference count: a buffer anything else still refers
to — another variable bound to the same descriptor, a numpy view, a
final-workspace value, the gather cache, a live cffi buffer, a
user-function frame — is never handed out.  Each kind is a test below,
next to the positive control (a sole owner *is* recycled), the native
fallbacks that discard a recycled buffer after taking it, concurrent
sessions, and a corpus sweep: fused with recycling equals the lockstep
oracle on values, clocks, counts and canonical trace.
"""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import kernels as K
from repro.compiler import compile_source
from repro.frontend.mfile import DictProvider
from repro.mpi import MEIKO_CS2, run_spmd
from repro.native import NativeEngine, find_compiler
from repro.runtime import distribution
from repro.runtime.context import RuntimeContext
from repro.runtime.distribution import (SPARE_BYTES, SPARES, FreeList,
                                        get_geometry, sweep)
from repro.trace import canonical_events
from repro.tuning import Plan
from tests.corpus import shipped_programs

NPROCS = 4


@pytest.fixture(autouse=True)
def empty_free_lists():
    """Every test starts with nothing on any free list (whatever the
    tests before it left there)."""
    sweep(everything=True)
    assert SPARES.held == SPARES.placed == 0


def fused(body, native=None, cache_gathers=False):
    """``body(rt)`` on a fused run of :data:`NPROCS` ranks."""
    def main(comm):
        rt = RuntimeContext(comm, seed=1, native=native,
                            cache_gathers=cache_gathers)
        try:
            return body(rt)
        finally:
            rt.close()

    result = run_spmd(NPROCS, MEIKO_CS2, main, backend="fused")
    assert result.backend == "fused"
    return result.results[0]


def shifted(rt, mat, k=1.0):
    """A row shift: its output is a rotation into a recycled buffer."""
    return rt.call_builtin("circshift", [mat, k])


def in_pool(geom, address):
    return any(buf.ctypes.data == address for buf in geom.spare)


def churn(rt, rows, cols, steps=12):
    """Shift a fresh matrix ``steps`` times, each output dying as the
    next is made: returns the buffers' addresses, recycled ones repeat."""
    x = rt.rand(float(rows), float(cols))
    addresses = []
    for _ in range(steps):
        x = shifted(rt, x)
        addresses.append(x.held.ctypes.data)
    return addresses


def wanted(rt, mat, takes=2):
    """Outputs of ``takes`` shifts of ``mat``, to be kept alive: each
    take gives ``mat``'s geometry room for one more spare buffer."""
    return [shifted(rt, mat) for _ in range(takes)]


def test_a_dead_sole_owner_is_recycled():
    def body(rt):
        a = shifted(rt, rt.rand(40.0, 24.0))
        geom, address = a.geom, a.held.ctypes.data
        kept = wanted(rt, a)
        del a
        assert in_pool(geom, address)
        del kept
        assert 0 < SPARES.held < 2 * SPARE_BYTES
        addresses = churn(rt, 40, 24)
        assert len(set(addresses)) < len(addresses)
        return True

    assert fused(body)


@pytest.mark.parametrize("kind", ["alias", "view", "cffi", "gather-cache"])
def test_a_referenced_buffer_is_never_handed_out(kind):
    """The descriptor's buffer is still referenced when it dies: it must
    stay off the free list, and a churn of recycling ops of the same
    geometry must neither write into it nor hand it out."""
    if kind == "cffi":
        cffi = pytest.importorskip("cffi")
        ffi = cffi.FFI()

    def body(rt):
        rows, cols = 36, 20
        a = shifted(rt, rt.rand(float(rows), float(cols)))
        kept = wanted(rt, a)         # the list has room for a's buffer
        geom, address = a.geom, a.held.ctypes.data
        want = a.held.copy()
        if kind == "alias":
            keep = a                            # b = a
            read = lambda: keep.held            # noqa: E731
        elif kind == "view":
            keep = a.held[3:-3]
            read = lambda: keep                 # noqa: E731
            want = want[3:-3]
        elif kind == "cffi":
            keep = ffi.from_buffer("double[]", a.held)
            read = lambda: np.frombuffer(       # noqa: E731
                ffi.buffer(keep), dtype=np.float64).reshape(rows, cols)
        else:
            keep = rt.gather_full(a, copy=False)
            read = lambda: keep                 # noqa: E731
        del a
        assert not in_pool(geom, address)
        del kept
        addresses = churn(rt, rows, cols)
        assert address not in addresses
        assert len(set(addresses)) < len(addresses)     # it did recycle
        np.testing.assert_array_equal(read(), want)
        return True

    assert fused(body, cache_gathers=kind == "gather-cache")


#: a shape at least ``distribution.SPREAD_BYTES`` large: its fresh
#: buffers are views of an allocation only they refer to
PLACED = (96, 96)


def test_large_fresh_buffers_start_at_spread_page_offsets():
    placed = [FreeList(PLACED[0] * PLACED[1]).take(PLACED)
              for _ in range(16)]
    offsets = {buf.ctypes.data % distribution.PAGE for buf in placed}
    assert len(offsets) == 16 and all(off % 64 == 0 for off in offsets)
    assert all(buf.base is not None and buf.flags.c_contiguous
               for buf in placed)
    assert FreeList(40 * 24).take((40, 24)).base is None


def test_a_placed_allocation_is_placed_again_once_no_view_lives():
    """A free list keeps the allocations it places buffers in (a run's
    last buffers die with its result, past the free lists, and glibc
    would trim them off the heap top): one is placed again once no view
    of it lives, never while one does — and a sweep releases them as it
    releases the list's buffers."""
    spare = FreeList(PLACED[0] * PLACED[1])
    first = spare.take(PLACED)
    kept = first[2:5]
    del first
    second = spare.take(PLACED)
    assert not np.shares_memory(second, kept)
    del second
    table = len(spare.placed)
    assert SPARES.placed == sum(raw.nbytes for raw in spare.placed)
    for _ in range(2 * table + 2):
        again = spare.take(PLACED)
        assert id(again.base) in SPARES.kept
        assert not np.shares_memory(again, kept)
        del again
    assert len(spare.placed) == table
    sweep()                     # taken from: kept
    assert len(spare.placed) == table
    sweep()                     # not taken from since: released
    assert spare.placed == [] and SPARES.placed == 0 and not SPARES.kept
    kept[:] = 1.0               # the view still owns its memory
    assert (kept == 1.0).all()


def test_a_placed_buffer_is_recycled_and_a_view_of_it_is_not():
    """A placed buffer's sole owner recycles it; a view of it refers to
    its base, not to it, and still keeps it off the list."""
    def body(rt):
        a = shifted(rt, rt.rand(*map(float, PLACED)))
        assert a.held.base is not None
        kept = wanted(rt, a)
        geom, address = a.geom, a.held.ctypes.data
        del a
        assert in_pool(geom, address)
        b = shifted(rt, rt.rand(*map(float, PLACED)))
        view, address = b.held[3:-3], b.held.ctypes.data
        want = view.copy()
        del b, kept
        assert not in_pool(geom, address)
        addresses = churn(rt, *PLACED)
        assert address not in addresses
        assert len(set(addresses)) < len(addresses)
        np.testing.assert_array_equal(view, want)
        return True

    assert fused(body)


def test_a_store_into_a_placed_buffer_goes_in_place_unless_viewed():
    def body(rt):
        x = shifted(rt, rt.rand(*map(float, PLACED)))
        x = rt.set_element(x, [1.0, 1.0], 7.0, reuse=True)
        view = x.held[:2]
        x = rt.set_element(x, [1.0, 1.0], 8.0, reuse=True)
        assert view[0, 0] == 7.0 and x.held[0, 0] == 8.0
        return rt.set_element_copies

    assert fused(body) == 1


_STENCIL = """
rand('seed', 5);
u = rand(24, 16);
for s = 1:6
    u = (circshift(u, 1) + circshift(u, -1) + circshift(u, [0, 1])) ./ 3;
end
w = u .* 2;
"""


def test_final_workspace_values_are_never_recycled():
    """The workspace hands over the descriptors' own arrays: a later run
    of the same shapes recycles buffers, never those."""
    prog = compile_source(_STENCIL)
    first = prog.run(nprocs=NPROCS, backend="fused")
    kept = {name: np.array(value) for name, value in first.workspace.items()}
    for _ in range(3):
        later = prog.run(nprocs=NPROCS, backend="fused")
        for name, value in first.workspace.items():
            np.testing.assert_array_equal(value, kept[name])
            for other in later.workspace.values():
                assert not np.shares_memory(np.asarray(value),
                                            np.asarray(other))
    assert np.asarray(first.workspace["u"]).tobytes() == \
        np.asarray(later.workspace["u"]).tobytes()


_CALLER = """
rand('seed', 9);
a = rand(30, 12);
b = scale(a);
c = a + b;
"""

_SCALE = """
function r = scale(x)
  t = circshift(x, 1);
  for k = 1:4
    t = circshift(t, 1) .* 0.5;
  end
  r = x + t;
"""


def test_a_user_function_frame_keeps_its_arguments():
    """``x`` lives in the callee's frame while the callee's temporaries
    die and recycle: it is read intact at the end (fused == lockstep ==
    the interpreter)."""
    from repro.interp.interpreter import run_source

    provider = DictProvider({"scale": _SCALE})
    prog = compile_source(_CALLER, provider=provider)
    runs = [prog.run(nprocs=NPROCS, backend=backend)
            for backend in ("fused", "fused", "lockstep")]
    oracle = run_source(_CALLER, provider=provider).workspace
    for result in runs:
        for name in ("a", "b", "c"):
            assert np.asarray(result.workspace[name]).tobytes() == \
                np.asarray(oracle[name]).tobytes(), name


needs_cc = pytest.mark.skipif(find_compiler() is None,
                              reason="no C compiler")


@pytest.fixture
def engine(tmp_path):
    eng = NativeEngine(cache_dir=str(tmp_path / "kernels"))
    if not eng.available:
        pytest.skip(f"native tier unavailable: {eng.unavailable_reason}")
    return eng


def _primed(rt, rows, cols):
    """A matrix of values in [-0.5, 0.5), with a dead native output of
    its geometry on the free list."""
    a = rt.ew(lambda x: K.sub(x, 0.5), 1, rt.rand(float(rows), float(cols)),
              spec=("-", "@0", 0.5))
    dead = rt.ew(lambda x: K.add(x, 1.0), 1, a, spec=("+", "@0", 1.0))
    del dead
    assert a.geom.spare
    return a


@needs_cc
def test_a_guard_fallback_after_taking_a_buffer_returns_numpys_result(
        engine):
    def body(rt):
        a = _primed(rt, 28, 10)
        taken = len(a.geom.spare)
        root = rt.ew(lambda x: K.sqrt(x), 1, a, spec=("fn:sqrt", "@0"))
        assert len(a.geom.spare) == taken - 1      # the kernel had one
        assert engine.stats.snapshot()["guard_fallbacks"] == 1
        want = K.sqrt(a.held)
        assert np.iscomplexobj(root.held)
        assert root.held.tobytes() == want.tobytes()
        return True

    assert fused(body, native=engine)


@needs_cc
def test_a_group_never_writes_into_a_viewed_placed_buffer(engine):
    """``rt.ew_group`` writes an output into a dying old value's array
    only when that descriptor owns it alone: a view of a placed buffer
    (which refers to its base) keeps the group off it, a sole owner's
    array is taken."""
    gspec = ((("+", "@0", 1.0), (0,)), ((".*", "@0", 2.0), ("#0",)))

    def body(rt):
        a = rt.rand(*map(float, PLACED))
        old = shifted(rt, a)
        assert old.held.base is not None
        view, want = old.held[:2], old.held[:2].copy()
        group = rt.ew_group(gspec, (a,), (None, old))
        assert group is not None and group.outs[1] is not old.held
        np.testing.assert_array_equal(view, want)
        del view
        group = rt.ew_group(gspec, (a,), (None, old))
        assert group.outs[1] is old.held
        return True

    assert fused(body, native=engine)


@needs_cc
def test_a_verify_reject_after_taking_a_buffer_returns_numpys_result(
        engine):
    def body(rt):
        a = _primed(rt, 26, 10)
        taken = len(a.geom.spare)
        lying = lambda x: K.mul(x, 3.0)   # noqa: E731 — not what spec says
        out = rt.ew(lying, 1, a, spec=("+", "@0", 2.0))
        assert len(a.geom.spare) == taken - 1
        assert engine.stats.snapshot()["verify_rejects"] == 1
        assert out.held.tobytes() == (a.held * 3.0).tobytes()
        return True

    assert fused(body, native=engine)


def _holding(shape, buffers=1):
    """A free list that has asked for and holds ``buffers`` buffers."""
    spare = FreeList()
    for _ in range(buffers):
        spare.take(shape)
    for _ in range(buffers):
        spare.give(np.empty(shape))
    assert len(spare) == buffers
    return spare


def test_a_sweep_releases_only_what_nothing_took_from():
    old, new = _holding((8, 8)), _holding((8, 4))
    sweep()                     # both were taken from: both kept
    assert (len(old), len(new)) == (1, 1)
    new.give(new.take((8, 4)))  # only ``new`` is in use
    sweep()
    assert (len(old), len(new)) == (0, 1)
    assert SPARES.held == new.nbytes == 8 * 4 * 8


def test_full_lists_make_way_for_a_new_program(monkeypatch):
    """A program's leftovers fill the budget; the next program's first
    give sweeps them out (once per SWEEP_TAKES takes) and is kept."""
    rows = SPARE_BYTES // (8 * 64)
    stale = _holding((rows, 64))
    assert SPARES.held >= SPARE_BYTES
    sweep()                     # ``stale`` is not taken from again
    fresh = FreeList()
    fresh.take((16, 16))
    monkeypatch.setattr(SPARES, "until_sweep", 1)
    fresh.give(np.empty((16, 16)))          # full, and too soon to sweep
    assert (len(stale), len(fresh)) == (1, 0)
    monkeypatch.setattr(SPARES, "until_sweep", 0)
    fresh.give(np.empty((16, 16)))
    assert (len(stale), len(fresh)) == (0, 1)
    assert SPARES.until_sweep == distribution.SWEEP_TAKES


def test_threads_never_share_a_buffer_nor_lose_a_byte():
    """Eight threads take, mark, check and give back buffers of three
    shared free lists with the switch interval at a microsecond: no
    buffer is ever held by two threads at once, and the shared byte
    count equals what the lists hold."""
    import sys

    shapes = [(64, 16), (32, 32), (128, 4)]
    lists = [FreeList() for _ in shapes]
    errors = []

    def worker(marker):
        try:
            for step in range(300):
                k = (marker + step) % len(lists)
                buf = lists[k].take(shapes[k])
                buf.fill(marker)
                buf[0, 0] = marker          # a switch point between writes
                if not (buf == marker).all():
                    errors.append(f"buffer shared by thread {marker}")
                lists[k].give(buf)
                del buf
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(m,))
                   for m in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    held = sum(buf.nbytes for spare in lists for buf in spare)
    assert SPARES.held == sum(spare.nbytes for spare in lists) == held > 0
    assert SPARES.held < 2 * SPARE_BYTES


def test_lockstep_descriptors_never_touch_the_free_lists():
    geom = get_geometry(44, 6, NPROCS, "block")
    before = (len(geom.spare), geom.spare.room)

    def main(comm):
        rt = RuntimeContext(comm, seed=1)
        try:
            x = rt.rand(44.0, 6.0)
            for _ in range(6):
                x = shifted(rt, x)
        finally:
            rt.close()

    run_spmd(NPROCS, MEIKO_CS2, main, backend="lockstep")
    assert (len(geom.spare), geom.spare.room) == before


def test_concurrent_sessions_share_the_free_lists_safely():
    """Four sessions on threads, each a fused run over the same
    geometries: every result is the serial one."""
    prog = compile_source(_STENCIL)
    want = np.asarray(prog.run(nprocs=NPROCS, backend="fused")
                      .workspace["w"]).tobytes()
    got, errors = [], []

    def session():
        try:
            for _ in range(5):
                result = prog.run(nprocs=NPROCS, backend="fused")
                got.append(np.asarray(result.workspace["w"]).tobytes())
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=session) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    assert got == [want] * 20
    assert 0 <= SPARES.held < 2 * SPARE_BYTES


# -- the corpus: fused with recycling == the lockstep oracle --------------- #

_CORPUS = {label: program for label, program in shipped_programs().items()
           if not label.endswith("@paper")}


def _observed(result):
    spmd = result.spmd
    return (result.output, tuple(t.hex() for t in spmd.times),
            spmd.messages_sent, spmd.bytes_sent, spmd.collectives,
            sorted(spmd.collective_counts.items()),
            hashlib.sha256(canonical_events(result.trace).encode())
            .hexdigest(),
            {name: np.asarray(value).tobytes()
             for name, value in result.workspace.items()})


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(_CORPUS)), st.sampled_from([1, 2, 3, 4, 7, 16]),
       st.sampled_from(["block", "cyclic"]))
def test_corpus_fused_with_recycling_equals_lockstep(label, nprocs, scheme):
    """Twice fused (the second run starts on free lists the first one
    filled), native on where it can run, against lockstep with native
    off: same values, clocks, counts and canonical trace."""
    source, mfiles = _CORPUS[label]
    prog = compile_source(source, provider=DictProvider(mfiles))
    plan = Plan(scheme=scheme)
    oracle = _observed(prog.run(nprocs=nprocs, backend="lockstep",
                                native="off", plan=plan, trace=True))
    for _ in range(2):
        result = prog.run(nprocs=nprocs, backend="fused", native="auto",
                          plan=plan, trace=True)
        assert result.spmd.backend == "fused"
        assert _observed(result) == oracle
