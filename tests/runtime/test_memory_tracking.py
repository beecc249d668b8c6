"""Per-rank memory-tracking tests (the Section 7 instrumentation)."""

import gc

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.errors import DistributionError
from repro.mpi import MEIKO_CS2, run_spmd
from repro.runtime.context import RuntimeContext
from repro.runtime.memory import MemoryTracker, install_tracker
from repro.tuning import Plan


class TestTracker:
    def test_peak_tracks_high_water(self):
        t = MemoryTracker()
        t.allocate(100)
        t.allocate(50)
        t.release(100)
        t.allocate(20)
        assert t.current == 70
        assert t.peak == 150

    def test_reset(self):
        t = MemoryTracker()
        t.allocate(10)
        t.reset()
        assert t.current == 0 and t.peak == 0


class TestRankTracking:
    def test_local_bytes_counted(self):
        def fn(comm):
            rt = RuntimeContext(comm, seed=0)
            a = rt.rand(100.0, 100.0)
            return rt.peak_local_bytes

        res = run_spmd(4, MEIKO_CS2, fn)
        # each rank holds 25 rows x 100 cols x 8 bytes
        assert all(p >= 25 * 100 * 8 for p in res.results)
        assert all(p < 100 * 100 * 8 for p in res.results)

    def test_garbage_collection_releases(self):
        def fn(comm):
            rt = RuntimeContext(comm, seed=0)
            for _ in range(5):
                a = rt.rand(64.0, 64.0)
                del a
                gc.collect()
            current = rt.memory.current
            peak = rt.peak_local_bytes
            return current, peak

        res = run_spmd(2, MEIKO_CS2, fn)
        for current, peak in res.results:
            # peak covers roughly one live matrix, not five
            assert peak < 3 * 64 * 64 * 8
            assert current <= peak

    def test_trackers_isolated_per_rank(self):
        def fn(comm):
            rt = RuntimeContext(comm, seed=0)
            if comm.rank == 0:
                rt.rand(200.0, 200.0)  # only rank 0 allocates extra
            comm.barrier()
            return rt.peak_local_bytes

        res = run_spmd(2, MEIKO_CS2, fn)
        assert res.results[0] > res.results[1]

    def test_main_thread_tracker_restorable(self):
        tracker = MemoryTracker()
        install_tracker(tracker)
        try:
            from repro.runtime.matrix import DMatrix

            DMatrix.from_full(np.ones((10, 10)), 1, 0)
            assert tracker.peak == 800
        finally:
            install_tracker(None)


class TestSharedGeometry:
    """The geometry is shared between descriptors; the memory charge is
    still one allocation and one release per descriptor."""

    def test_like_reuses_the_geometry(self):
        from repro.runtime.distribution import get_geometry
        from repro.runtime.matrix import DMatrix, FusedDMatrix

        geom = get_geometry(12, 5, 4, "block")
        a = FusedDMatrix(geom, float, np.zeros((12, 5)))
        b = a.like(np.ones((12, 5)))
        assert b.geom is a.geom is get_geometry(12, 5, 4, "block")
        assert (b.rows, b.cols, b.shape, b.numel, b.is_vector, b.scheme) \
            == (12, 5, (12, 5), 60, False, "block")
        local = DMatrix.from_full(np.zeros((12, 5)), 4, 1)
        assert local.geom is geom
        assert local.like(np.ones((3, 5))).geom is geom
        with pytest.raises(DistributionError):
            a.like(np.ones((5, 12)))
        # ... and `shape=` names the interned geometry of that shape
        column = get_geometry(12, 1, 4, "block")
        assert a.like(np.ones(12), shape=(12, 1)).geom is column
        assert local.like(np.ones(3), shape=(12, 1)).geom is column

    def test_one_allocation_and_release_per_descriptor(self):
        from repro.runtime.distribution import get_geometry
        from repro.runtime.matrix import FusedDMatrix

        tracker = MemoryTracker()
        install_tracker(tracker)
        try:
            geom = get_geometry(12, 5, 4, "block")
            block = geom.counts[0] * 8       # rank 0's share, float64
            a = FusedDMatrix(geom, float, np.zeros((12, 5)))
            assert tracker.current == block
            b = a.like(np.ones((12, 5)))
            c = b.like(np.ones((12, 5)))
            assert tracker.current == tracker.peak == 3 * block
            del a, c
            gc.collect()
            assert tracker.current == block
            del b
            gc.collect()
            assert tracker.current == 0 and tracker.peak == 3 * block
        finally:
            install_tracker(None)


class TestDescriptorLifetime:
    """The charge lives on the descriptor: made in the constructor,
    credited back by ``__del__`` to the tracker that was charged."""

    def test_release_on_another_thread_credits_the_creator(self):
        import threading

        from repro.runtime.distribution import get_geometry
        from repro.runtime.matrix import FusedDMatrix

        creator, other = MemoryTracker(), MemoryTracker()
        geom = get_geometry(12, 5, 4, "block")
        holder = []

        def create():
            install_tracker(creator)
            holder.append(FusedDMatrix(geom, float, np.zeros((12, 5))))

        def release():
            install_tracker(other)
            holder.pop()
            gc.collect()

        for body in (create, release):
            thread = threading.Thread(target=body)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            if body is create:
                assert creator.current == creator.peak == 3 * 5 * 8
        assert creator.current == 0 and creator.peak == 3 * 5 * 8
        assert other.current == other.peak == 0

    def test_failed_construction_charges_nothing(self, capfd):
        from repro.runtime.distribution import get_geometry
        from repro.runtime.matrix import DMatrix, FusedDMatrix

        tracker = MemoryTracker()
        install_tracker(tracker)
        try:
            geom = get_geometry(12, 5, 4, "block")
            with pytest.raises(DistributionError):
                DMatrix(geom, float, np.zeros((4, 5)), 1)   # 3 x 5 expected
            with pytest.raises(DistributionError):
                FusedDMatrix(geom, float, np.zeros((5, 12)))
            gc.collect()
            assert tracker.current == tracker.peak == 0
        finally:
            install_tracker(None)
        # an exception escaping __del__ is printed, not raised
        assert capfd.readouterr().err == ""

    def test_a_collected_cycle_releases_once(self):
        from repro.runtime.distribution import get_geometry
        from repro.runtime.matrix import FusedDMatrix

        tracker = MemoryTracker()
        install_tracker(tracker)
        try:
            geom = get_geometry(12, 5, 4, "block")
            mat = FusedDMatrix(geom, float, np.zeros((12, 5)))
            mat.load = [mat]    # a cycle through a slot __del__ never reads
            del mat
            assert tracker.current == 3 * 5 * 8     # refcounts cannot free it
            gc.collect()
            gc.collect()
            assert tracker.current == 0 and tracker.peak == 3 * 5 * 8
        finally:
            install_tracker(None)

    def test_no_finalizer_machinery_left(self):
        from pathlib import Path

        import repro.runtime

        for path in Path(repro.runtime.__file__).parent.glob("*.py"):
            source = path.read_text(encoding="utf-8")
            assert "weakref" not in source, path.name
            assert "record_allocation" not in source, path.name


#: ``RunResult.peak_local_bytes`` as ``weakref.finalize`` tracking
#: reported it (recorded at 7eb5edc; heat is the benchmark's frozen
#: ``heat.m``, the others ``make_workload(key, "small")``), per
#: (program, nprocs), as
#: (lockstep, fused) run-length lists of (bytes, ranks): the lockstep
#: ranks track their own blocks, the fused pass models rank 0's
_PEAKS = {
    ("heat", 1): ([(192000, 1)], [(192000, 1)]),
    ("heat", 4): ([(48000, 4)], [(48000, 4)]),
    ("heat", 16): ([(12000, 16)], [(12000, 16)]),
    ("cg", 1): ([(6324224, 1)], [(6324224, 1)]),
    ("cg", 4): ([(1581056, 4)], [(1581056, 4)]),
    ("cg", 16): ([(395264, 16)], [(395264, 16)]),
    ("ocean", 1): ([(699904, 1)], [(699904, 1)]),
    ("ocean", 4): ([(174976, 4)], [(174976, 4)]),
    ("ocean", 16): ([(43744, 16)], [(43744, 16)]),
    ("nbody", 1): ([(163264, 1)], [(163264, 1)]),
    ("nbody", 4): ([(40816, 4)], [(40816, 4)]),
    ("nbody", 16): ([(10208, 8), (10200, 8)], [(10208, 16)]),
    ("closure", 1): ([(1024000, 1)], [(1024000, 1)]),
    ("closure", 4): ([(256000, 4)], [(256000, 4)]),
    ("closure", 16): ([(64000, 16)], [(64000, 16)]),
}


@pytest.fixture(scope="module")
def suite_programs():
    from repro.bench.workloads import make_workload
    from repro.compiler import OtterCompiler
    from tests.corpus import ROOT

    # the pass-6 schedule of 7eb5edc: the numbers are about the tracker,
    # and a later rewrite (``reduce2`` never materialises ocean's 1 x nt
    # row of column maxima) changes what there is to track
    plan = Plan(fusion=("transpose_matmul", "cse"))
    heat = ROOT / "benchmarks" / "e2e" / "programs" / "heat.m"
    programs = {"heat": compile_source(heat.read_text(encoding="utf-8"),
                                       name="heat", plan=plan)}
    for key in ("cg", "ocean", "nbody", "closure"):
        w = make_workload(key, scale="small")
        programs[key] = OtterCompiler(provider=w.provider, plan=plan).compile(
            w.source, name=key)
    return programs


@pytest.mark.parametrize("key,nprocs", sorted(_PEAKS))
def test_peaks_equal_the_finalizer_era(suite_programs, key, nprocs):
    for backend, recorded in zip(("lockstep", "fused"),
                                 _PEAKS[key, nprocs]):
        result = suite_programs[key].run(nprocs=nprocs, machine=MEIKO_CS2,
                                         backend=backend)
        assert result.spmd.backend == backend
        assert result.peak_local_bytes == [
            nbytes for nbytes, ranks in recorded for _ in range(ranks)], \
            backend


class TestRunResultMemory:
    def test_peaks_reported_per_rank(self):
        prog = compile_source("rand('seed', 1);\na = rand(64, 64);"
                              "\ns = sum(sum(a));")
        result = prog.run(nprocs=4)
        assert len(result.peak_local_bytes) == 4
        assert all(p > 0 for p in result.peak_local_bytes)

    def test_memory_shrinks_with_ranks(self):
        prog = compile_source("rand('seed', 1);\na = rand(256, 256);"
                              "\nb = a + a;\ns = sum(sum(b));")
        p1 = max(prog.run(nprocs=1).peak_local_bytes)
        p8 = max(prog.run(nprocs=8).peak_local_bytes)
        assert p8 < p1 / 4

    def test_machine_memory_constants(self):
        from repro.mpi import (
            MEIKO_CS2,
            SPARC20_CLUSTER,
            SUN_ENTERPRISE,
            WORKSTATION_MEMORY,
        )

        for machine in (MEIKO_CS2, SUN_ENTERPRISE, SPARC20_CLUSTER):
            assert machine.memory_per_cpu > 0
        # the aggregate parallel memory beats one workstation (Section 7)
        assert (MEIKO_CS2.memory_per_cpu * MEIKO_CS2.max_cpus
                > WORKSTATION_MEMORY * 4)


def test_every_gather_full_is_an_allgather():
    """Nothing memoizes a gathered array: a second gather of the same
    value is a second allgather, as in the paper's run-time library."""
    def fn(comm):
        rt = RuntimeContext(comm, seed=0)
        a = rt.rand(12.0, 12.0)
        rt.gather_full(a)
        before = comm.world.collectives
        rt.gather_full(a)
        return comm.world.collectives - before

    res = run_spmd(3, MEIKO_CS2, fn)
    assert all(extra >= 1 for extra in res.results)
