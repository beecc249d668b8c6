"""Data distributions.

The paper's initial implementation distributes *matrices row-contiguously*
and *vectors by blocks*, with the guarantee that matrices of identical
size are distributed identically (so same-shape elementwise operations
need no communication).  Distribution decisions live here, inside the
run-time library, "making it easier to experiment with alternative data
distribution strategies" — the cyclic variant below backs the ablation
benchmark.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import DistributionError


@dataclass(frozen=True)
class BlockMap:
    """A 1-D block partition of ``n`` items over ``nprocs`` ranks.

    The first ``n % nprocs`` ranks receive one extra item, so sizes differ
    by at most one and the partition is contiguous.

    The ``base``/``extra`` split is computed once at construction and all
    per-rank queries are O(1) in ``nprocs`` — per-operation distribution
    math must not grow with the rank count, or simulated ranks stop being
    cheap (each of P ranks would pay O(P) per op, O(P^2) total).
    """

    n: int
    nprocs: int
    base: int = field(init=False, repr=False, compare=False)
    extra: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base, extra = divmod(self.n, self.nprocs)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "extra", extra)

    def count(self, rank: int) -> int:
        return self.base + (1 if rank < self.extra else 0)

    def min_count(self) -> int:
        """Smallest block size across ranks, O(1)."""
        return self.base

    def start(self, rank: int) -> int:
        return rank * self.base + min(rank, self.extra)

    def stop(self, rank: int) -> int:
        return self.start(rank) + self.count(rank)

    def owner(self, index: int) -> int:
        """Rank owning global item ``index`` (0-based)."""
        if not 0 <= index < self.n:
            raise DistributionError(
                f"index {index} out of range for extent {self.n}")
        base, extra = self.base, self.extra
        boundary = extra * (base + 1)
        if index < boundary:
            return index // (base + 1) if base + 1 else 0
        if base == 0:
            raise DistributionError(
                f"index {index} out of range for extent {self.n}")
        return extra + (index - boundary) // base

    def local_index(self, index: int) -> int:
        return index - self.start(self.owner(index))

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`: owning rank per global index.

        Pure integer arithmetic (no Python loop) — this is the hot path of
        the alltoall message packing in :mod:`repro.runtime.structural`.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise DistributionError(
                f"index {bad} out of range for extent {self.n}")
        base, extra = self.base, self.extra
        boundary = extra * (base + 1)
        # below the boundary blocks have base+1 items; above, base items
        # (base == 0 cannot occur above the boundary for in-range indices:
        # then boundary == n and the np.where 'above' branch is never taken)
        low = idx // max(base + 1, 1)
        high = extra + (idx - boundary) // max(base, 1)
        return np.where(idx < boundary, low, high)

    def local_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`local_index`: position on the owning rank."""
        idx = np.asarray(indices, dtype=np.int64)
        owners = self.owners(idx)
        starts = owners * self.base + np.minimum(owners, self.extra)
        return idx - starts

    def counts(self) -> list[int]:
        return [self.count(r) for r in range(self.nprocs)]

    def starts(self) -> list[int]:
        return [self.start(r) for r in range(self.nprocs)]


@dataclass(frozen=True)
class CyclicMap:
    """Round-robin 1-D partition (the ablation alternative).

    Not contiguous: global item ``i`` lives on rank ``i % nprocs`` at local
    position ``i // nprocs``.
    """

    n: int
    nprocs: int

    def count(self, rank: int) -> int:
        return (self.n - rank + self.nprocs - 1) // self.nprocs \
            if rank < self.nprocs else 0

    def min_count(self) -> int:
        """Smallest block size across ranks, O(1)."""
        return self.count(self.nprocs - 1)

    def owner(self, index: int) -> int:
        if not 0 <= index < self.n:
            raise DistributionError(
                f"index {index} out of range for extent {self.n}")
        return index % self.nprocs

    def local_index(self, index: int) -> int:
        return index // self.nprocs

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner` (round-robin: ``index % nprocs``)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise DistributionError(
                f"index {bad} out of range for extent {self.n}")
        return idx % self.nprocs

    def local_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`local_index` (``index // nprocs``)."""
        return np.asarray(indices, dtype=np.int64) // self.nprocs

    def global_indices(self, rank: int) -> np.ndarray:
        return np.arange(rank, self.n, self.nprocs)

    def counts(self) -> list[int]:
        return [self.count(r) for r in range(self.nprocs)]


# -- interned array geometry --------------------------------------------- #


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a shared table read-only: an in-place write by any of the
    arrays that share it must raise, not corrupt the others."""
    array.setflags(write=False)
    return array


class RankLoads(tuple):
    """Every rank's local element count, in rank order: what a fused
    descriptor charges where one rank's descriptor charges an ``int``.

    ``loads * k`` is therefore each count times ``k`` — the per-rank
    operation counts of a kernel that does ``k`` units of work per local
    element, as ``int * k`` is for one rank — and the same tuple every
    time: the products key :class:`~repro.mpi.fused.FusedComm`'s charge
    memo."""

    def __new__(cls, counts):
        self = super().__new__(cls, counts)
        self._scaled = {1: self}
        return self

    def __mul__(self, k: int) -> "RankLoads":
        try:
            return self._scaled[k]
        except KeyError:
            scaled = self._scaled[k] = RankLoads(c * k for c in self)
            return scaled


#: the free lists of every geometry together take a buffer while they
#: hold less than this many bytes, and none larger: a few
#: ``image_filter``-sized (512 KB) buffers or one of ``cg``'s 2 MB
#: matrices (so they never hold twice this).  1 MB was measured too
#: small for the benchmark suite
SPARE_BYTES = 2 << 20

#: a free list nothing took from for this many takes (of any list)
#: releases its buffers at the next :func:`sweep` — long enough for a
#: program that runs again after a few others to find its buffers
SWEEP_TAKES = 4096

#: the most bytes the free lists together keep in the allocations they
#: placed buffers in (:meth:`FreeList.fresh`), and the largest one they
#: keep: a larger one is rare, and keeping it costs more than the faults
#: it saves (``cg``'s one 2 MB matrix a run raised ``suite_fused_p16``'s
#: peak RSS by 2 MB and its time by nothing)
PLACED_BYTES = 32 << 20
PLACED_MAX = 1 << 20

_refs = sys.getrefcount


class SpareBudget:
    """What the free lists of every geometry share, behind one lock:
    the bytes they hold, the bytes of the allocations they keep to place
    buffers in again (and the ``id`` of each, for :func:`owns_memory`),
    the takes left before the next :func:`sweep` may run, and (by
    ``id``) every list that has held a buffer or kept an allocation.
    The lock is re-entrant: a descriptor's ``__del__`` may give a buffer
    back while its thread is sweeping."""

    __slots__ = ("lock", "held", "placed", "kept", "until_sweep", "lists")

    def __init__(self):
        self.lock = threading.RLock()
        self.held = 0
        self.placed = 0
        self.kept: set[int] = set()
        self.until_sweep = 0
        self.lists: dict[int, FreeList] = {}


class FreeList(list):
    """Recycled full-array buffers of one geometry (``Geometry.spare``).

    A fused op output that dies as the sole owner of a C-contiguous
    float64 buffer — no view, no other descriptor, no uncopied gather, no
    workspace value, no live cffi buffer refers to it, which its
    reference count proves (:meth:`FusedDMatrix.__del__
    <repro.runtime.matrix.FusedDMatrix.__del__>`) — goes to
    :meth:`give`; native kernel outputs and shift rotations :meth:`take`
    from the list before calling ``np.empty``.  Keeping those pages
    mapped is the point: when 512 KB outputs die, glibc trims the heap
    top and the next output faults every page back in.

    ``room`` is how many more buffers the list accepts.  Every take
    adds one — a hit frees a place, a miss says this geometry wants one
    buffer more than it kept — so a list holds at most what its takers
    have asked for, and a geometry nothing takes from (a sum's operand,
    an initial ``ones``) never holds buffers at all.  ``used`` says a
    take happened since the last :func:`sweep`, which is how buffers a
    program left behind make way for the next program's.  Every change
    holds :data:`SPARES`' lock, so concurrent server sessions never
    receive one buffer twice or miscount the budget.
    """

    __slots__ = ("room", "used", "nbytes", "listed", "placed")

    def __init__(self, numel: int = 0):
        super().__init__()
        self.room = 0
        self.used = self.listed = False
        self.nbytes = 0         # what this list holds
        #: the allocations :meth:`fresh` placed buffers in and keeps
        #: (``None``: a buffer below :data:`SPREAD_BYTES` is an
        #: ``np.empty`` of its own)
        self.placed = [] if numel * 8 >= SPREAD_BYTES else None

    def take(self, shape: tuple) -> np.ndarray:
        """A float64 buffer of ``shape`` (uninitialised): a recycled
        one when there is one, else a new one (:meth:`fresh`)."""
        spares = SPARES
        with spares.lock:
            self.room += 1
            self.used = True
            spares.until_sweep -= 1
            if self:
                buf = self.pop()
                self.nbytes -= buf.nbytes
                spares.held -= buf.nbytes
                if buf.shape == shape:
                    return buf
            if self.placed is not None:
                return self.fresh(shape)
        return np.empty(shape)

    def fresh(self, shape: tuple) -> np.ndarray:
        """A new float64 buffer of ``shape`` (uninitialised) that starts
        at an offset within a page of its own: how a list of buffers of
        at least :data:`SPREAD_BYTES` allocates.

        glibc places consecutive large allocations 16 bytes apart modulo
        a page, so the arrays one native loop reads and writes start
        within a few hundred bytes of each other there.  A load whose
        low 12 address bits match an earlier store still in flight waits
        for that store ("4K aliasing").  Measured on image_filter's group
        kernel (5 inputs, 10 outputs; gcc 12.2, x86-64), min µs a call
        with glibc's offsets against spread ones: 384 → 282 at 65 536
        elements, 53.5 → 35.5 at 8 192, 17.6 → 17.9 at 4 000 (no gain
        below 64 KB).  So the buffer is a view of its own allocation,
        one page longer, starting at slot ``39 k mod 64`` of the page for
        the ``k``-th one: a step near 64/φ, which spreads any run of
        consecutive buffers over the page.

        The list keeps the allocation (if at most :data:`PLACED_MAX`, up
        to :data:`PLACED_BYTES` for all lists) and places a buffer in it
        again once no view of it lives, which its reference count tells:
        the buffers a run leaves in its workspace die with the result,
        past the free lists, and glibc would trim them off the heap top,
        so the next run's buffers would fault every page back in.  A
        :func:`sweep` releases the allocations of a list nothing took
        from, as it releases its buffers."""
        n = 1
        for extent in shape:
            n *= extent
        size = n + PAGE // 8
        spares = SPARES
        with spares.lock:
            for raw in self.placed:
                if _refs(raw) == 3 and raw.size == size:
                    break       # (the list, ``raw`` and the argument)
            else:
                raw = np.empty(size)
                nbytes = raw.nbytes
                if nbytes <= PLACED_MAX:
                    if (spares.placed + nbytes > PLACED_BYTES
                            and spares.until_sweep <= 0):
                        sweep()
                    if spares.placed + nbytes <= PLACED_BYTES:
                        self._list()
                        self.placed.append(raw)
                        spares.placed += nbytes
                        spares.kept.add(id(raw))
            start = (next(_SLOTS) * 39 % 64 * 64
                     - raw.__array_interface__["data"][0]) % PAGE // 8
            return raw[start:start + n].reshape(shape)

    def give(self, buf: np.ndarray) -> None:
        """Keep ``buf`` — its caller's proven sole owner — if this list
        has room and the lists hold less than :data:`SPARE_BYTES` (after
        a sweep, when other lists hold some of that)."""
        nbytes = buf.nbytes
        if not 0 < nbytes <= SPARE_BYTES:
            return
        spares = SPARES
        with spares.lock:
            if self.room <= 0:
                return
            if (spares.held >= SPARE_BYTES and spares.held > self.nbytes
                    and spares.until_sweep <= 0):
                sweep()
            if spares.held < SPARE_BYTES:
                self._list()
                self.append(buf)
                self.room -= 1
                self.nbytes += nbytes
                spares.held += nbytes

    def _list(self) -> None:
        """Put this list where :func:`sweep` finds it (holding the
        lock)."""
        if not self.listed:
            SPARES.lists[id(self)] = self
            self.listed = True

    def release(self) -> None:
        """Hand every buffer and every kept allocation back to the
        allocator (a buffer placed in one that is still in use keeps it
        alive, as its own memory)."""
        spares = SPARES
        with spares.lock:
            spares.held -= self.nbytes
            self.nbytes = 0
            self.clear()
            placed = self.placed
            if placed:
                for raw in placed:
                    spares.kept.discard(id(raw))
                    spares.placed -= raw.nbytes
                placed.clear()


#: the one budget of every free list in the process
SPARES = SpareBudget()

PAGE = 4096
#: the smallest buffer a free list allocates with :meth:`FreeList.fresh`
SPREAD_BYTES = 64 << 10
#: which 64-byte slot of a page the next placed buffer starts at
_SLOTS = itertools.count()


def owns_memory(full: np.ndarray) -> bool:
    """Is ``full``'s memory its own: no base, or a base array only
    ``full`` refers to — and, for an allocation a free list keeps
    (:meth:`FreeList.fresh`), that list?  The one answer of the
    sole-owner tests (:meth:`FusedDMatrix.__del__
    <repro.runtime.matrix.FusedDMatrix.__del__>`, ``set_element`` on
    both backends, ``ew_group``'s old values); the caller holds no
    reference to the base.  (Three references to a base are its array's
    ``base`` slot, ``base`` here and getrefcount's argument.)"""
    base = full.base
    if base is None:
        return full.flags.owndata
    return base.__class__ is np.ndarray and \
        _refs(base) == 3 + (id(base) in SPARES.kept)


def sweep(everything: bool = False) -> None:
    """Second chance for the free lists, run when they are full and
    another list holds buffers, at most once per :data:`SWEEP_TAKES`
    takes: a list nothing took from since the previous sweep releases
    its buffers, the others are marked unused.  ``everything`` releases
    them all."""
    with SPARES.lock:
        SPARES.until_sweep = SWEEP_TAKES
        for spare in list(SPARES.lists.values()):
            if spare.used and not everything:
                spare.used = False
            else:
                spare.release()


class Geometry:
    """Everything derivable from ``(rows, cols, nprocs, scheme)``.

    The paper's MATRIX descriptor keeps shape *and* each processor's
    local-element count, and guarantees that "matrices of identical size
    are distributed identically".  This is that guarantee as an object:
    one immutable instance per geometry (interned by
    :func:`get_geometry`), shared by every :class:`DMatrix` /
    :class:`FusedDMatrix` of that size, so the per-rank tables are
    computed once per geometry instead of once per operation.

    Invariant: every attribute and every method result is a pure
    function of the four constructor values — except ``spare``, the
    :class:`FreeList` of recycled buffers of this shape.  Cached
    ndarrays are read-only.

    Matrices are distributed by rows, vectors by linear elements;
    ``slices[r]`` indexes the distributed axis (a ``slice`` for block
    maps, a read-only index array for cyclic ones), ``width`` is the
    number of elements one index of that axis holds (1, or ``cols``) and
    ``counts[r]`` is rank ``r``'s local *element* count (``counts`` is a
    :class:`RankLoads`).

    The rank axis: both maps give the first ``extent % nprocs`` ranks
    one item more than the rest, so the distributed axis is at most two
    *runs* of ranks holding equally many items.  :meth:`stacked` lays an
    array out as one ``(ranks, items per rank, ...)`` array per run, in
    rank order — the one way a fused op sees the ranks, so its kernel is
    a numpy call per run, not per rank — and :meth:`unstacked` is the
    inverse, for results laid out by rank.
    """

    __slots__ = ("rows", "cols", "nprocs", "scheme", "shape", "numel",
                 "is_vector", "width", "map", "counts", "starts", "slices",
                 "local_shapes", "max_count", "spare", "_indices",
                 "_overlaps", "_runs", "_run_indices")

    def __init__(self, rows: int, cols: int, nprocs: int, scheme: str):
        self.rows = rows = int(rows)
        self.cols = cols = int(cols)
        self.nprocs = nprocs
        self.scheme = scheme
        self.shape = (rows, cols)
        self.numel = rows * cols
        #: recycled buffers of this shape (the one mutable slot: what it
        #: holds is never part of any result)
        self.spare = FreeList(self.numel)
        self.is_vector = rows == 1 or cols == 1
        extent = self.numel if self.is_vector else rows
        ranks = range(nprocs)
        self.map = amap = (BlockMap if scheme == "block"
                           else CyclicMap)(extent, nprocs)
        held = [amap.count(r) for r in ranks]   # rows (elements) per rank
        if scheme == "block":
            self.starts = tuple(amap.start(r) for r in ranks)
            self.slices = tuple(slice(start, start + n)
                                for start, n in zip(self.starts, held))
            self._indices = [None] * nprocs
        else:
            self.starts = None      # cyclic blocks are not contiguous
            self._indices = [_frozen(amap.global_indices(r)) for r in ranks]
            self.slices = tuple(self._indices)
        if self.is_vector:
            self.width = 1
            self.counts = RankLoads(held)
            self.local_shapes = tuple((n,) for n in held)
        else:
            self.width = cols
            self.counts = RankLoads(n * cols for n in held)
            self.local_shapes = tuple((n, cols) for n in held)
        self.max_count = max(self.counts)
        self._overlaps: dict[int, int] = {}
        # the runs, as (first rank, ranks, items per rank, where a block
        # map keeps them); the last one always exists and is the only
        # one whose ranks may hold nothing (extent < nprocs)
        items, longer = divmod(extent, nprocs)
        split = longer * (items + 1)
        runs = [(longer, nprocs - longer, items, slice(split, extent))]
        if longer:
            runs.insert(0, (0, longer, items + 1, slice(0, split)))
        self._runs = tuple(runs)
        self._run_indices = None

    def __del__(self):
        # a geometry the cache evicted takes its spare buffers along
        if self.spare.listed:
            try:
                with SPARES.lock:
                    self.spare.release()
                    del SPARES.lists[id(self.spare)]
            except (AttributeError, TypeError):
                pass    # interpreter exit: this module is torn down

    def global_indices(self, rank: int) -> np.ndarray:
        """Read-only global row (linear, for vectors) indices of
        ``rank``'s block."""
        indices = self._indices[rank]
        if indices is None:
            span = self.slices[rank]
            indices = self._indices[rank] = _frozen(
                np.arange(span.start, span.stop))
        return indices

    def positions(self, rank: int) -> range:
        """``rank``'s positions along the distributed axis, as a range:
        its block's, or every ``nprocs``-th from ``rank`` under the
        cyclic map (:meth:`global_indices` without the table)."""
        if self.scheme == "block":
            span = self.slices[rank]
            return range(span.start, span.stop)
        return range(rank, self.map.n, self.nprocs)

    def run_indices(self) -> tuple[np.ndarray, ...]:
        """Per run, the read-only ``(ranks, items per rank)`` table of
        global indices along the distributed axis: row ``i`` is
        :meth:`global_indices` of the run's ``i``-th rank."""
        tables = self._run_indices
        if tables is None:
            if self.scheme == "block":
                line = _frozen(np.arange(self.map.n))
                tables = [line[span].reshape(ranks, items)
                          for _, ranks, items, span in self._runs]
            else:
                tables = [_frozen(np.arange(first, first + ranks)[:, None]
                                  + self.nprocs * np.arange(items))
                          for first, ranks, items, _ in self._runs]
            tables = self._run_indices = tuple(tables)
        return tables

    def stacked(self, base: np.ndarray) -> list[np.ndarray]:
        """``base`` (distributed axis first) as one ``(ranks, items per
        rank, ...)`` array per run, ranks in order: reshaped views under
        the block map (splitting an axis never copies), one gather
        through the run's index table under the cyclic one."""
        if self.scheme == "block":
            rest = base.shape[1:]
            return [base[span].reshape((ranks, items) + rest)
                    for _, ranks, items, span in self._runs]
        return [base[table] for table in self.run_indices()]

    def unstacked(self, parts: list[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`stacked`: per-run ``(ranks, items per rank,
        ...)`` results back along the distributed axis (a view of the
        part when a block map has one run)."""
        if self.scheme == "block":
            flat = [part.reshape((-1,) + part.shape[2:]) for part in parts]
            return flat[0] if len(flat) == 1 else np.concatenate(flat)
        out = np.empty((self.map.n,) + parts[0].shape[2:],
                       dtype=parts[0].dtype)
        for table, part in zip(self.run_indices(), parts):
            out[table] = part
        return out

    def shift_overlap(self, k: int) -> int:
        """Of the items (elements of a vector, rows of a matrix) a
        circular shift by ``k`` along the distributed axis delivers to
        rank 0, the largest number that come from a single source rank
        (block maps only): rank 0's block pulled back through the shift
        is one circular interval, intersected here with every source
        block.
        """
        try:
            return self._overlaps[k]
        except KeyError:
            pass
        n, held = self.map.n, self.slices[0].stop   # rank 0 holds [0, held)
        lo = -k % n
        starts = np.asarray(self.starts)
        stops = np.asarray([span.stop for span in self.slices])

        def covered(a: int, b: int) -> np.ndarray:
            return np.clip(np.minimum(stops, b) - np.maximum(starts, a),
                           0, None)

        # [lo, lo + held) on the circle: the part below n, then the wrap
        per_source = covered(lo, min(lo + held, n)) \
            + covered(0, lo + held - n)
        best = self._overlaps[k] = int(per_source.max())
        return best

    def __repr__(self) -> str:
        return (f"Geometry({self.rows}x{self.cols}, {self.nprocs} ranks, "
                f"{self.scheme})")


def rank_axis(parts: list[np.ndarray]) -> np.ndarray:
    """Per-run results of :meth:`Geometry.stacked` arrays (ranks first)
    as one array over all the ranks, in rank order."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# SPMD programs construct the same few geometries thousands of times
# (every DMatrix carries one), so the instances are shared process-wide:
# ``get_geometry(rows, cols, nprocs, scheme)`` is the one LRU of them
# (``cache_info()`` / ``cache_clear()``).  It is sized so that a
# multi-thousand-candidate autotuning search, which sweeps many
# geometries, does not thrash it.

MAP_CACHE_SIZE = 65536

get_geometry = lru_cache(maxsize=MAP_CACHE_SIZE)(Geometry)
