"""The distributed MATRIX descriptor.

Mirrors the paper's run-time representation: "Every matrix and vector is
represented on each processor by a C structure named MATRIX which contains
global information about its type, rank, and shape ... [and]
processor-dependent information, such as the total number of matrix
elements stored on a particular processor and the address in that
processor's local memory of its first matrix element."

Here the descriptor is :class:`DMatrix`: global shape + dtype plus this
rank's local block.  Matrices are distributed row-contiguously; vectors
(either orientation) are distributed by linear-element blocks; scalars
never become DMatrix — they are replicated Python numbers, exactly as the
compiler replicates scalar variables.

The descriptor hides "how many elements live here and where": an op
whose kernel runs on *the array this descriptor holds* is written once,
against names :class:`DMatrix` (one rank's block) and
:class:`FusedDMatrix` (every rank's, as the full array) both answer —
``held`` (the block / the full array; a vector's block is 1-D), ``load``
(what ``comm.charge`` bills each rank for a pass over it: the ``int``
size of the real block / the geometry's per-rank
:class:`~repro.runtime.distribution.RankLoads`, two independent
derivations, which keeps lockstep an oracle for the fused clocks),
``like(data, shape=None)``, and ``stacked()`` — what the ranks hold,
rank axis first, one ``(ranks, items per rank, ...)`` array per run of
equally loaded ranks: one rank's block as a run of one, or every
rank's (``stacked(base, geom)`` cuts an array of another geometry,
a remap's target, the same way) — with its inverse
``unstacked(runs, cols)`` (``unstacked(runs, geom=geom)``).  A body that
computes its partials over ``stacked()`` and combines them with
``comm.fold`` is the same code on both backends.  ``local`` and
``full`` are the same slot as ``held`` under the name that says which
descriptor an arm expects; the ops that stay forked (docs/INTERNALS.md
lists them) read those.
"""

from __future__ import annotations

import sys
from typing import Union

import numpy as np

from ..errors import DistributionError, FusionDivergence
from .distribution import Geometry, get_geometry, owns_memory
from .memory import ACTIVE

Scalar = Union[float, complex]
RValue = Union[float, complex, "DMatrix", str]


class DMatrix:
    """One rank's view of a distributed matrix or vector.

    Everything derivable from ``(rows, cols, nprocs, scheme)`` lives on
    the shared :class:`~repro.runtime.distribution.Geometry` (``geom``);
    the fields runtime ops read most are mirrored here as plain
    attributes.
    """

    __slots__ = ("geom", "rows", "cols", "shape", "numel", "is_vector",
                 "scheme", "dtype", "held", "load", "rank", "spare",
                 "_tracker", "_charged")

    def __init__(self, geom: Geometry, dtype, local: np.ndarray, rank: int):
        self.geom = geom
        self.rows = geom.rows
        self.cols = geom.cols
        self.shape = geom.shape
        self.numel = geom.numel
        self.is_vector = geom.is_vector
        self.scheme = geom.scheme
        self.dtype = np.dtype(dtype)
        self.rank = rank
        self.held = local
        self.load = local.size
        #: where an output of this descriptor's shape takes its buffer
        #: from: one rank's block is always a fresh array
        self.spare = None
        expected = geom.local_shapes[rank]
        if local.shape != expected:
            raise DistributionError(
                f"local block shape {local.shape} != expected {expected} "
                f"(global {self.rows}x{self.cols}, "
                f"rank {rank}/{geom.nprocs})")
        # charge the local block to the calling rank's tracker
        # (repro.runtime.memory), inline: every runtime op allocates
        self._tracker = tracker = ACTIVE.tracker
        if tracker is not None:
            self._charged = nbytes = local.nbytes
            tracker.current = current = tracker.current + nbytes
            if current > tracker.peak:
                tracker.peak = current

    def __del__(self):
        try:
            tracker = self._tracker
        except AttributeError:      # the constructor raised: never charged
            return
        if tracker is not None:
            tracker.current -= self._charged

    def global_row_indices(self) -> np.ndarray:
        """Global indices (rows, or linear for vectors) of the held
        block — a shared read-only table."""
        return self.geom.global_indices(self.rank)

    # ------------------------------------------------------------------ #
    # ownership (ML_owner)
    # ------------------------------------------------------------------ #

    def owner_of(self, i: int, j: int | None = None) -> int:
        """Owning rank of element (i, j) — 0-based; j None = linear index."""
        if self.is_vector:
            linear = i if j is None else j * self.rows + i  # column-major
            return self.geom.map.owner(linear)
        if j is None:
            # linear index into a row-distributed matrix (column-major)
            i, j = i % self.rows, i // self.rows
        return self.geom.map.owner(i)

    def owns(self, i: int, j: int | None = None) -> bool:
        return self.owner_of(i, j) == self.rank

    def local_element_index(self, i: int, j: int | None = None):
        """Local position of global element (i, j) on its owner."""
        if self.is_vector:
            linear = i if j is None else j * self.rows + i
            return self.geom.map.local_index(linear)
        if j is None:
            i, j = i % self.rows, i // self.rows
        return (self.geom.map.local_index(i), j)

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def from_full(cls, full: np.ndarray, nprocs: int, rank: int,
                  scheme: str = "block") -> "DMatrix":
        """Take this rank's slice of a replicated full array (no comm)."""
        full = np.asarray(full)
        if full.ndim != 2:
            raise DistributionError("DMatrix requires a 2-D array")
        rows, cols = full.shape
        geom = get_geometry(rows, cols, nprocs, scheme)
        base = full.reshape(-1, order="F") if geom.is_vector else full
        local = np.ascontiguousarray(base[geom.global_indices(rank)])
        return cls(geom, full.dtype, local, rank)

    def assemble(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reconstruct the full array from every rank's local block
        (the caller supplies the allgathered parts)."""
        if self.scheme == "block" and parts:
            full = np.concatenate(parts) if self.is_vector \
                else np.vstack(parts)
        else:
            full = np.empty(self.numel if self.is_vector else self.shape,
                            dtype=self.dtype)
            for span, part in zip(self.geom.slices, parts):
                full[span] = part
        return full.reshape(self.shape, order="F") if self.is_vector \
            else full

    def like(self, data: np.ndarray, shape=None) -> "DMatrix":
        """A new descriptor around ``data``: of this geometry, or of the
        one that distributes ``shape`` over the same ranks by the same
        scheme (a row reduction's column, an outer product's matrix, a
        transposed vector)."""
        geom = self.geom
        if shape is not None:
            geom = get_geometry(*shape, geom.nprocs, geom.scheme)
        return DMatrix(geom, data.dtype, data, self.rank)

    def stacked(self, base: np.ndarray | None = None,
                geom: Geometry | None = None) -> list[np.ndarray]:
        """What the ranks this descriptor stands for hold, rank axis
        first: one ``(ranks, items per rank, ...)`` array per run of
        equally loaded ranks — here one rank's block, a run of one.
        ``base`` (an array along the distributed axis, a vector's
        weights or a matrix's row labels) is cut as the held items
        are — or, given ``geom``, as these ranks hold ``geom``'s items
        (a remap's target)."""
        if base is None:
            return [self.held[None]]
        return [base[(geom or self.geom).slices[self.rank]][None]]

    def unstacked(self, runs: list[np.ndarray], cols: int = 0,
                  geom: Geometry | None = None) -> "DMatrix":
        """Inverse of :meth:`stacked`: a per-rank result with one item
        per held row as the ``rows x cols`` matrix (a column for
        ``cols == 1``) distributed as this one's rows are — or, given
        ``geom``, the ``geom`` array these ranks' runs cut."""
        if geom is None:
            geom = get_geometry(self.rows, cols, self.geom.nprocs,
                                self.scheme)
        return DMatrix(geom, runs[0].dtype, runs[0][0], self.rank)

    def __repr__(self) -> str:
        return (f"DMatrix({self.rows}x{self.cols} {self.dtype}, "
                f"rank {self.rank}/{self.geom.nprocs}, "
                f"local {self.local.shape})")


#: one rank's arm says ``local`` (the slot itself: no frame)
DMatrix.local = DMatrix.held


class FusedDMatrix(DMatrix):
    """All-ranks descriptor for the ``fused`` SPMD backend.

    Where :class:`DMatrix` stores one rank's local block, this stores the
    *full* array once — every rank's block is an implicit, deterministic
    slice of it (``stacked()``), because the geometry is a pure function
    of (rows, cols, nprocs, scheme).  Runtime ops with a fused path apply
    their kernel across the whole rank axis in one numpy call and charge
    each rank's virtual clock individually.

    Safety net: the per-rank accessors (``local``, ``owns``) raise
    :class:`~repro.errors.FusionDivergence`, so any op *without* a fused
    path aborts fusion and the executor transparently re-runs the
    program under ``lockstep`` instead of silently computing one rank's
    answer.
    """

    __slots__ = ()

    #: the all-ranks arm says ``full`` (the slot itself: no frame)
    full = DMatrix.held

    def __init__(self, geom: Geometry, dtype, full: np.ndarray):
        self.geom = geom
        self.rows = geom.rows
        self.cols = geom.cols
        self.shape = geom.shape
        self.numel = geom.numel
        self.is_vector = geom.is_vector
        self.scheme = geom.scheme
        self.dtype = np.dtype(dtype)
        self.rank = 0
        if full.shape != geom.shape:
            raise DistributionError(
                f"full array shape {full.shape} != ({self.rows}, {self.cols})")
        self.held = full
        self.load = geom.counts
        #: the geometry's recycled buffers (distribution.FreeList)
        self.spare = geom.spare
        # the tracker models ONE rank's footprint; rank 0 holds the
        # largest block under both distribution schemes
        self._tracker = tracker = ACTIVE.tracker
        if tracker is not None:
            self._charged = nbytes = geom.counts[0] * self.dtype.itemsize
            tracker.current = current = tracker.current + nbytes
            if current > tracker.peak:
                tracker.peak = current

    def __del__(self, _refs=sys.getrefcount, _float64=np.dtype(np.float64)):
        try:
            tracker = self._tracker
        except AttributeError:      # the constructor raised: never charged
            return
        if tracker is not None:
            tracker.current -= self._charged
        # recycle the buffer onto the geometry's free list if that has
        # room and this descriptor is provably the buffer's only owner:
        # three references are the slot, ``full`` and getrefcount's
        # argument — any view, other descriptor, uncopied gather,
        # workspace value or cffi buffer makes more — and its memory
        # must be its own (distribution.owns_memory)
        spare = self.spare
        if spare.room > 0:
            full = self.held
            if (_refs(full) == 3 and owns_memory(full)
                    and full.dtype is _float64 and full.flags.c_contiguous
                    and full.flags.writeable):
                try:
                    spare.give(full)
                except TypeError:
                    pass    # interpreter exit: the pool's module is gone

    # -- per-rank accessors: no single rank exists here ----------------- #

    def _diverge(self, what: str):
        raise FusionDivergence(
            f"{what} has no fused path (rank-dependent state)")

    @property
    def local(self) -> np.ndarray:
        self._diverge("per-rank local block access")

    def owns(self, i: int, j: int | None = None) -> bool:
        self._diverge("ownership test")

    def global_row_indices(self) -> np.ndarray:
        return np.arange(self.geom.map.n)   # every rank's, in global order

    # -- the rank axis, made explicit ----------------------------------- #

    def stacked(self, base: np.ndarray | None = None,
                geom: Geometry | None = None) -> list[np.ndarray]:
        """Every rank's local block (or ``base``'s items, cut the same
        way — or as every rank holds ``geom``'s items) as one ``(ranks,
        items per rank, ...)`` array per run of equally loaded ranks:
        :meth:`Geometry.stacked` of the full array, distributed axis
        first."""
        if base is None:
            base = self.held.reshape(-1, order="F") if self.is_vector \
                else self.held
        return (geom or self.geom).stacked(base)

    def unstacked(self, runs: list[np.ndarray], cols: int = 0,
                  geom: Geometry | None = None) -> "FusedDMatrix":
        if geom is None:
            full = self.geom.unstacked(runs)
            geom = get_geometry(self.rows, cols, self.geom.nprocs,
                                self.scheme)
        else:
            full = geom.unstacked(runs)
        if full.ndim == 1:      # a vector's elements
            full = full.reshape(geom.shape)
        return FusedDMatrix(geom, full.dtype, full)

    @classmethod
    def from_full(cls, full: np.ndarray, nprocs: int, rank: int = 0,
                  scheme: str = "block") -> "FusedDMatrix":
        """Every rank's slice of a replicated full array (2-D) is the
        array."""
        return cls(get_geometry(*full.shape, nprocs, scheme), full.dtype,
                   full)

    def like(self, data: np.ndarray, shape=None) -> "FusedDMatrix":
        geom = self.geom
        if shape is not None:
            geom = get_geometry(*shape, geom.nprocs, geom.scheme)
            if data.shape != shape:
                # a vector's data, as its linear elements or transposed
                data = data.reshape(shape)
        return FusedDMatrix(geom, data.dtype, data)

    def __repr__(self) -> str:
        return (f"FusedDMatrix({self.rows}x{self.cols} {self.dtype}, "
                f"{self.geom.nprocs} fused ranks)")


def is_distributed(value) -> bool:
    return isinstance(value, DMatrix)
