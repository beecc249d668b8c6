"""The run-time library context (the ``ML_*`` functions of the paper).

Compiled programs receive one :class:`RuntimeContext` per rank and drive
everything through it: matrix allocation/distribution, elementwise
owner-computes kernels, communication-requiring operations (delegated to
:mod:`repro.runtime.linalg` / ``reductions`` / ``structural``), and
coordinated I/O ("one processor coordinates all I/O operations").

Values at run time:

* replicated scalars — plain Python ``float``/``complex``
* distributed matrices/vectors — :class:`~repro.runtime.matrix.DMatrix`
* strings — Python ``str`` (replicated)

Every operation charges virtual time through the communicator: local work
via ``comm.compute``, library-call bookkeeping via ``comm.overhead``, and
communication implicitly via the collectives used.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .. import datastore
from ..errors import FusionDivergence, MatlabRuntimeError, MpiError
from ..ewops import TAP
from ..interp import values as V
from ..mpi.comm import LAND, Comm
from ..mpi.fused import PerRankScalar
from .distribution import owns_memory
from .matrix import DMatrix, FusedDMatrix, RValue
from .memory import MemoryTracker, current_tracker, install_tracker

COLON = V.COLON

_FLOAT64 = np.dtype(np.float64)
_refs = sys.getrefcount


class RuntimeContext:
    """Per-rank handle to the distributed run-time library."""

    def __init__(self, comm: Comm, out: Optional[Callable[[str], None]] = None,
                 seed: int = 0, scheme: str = "block", provider=None,
                 dist_plan=None, native=None):
        self.comm = comm
        #: native kernel engine (repro.native.NativeEngine) or None —
        #: when set, ``ew`` calls that carry an op-tree spec execute as
        #: one compiled C loop instead of the numpy lambda.  Host-time
        #: only: every virtual-clock/message charge is identical.
        self.native = native
        #: under the ``fused`` backend one pass carries all ranks; rank 0
        #: stands in wherever a single identity is needed (I/O coordination)
        self.fused = fused = bool(getattr(comm, "is_fused", False))
        #: does a group of elementwise statements try its one native
        #: kernel (``ew_group``)?  The emitted code tests it first, so a
        #: group costs no call where it cannot: lockstep, native off
        self.grouped = fused and native is not None
        self.rank = 0 if fused else comm.rank
        #: the descriptor class that goes with this communicator
        self.descriptor = FusedDMatrix if fused else DMatrix
        self.size = comm.size
        self.scheme = scheme
        #: per-array distribution overrides ({name: scheme}, an autotuner
        #: plan knob); consulted at creation sites via ``dest_hint``,
        #: which the emitted code sets to the destination variable's name
        #: just before each creation call
        self.dist_plan: dict[str, str] = dict(dist_plan) if dist_plan else {}
        self.dest_hint: Optional[str] = None
        self.provider = provider
        self._out = out or (lambda text: None)
        self.rng = np.random.default_rng(seed)
        self.globals: dict[str, object] = {}
        self.tic_time = 0.0
        #: diagnostic: defensive local-block copies taken by set_element
        #: (the aliased slow path; the emitted ``reuse=True`` stores write
        #: in place when the descriptor is uniquely owned)
        self.set_element_copies = 0
        # per-rank local-memory high-water mark (paper Section 7 claim),
        # installed last: a constructor that raises before this line
        # leaves no thread-local tracker behind to charge later
        # allocations on this thread
        self.memory = MemoryTracker()
        install_tracker(self.memory)

    def close(self) -> None:
        """Uninstall this context's thread-local memory tracker.

        Rank carrier threads die with their tracker, but the nprocs==1
        fast path (and the fused backend) runs on the *caller's* thread —
        without this teardown the tracker would keep charging allocations
        long after the program finished.
        """
        if current_tracker() is self.memory:
            install_tracker(None)

    # ------------------------------------------------------------------ #
    # small helpers
    # ------------------------------------------------------------------ #

    def write(self, text: str) -> None:
        """Coordinated output: only rank 0 actually writes."""
        if self.rank == 0:
            self._out(text)
            self.comm.trace_io(len(text))

    @property
    def peak_local_bytes(self) -> int:
        """High-water mark of this rank's distributed-data storage."""
        return self.memory.peak

    def reseed(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def _check_numeric(self, value: RValue, what: str) -> None:
        if isinstance(value, str):
            raise MatlabRuntimeError(f"{what}: expected a numeric value")

    def scalar(self, value: RValue, what: str = "value") -> Union[float, complex]:
        """Coerce to a replicated scalar (1x1 DMatrix is gathered)."""
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, complex):
            return value
        if isinstance(value, PerRankScalar):
            collapsed = value.collapse()
            if isinstance(collapsed, PerRankScalar):
                raise FusionDivergence(
                    f"{what}: rank-varying scalar used as a replicated value")
            return collapsed
        if isinstance(value, DMatrix):
            if value.numel != 1:
                raise MatlabRuntimeError(f"{what}: expected a scalar")
            return self.element(value, 0, 0)
        raise MatlabRuntimeError(f"{what}: expected a scalar")

    def int_scalar(self, value: RValue, what: str = "value") -> int:
        v = self.scalar(value, what)
        real = v.real if isinstance(v, complex) else v
        if float(real) != int(real):
            raise MatlabRuntimeError(f"{what}: expected an integer")
        return int(real)

    def shape_of(self, value: RValue) -> tuple[int, int]:
        if isinstance(value, DMatrix):
            return value.shape
        return V.shape_of(value)

    # ------------------------------------------------------------------ #
    # distribution / gathering
    # ------------------------------------------------------------------ #

    def distribute_full(self, full: np.ndarray, scheme: str | None = None
                        ) -> RValue:
        """Distribute a replicated full array (no communication charged:
        every rank already holds it)."""
        full = V.as_matrix(full)
        if full.size == 1:
            return V.simplify(full)
        return self.descriptor.from_full(full, self.size, self.rank,
                                         scheme or self.scheme)

    def realign(self, value: RValue, scheme: str) -> RValue:
        """Redistribute ``value`` to ``scheme`` (identity if it already
        matches).  Costs one honest allgather — the safety net that makes
        a mixed-scheme plan merely expensive instead of wrong."""
        if not isinstance(value, DMatrix) or value.scheme == scheme:
            return value
        return self.distribute_full(self.gather_full(value), scheme=scheme)

    def gather_full(self, value: RValue, copy: bool = True) -> np.ndarray:
        """Assemble the full array on every rank (ML-level allgather),
        charging the allgather and one pass over the result — every
        time: the paper's run-time library re-gathers an operand each
        time it needs one, and the figure calibration assumes that.

        ``copy=False`` is an opt-in for callers that only *read* the
        result (transpose, circshift, ... — anything that derives a
        fresh array from it); it skips the defensive copy of an
        already-replicated fused array.  Charges are identical either
        way.
        """
        if not isinstance(value, DMatrix):
            return V.as_matrix(value)
        if isinstance(value, FusedDMatrix):
            # the full array is already in hand; charge exactly what the
            # lockstep allgather would (max per-rank block, symmetric)
            self.comm.overhead()
            self.comm.charge_allgather(
                value.geom.max_count * value.full.itemsize)
            # callers may scribble on the result unless they promised
            # not to
            full = np.array(value.full) if copy else value.full
            self.comm.compute(mem=value.numel)
            return full
        self.comm.overhead()
        full = value.assemble(self.comm.allgather(value.local))
        self.comm.compute(mem=value.numel)
        return full

    def to_interp_value(self, value: RValue):
        """Replicated plain value (I/O, ``save``, builtins the
        interpreter implements): gathers if needed.

        Every caller only reads the result or keeps it, so a fused
        descriptor hands over its own array, uncopied: descriptors never
        write into a shared array, and a held reference keeps it off the
        free lists."""
        if isinstance(value, DMatrix):
            return V.simplify(self.gather_full(value, copy=False))
        if isinstance(value, PerRankScalar):
            return value.values[0]  # what rank 0 holds under lockstep
        return value

    # ------------------------------------------------------------------ #
    # creation (ML_init + fill)
    # ------------------------------------------------------------------ #

    def _create(self, rows: int, cols: int,
                fill: Callable[[tuple[int, int]], np.ndarray]) -> RValue:
        """Create a distributed matrix; ``fill`` produces the *full* array
        (deterministically identical on every rank), each rank keeps its
        block, and only the local share is charged."""
        if rows < 0 or cols < 0:
            raise MatlabRuntimeError("matrix dimensions must be nonnegative")
        full = fill((rows, cols))
        if rows * cols <= 1:
            return V.simplify(np.asarray(full).reshape(rows, cols)
                              if rows * cols else np.zeros((rows, cols)))
        mat = self.descriptor.from_full(full, self.size, self.rank,
                                        self._creation_scheme())
        self.comm.charge(mem=mat.load)
        return mat

    def _creation_scheme(self) -> str:
        """Distribution scheme for the array being created: the per-array
        plan override for the current destination hint, else the default."""
        if self.dist_plan and self.dest_hint is not None:
            return self.dist_plan.get(self.dest_hint, self.scheme)
        return self.scheme

    def zeros(self, rows: RValue = 1.0, cols: RValue | None = None) -> RValue:
        r = self.int_scalar(rows, "zeros")
        c = r if cols is None else self.int_scalar(cols, "zeros")
        return self._create(r, c, lambda s: np.zeros(s))

    def ones(self, rows: RValue = 1.0, cols: RValue | None = None) -> RValue:
        r = self.int_scalar(rows, "ones")
        c = r if cols is None else self.int_scalar(cols, "ones")
        return self._create(r, c, lambda s: np.ones(s))

    def eye(self, rows: RValue = 1.0, cols: RValue | None = None) -> RValue:
        r = self.int_scalar(rows, "eye")
        c = r if cols is None else self.int_scalar(cols, "eye")
        return self._create(r, c, lambda s: np.eye(*s))

    def rand(self, rows: RValue = 1.0, cols: RValue | None = None) -> RValue:
        r = self.int_scalar(rows, "rand")
        c = r if cols is None else self.int_scalar(cols, "rand")
        # Generated identically on every rank from the shared stream so
        # results match the sequential oracle bit-for-bit.
        return self._create(r, c, lambda s: self.rng.random(s))

    def randn(self, rows: RValue = 1.0, cols: RValue | None = None) -> RValue:
        r = self.int_scalar(rows, "randn")
        c = r if cols is None else self.int_scalar(cols, "randn")
        return self._create(r, c, lambda s: self.rng.standard_normal(s))

    def linspace(self, a: RValue, b: RValue, n: RValue = 100.0) -> RValue:
        av = float(np.real(self.scalar(a, "linspace")))
        bv = float(np.real(self.scalar(b, "linspace")))
        nv = self.int_scalar(n, "linspace")
        return self._create(1, nv,
                            lambda s: np.linspace(av, bv, nv).reshape(1, -1))

    def range_vector(self, start: RValue, step: RValue,
                     stop: RValue) -> RValue:
        sv = float(np.real(self.scalar(start, "range")))
        pv = float(np.real(self.scalar(step, "range")))
        ev = float(np.real(self.scalar(stop, "range")))
        full = V.colon_range(sv, pv, ev)
        if full.size <= 1:
            return V.simplify(full)
        return self._create(1, full.shape[1], lambda s: full)

    def from_literal(self, rows: Sequence[Sequence[RValue]]) -> RValue:
        """Build a matrix literal ``[a, b; c, d]``; distributed elements
        are gathered first (that *is* communication, and is charged)."""
        if not rows:
            return np.zeros((0, 0))
        blocks = []
        for row in rows:
            cells = []
            for cell in row:
                self._check_numeric(cell, "matrix literal")
                cells.append(self.gather_full(cell)
                             if isinstance(cell, DMatrix)
                             else V.as_matrix(cell))
            cells = [c for c in cells if c.size] or [np.zeros((0, 0))]
            heights = {c.shape[0] for c in cells if c.size}
            if len(heights) > 1:
                raise MatlabRuntimeError(
                    "matrix literal: inconsistent row heights")
            blocks.append(np.hstack(cells))
        widths = {b.shape[1] for b in blocks if b.size}
        if len(widths) > 1:
            raise MatlabRuntimeError("matrix literal: inconsistent widths")
        blocks = [b for b in blocks if b.size]
        if not blocks:
            return np.zeros((0, 0))
        full = np.vstack(blocks)
        if full.size <= 1:
            return V.simplify(full)
        mat = self.descriptor.from_full(full, self.size, self.rank,
                                        self._creation_scheme())
        self.comm.compute_own(mem=mat.load)
        return mat

    # ------------------------------------------------------------------ #
    # element access (ML_broadcast / ML_owner / guarded stores)
    # ------------------------------------------------------------------ #

    def element(self, mat: RValue, i, j=None) -> Union[float, complex]:
        """ML_broadcast: the owner of element (i[, j]) broadcasts it.

        Subscripts are 0-based — the compiler has already decremented
        them, exactly as the paper's emitted C does.
        """
        if not isinstance(mat, DMatrix):
            value = V.index_read(mat, [float(i + 1)] if j is None
                                 else [float(i + 1), float(j + 1)])
            return value  # replicated: no communication
        i = int(i)
        jj = None if j is None else int(j)
        self._bounds_check(mat, i, jj)
        owner = mat.owner_of(i, jj)
        if isinstance(mat, FusedDMatrix):
            # read straight from the full array; the bcast charge is the
            # owner's payload size, same as lockstep
            r_, c_ = (i % mat.rows, i // mat.rows) if jj is None else (i, jj)
            raw = mat.full[r_, c_]
            payload = complex(raw) if np.iscomplexobj(mat.full) \
                else float(raw)
            self.comm.overhead()
            return self.comm.bcast(payload, root=owner)
        if mat.owns(i, jj):
            idx = mat.local_element_index(i, jj)
            raw = mat.local[idx]
            payload = complex(raw) if np.iscomplexobj(mat.local) \
                else float(raw)
        else:
            payload = None
        self.comm.overhead()
        value = self.comm.bcast(payload, root=owner)
        return value

    def _bounds_check(self, mat: DMatrix, i: int, j: int | None) -> None:
        if j is None:
            if not 0 <= i < mat.numel:
                raise MatlabRuntimeError("index exceeds matrix dimensions")
        else:
            if not (0 <= i < mat.rows and 0 <= j < mat.cols):
                raise MatlabRuntimeError("index exceeds matrix dimensions")

    def owner(self, mat: RValue, i, j=None) -> bool:
        """ML_owner: does this rank store element (i[, j])?  0-based."""
        if not isinstance(mat, DMatrix):
            return True  # replicated
        return mat.owns(int(i), None if j is None else int(j))

    def set_element(self, mat: RValue, subs: Sequence, rhs: RValue,
                    reuse: bool = False) -> RValue:
        """Guarded scalar store ``a(i, j) = rhs`` (pass 5's conditional):
        only the owner writes; the updated matrix is returned.

        ``reuse=True`` (emitted only for ``v = rt.set_element(v, ...)``
        rebinds, where the old descriptor dies on return) allows an
        in-place write when the descriptor and its storage are uniquely
        owned — turning element-init loops from O(n²) copying into O(n).
        Aliased descriptors still get the defensive copy (counted in
        ``set_element_copies``).

        Falls back to the general indexed store for non-scalar subscripts
        or stores that grow the matrix.
        """
        if isinstance(mat, FusedDMatrix):
            return self._set_element_fused(mat, subs, rhs, reuse)
        scalar_subs = all(
            sub is not COLON and not isinstance(sub, DMatrix)
            and not isinstance(sub, PerRankScalar)
            and V.numel(sub) == 1 for sub in subs)
        rhs_scalar = (not isinstance(rhs, DMatrix) and not isinstance(rhs, str)
                      and not isinstance(rhs, PerRankScalar)
                      and V.numel(rhs) == 1)
        if (isinstance(mat, DMatrix) and scalar_subs and rhs_scalar
                and self._in_bounds(mat, subs)):
            value = self.scalar(rhs)
            local = mat.local
            if isinstance(value, complex) and not np.iscomplexobj(local):
                return self.index_assign(mat, subs, rhs)
            i = int(float(np.real(self.scalar(subs[0])))) - 1
            j = None if len(subs) == 1 else \
                int(float(np.real(self.scalar(subs[1])))) - 1
            # In-place fast path: safe only when nothing else can observe
            # this descriptor or its buffer (refcounts: caller's variable
            # + our argument binding + getrefcount's own temp = 3).
            if (reuse and local.base is None
                    and local.flags.owndata and local.flags.writeable
                    and sys.getrefcount(mat) <= 3
                    and sys.getrefcount(local) <= 3):
                new_local = local
            else:
                self.set_element_copies += 1
                new_local = local.copy()
            if mat.owns(i, j):
                idx = mat.local_element_index(i, j)
                new_local[idx] = value
            self.comm.charge(mem=mat.load)
            if new_local is local:
                return mat
            return mat.like(new_local)
        return self.index_assign(mat, subs, rhs)

    def _set_element_fused(self, mat: FusedDMatrix, subs: Sequence,
                           rhs: RValue, reuse: bool) -> RValue:
        """Fused guarded store: one write into the full array; per-rank
        virtual time charged exactly as P lockstep stores would be."""
        if any(isinstance(sub, PerRankScalar) for sub in subs):
            raise FusionDivergence("rank-varying subscript in a store")
        scalar_subs = all(
            sub is not COLON and not isinstance(sub, DMatrix)
            and V.numel(sub) == 1 for sub in subs)
        rhs_ok = (isinstance(rhs, PerRankScalar)
                  or (not isinstance(rhs, DMatrix) and not isinstance(rhs, str)
                      and V.numel(rhs) == 1))
        if not (scalar_subs and rhs_ok and self._in_bounds(mat, subs)):
            return self.index_assign(mat, subs, rhs)
        i = int(float(np.real(self.scalar(subs[0])))) - 1
        j = None if len(subs) == 1 else \
            int(float(np.real(self.scalar(subs[1])))) - 1
        owner = mat.owner_of(i, j)
        value = rhs.values[owner] if isinstance(rhs, PerRankScalar) \
            else self.scalar(rhs)
        full = mat.full
        if isinstance(value, complex) and not np.iscomplexobj(full):
            return self.index_assign(mat, subs, rhs)
        # mat's threshold is 4, not 3: set_element's own frame holds an
        # extra reference while delegating here
        if (reuse and owns_memory(full)
                and full.flags.writeable
                and sys.getrefcount(mat) <= 4
                and sys.getrefcount(full) <= 3):
            new_full = full
        else:
            self.set_element_copies += 1
            new_full = full.copy()
        r_, c_ = (i % mat.rows, i // mat.rows) if j is None else (i, j)
        new_full[r_, c_] = value
        self.comm.charge(mem=mat.load)
        if new_full is full:
            return mat
        return mat.like(new_full)

    def _in_bounds(self, mat: DMatrix, subs: Sequence) -> bool:
        try:
            if len(subs) == 1:
                i = self.int_scalar(subs[0]) - 1
                return 0 <= i < mat.numel
            i = self.int_scalar(subs[0]) - 1
            j = self.int_scalar(subs[1]) - 1
            return 0 <= i < mat.rows and 0 <= j < mat.cols
        except MatlabRuntimeError:
            return False

    # ------------------------------------------------------------------ #
    # general indexing: one remap (scalar fast paths above); a store that
    # grows its matrix, or one into a replicated value, is gather-based
    # ------------------------------------------------------------------ #

    def _replicate_sub(self, sub):
        if sub is COLON:
            return COLON
        if isinstance(sub, DMatrix):
            return V.simplify(self.gather_full(sub))
        return sub

    def index_read(self, mat: RValue, subs: Sequence) -> RValue:
        """``mat(subs...)`` — 1-based subscripts, MATLAB semantics."""
        subs = [self._replicate_sub(s) for s in subs]
        if isinstance(mat, DMatrix):
            # scalar fast path: a(i), a(i, j)
            if all(s is not COLON and V.numel(s) == 1 for s in subs):
                i = int(float(np.real(V.as_matrix(subs[0]).reshape(-1)[0]))) - 1
                j = None if len(subs) == 1 else \
                    int(float(np.real(V.as_matrix(subs[1]).reshape(-1)[0]))) - 1
                return self.element(mat, i, j)
            return _remap.read(self, mat, subs)
        result = V.index_read(mat, list(subs))
        self.comm.overhead()
        return self.distribute_full(V.as_matrix(result)) \
            if V.numel(result) > 1 else result

    def index_assign(self, mat: RValue | None, subs: Sequence,
                     rhs: RValue) -> RValue:
        subs = [self._replicate_sub(s) for s in subs]
        if isinstance(mat, DMatrix) and not isinstance(rhs, str):
            stored = _remap.assign(self, mat, subs, rhs)
            if stored is not None:
                return stored
        base = None
        if mat is not None:
            base = self.gather_full(mat) if isinstance(mat, DMatrix) \
                else mat
        rhs_rep = self.to_interp_value(rhs) if isinstance(rhs, DMatrix) else rhs
        result = V.index_assign(base, list(subs), rhs_rep)
        self.comm.overhead()
        if V.numel(result) > 1:
            return self.distribute_full(V.as_matrix(result))
        return result

    # ------------------------------------------------------------------ #
    # fused elementwise (the compiler's owner-computes for loops)
    # ------------------------------------------------------------------ #

    def ew(self, fn: Callable[..., np.ndarray], nops: int,
           *operands: RValue, spec=None) -> RValue:
        """Apply a fused elementwise kernel.

        ``fn`` receives one ndarray (or scalar) per operand and computes
        the whole statement's elementwise chain in one pass — this is the
        single generated ``for`` loop of the paper's pass 4, so the cost
        model charges ``nops`` flops per element but only *one* temporary.

        ``spec`` is the statement's op tree serialized as nested tuples
        (leaves: ``"@N"`` operand slots and numeric constants).  When a
        native engine is attached, the chain runs as one JIT-compiled C
        loop over the same buffers — bitwise identical by construction
        and verification, falling back to ``fn`` per call otherwise.
        The cost-model charges below are issued identically either way.
        """
        # One pass classifies the operands: the kernel's arguments, the
        # first distributed operand (the result's template) and whatever
        # is out of the ordinary.  The ordinary case — Python floats and
        # matrices of one interned geometry — meets no other check.
        template = clash = None
        per_rank = realign = False
        args = []
        for op in operands:
            kind = op.__class__
            if kind is float:
                args.append(op)
            elif kind is FusedDMatrix or kind is DMatrix:
                if template is None:
                    template = op
                elif op.geom is not template.geom:
                    if op.shape != template.shape:
                        if clash is None:
                            clash = op
                    elif op.scheme != template.scheme:
                        realign = True
                args.append(op.held)
            elif isinstance(op, str):
                raise MatlabRuntimeError(
                    "elementwise operation: expected a numeric value")
            else:       # complex, replicated arrays, numpy scalars, ...
                per_rank = per_rank or isinstance(op, PerRankScalar)
                args.append(op)
        if per_rank:
            if template is not None:
                raise FusionDivergence(
                    "rank-varying scalar mixed into distributed arithmetic")
            # pure-scalar chain over rank-varying values: apply per rank
            # (charge-free, matching the lockstep scalar path)
            outs = []
            for r in range(self.size):
                locals_ = [
                    op.values[r] if isinstance(op, PerRankScalar)
                    else complex(op) if isinstance(op, complex)
                    else np.asarray(V.as_matrix(op)) for op in operands]
                res = np.asarray(fn(*locals_)).reshape(-1)[0]
                outs.append(complex(res) if np.iscomplexobj(res)
                            else float(res))
            return PerRankScalar(outs).collapse()
        if template is None:
            locals_ = [complex(op) if isinstance(op, complex) else
                       np.asarray(V.as_matrix(op)) for op in operands]
            out = fn(*locals_)
            return V.simplify(np.asarray(out))
        if clash is not None:
            raise MatlabRuntimeError(
                f"matrix dimensions must agree "
                f"({template.shape} vs {clash.shape})")
        if realign:
            # mixed distributions (a per-array plan choice): realign to
            # the first operand's scheme, paying the gather honestly
            scheme = template.scheme
            return self.ew(fn, nops, *(
                self.realign(op, scheme) if isinstance(op, DMatrix) else op
                for op in operands), spec=spec)
        # the kernel, over what the descriptors hold: the whole array
        # when fused — bitwise identical to the per-block calls
        # (elementwise ufuncs are position-independent) — else this
        # rank's block
        out = None
        if spec is not None and self.native is not None:
            out = self.native.run(spec, args, fn, template.spare)
        if out is None:
            # (under the rank program's errstate: repro.compiler)
            out = np.asarray(fn(*args))
        if out.dtype.kind not in "fc":
            out = out.astype(float)
        load = template.load
        self.comm.charge(elems=load * nops, mem=load)
        return template.like(out)

    def ew_group(self, gspec, operands: tuple, olds: tuple, live=None,
                 last=True, carry=None):
        """Run a group of elementwise statements (pass 6's ``ew_group``)
        as one native kernel, or return ``None``.

        ``gspec`` is the group's kernel spec, ``operands`` the values
        it reads from before the group and ``olds``, per member, the
        value its destination holds now when no member reads that value
        (else ``None``).  ``live`` (``None``: every member, always) is
        pass 6's ``lean`` pair of the members that get an array before
        a loop's ``last`` iteration and on it: the kernel writes only
        those of this iteration, the others stay in registers and their
        statements' values are :func:`_nothing` — no statement reads
        one before it is assigned again.  The result hands each
        member's statement its output, in order, through
        :meth:`Group.result` (a halo tap's: :meth:`Group.tap`), which
        charges exactly what ``ew`` (a tap's ``circshift``) would; on
        ``None`` every member runs through its own statement as if there
        were no group — as it does when a tap's shift would gather
        (:func:`~repro.runtime.structural.shift_plan`).  The operands
        must be what the kernel takes as they are: Python floats, values
        that stand for one real ``double``, and float64 C-contiguous
        matrices of one geometry.

        An output is written into the array of a member's old value when
        that descriptor is provably its sole owner — the reference
        counts of :meth:`FusedDMatrix.__del__`'s recycling rule, plus
        the ``olds`` entry and the loop variable here — so a group holds
        no more full-size buffers than its statements one at a time.

        In a loop whose body is the group (pass 6's ``loop_group``),
        ``carry`` pairs each :data:`~repro.ir.nodes.LIVE` member with
        the operand its output replaces on the next iteration, and on
        the loop's first iteration ``last`` is the loop's
        :class:`LoopBatch`: the iterations before the last then run in
        one native call, and the result is a :class:`LoopGroup` — or,
        if that call is refused, this iteration runs as any other.
        """
        native = self.native
        geom = None
        sig = ""
        # what the lambdas take (a matrix's array), and what C takes
        args = values = list(operands)
        k = 0
        for op in operands:
            kind = op.__class__
            if kind is FusedDMatrix:
                if geom is None:
                    geom = op.geom
                elif op.geom is not geom:
                    break
                held = op.held
                if held.dtype != _FLOAT64 or not held.flags.c_contiguous:
                    break
                args[k] = values[k] = held
                sig += "a"
            elif kind is float:
                sig += "s"
            else:
                demoted = native.as_double(op)
                if demoted is None:
                    break
                if values is args:
                    values = args[:]
                values[k] = demoted
                sig += "s"
            k += 1
        else:
            if geom is not None:
                shifts, plans = [], None
                k = 0
                for spec, slots in gspec:
                    if spec[0] == TAP:
                        plan = _structural.shift_plan(
                            operands[slots[0]], spec[2], spec[3]) \
                            if sig[slots[0]] == "a" else None
                        if plan is None:
                            native.stats.bump("signature_fallbacks")
                            return None
                        if plans is None:
                            plans = [None] * len(gspec)
                        plans[k] = plan
                        shifts += plan[:2]
                    k += 1
                if last.__class__ is LoopBatch:
                    # every carried value an array the output replaces
                    for slot, _ in carry:
                        if sig[slot] != "a":
                            break
                    else:
                        res = native.run_loop(gspec, sig, args, values,
                                              geom.shape, geom.spare, carry,
                                              shifts, last.count)
                        if res is not None:
                            return LoopGroup(res, geom, self.comm, plans,
                                             _nothing(geom.shape), last)
                    last = False
                bufs = [None] * len(olds)
                k = 0
                for old in olds:
                    if (old.__class__ is FusedDMatrix and old.geom is geom
                            and _refs(old) == 4):
                        held = old.held
                        if (_refs(held) == 3 and owns_memory(held)
                                and held.dtype == _FLOAT64
                                and held.flags.c_contiguous
                                and held.flags.writeable):
                            bufs[k] = held
                    k += 1
                outs = None if live is None else live[last]
                res = native.run_group(gspec, sig, args, values, geom.shape,
                                       bufs, geom.spare, outs, shifts)
                return None if res is None else \
                    Group(res, geom, self.comm, plans,
                          None if outs is None and plans is None
                          else _nothing(geom.shape))
        native.stats.bump("signature_fallbacks")
        return None

    # ------------------------------------------------------------------ #
    # truthiness / control flow support
    # ------------------------------------------------------------------ #

    def truthy(self, value: RValue) -> bool:
        if isinstance(value, PerRankScalar):
            # the branch outcome would differ across ranks: abort fusion
            raise FusionDivergence("control flow on a rank-varying scalar")
        if isinstance(value, DMatrix):
            # every held element nonzero, on every rank
            held = value.held
            ok = bool(np.all(held != 0)) if held.size else True
            self.comm.charge(elems=value.load)
            combined = self.comm.allreduce(float(ok), op=LAND)
            return bool(combined) and value.numel > 0
        return V.truthy(value)

    def loop_values(self, iterable: RValue):
        """Yield loop values for ``for v = iterable`` (columns, MATLAB
        semantics).  Scalars yield once; distributed matrices yield
        replicated scalars for row vectors and distributed columns
        otherwise."""
        if isinstance(iterable, str):
            raise MatlabRuntimeError("for: cannot iterate a string")
        if not isinstance(iterable, DMatrix):
            arr = V.as_matrix(iterable)
            if arr.shape[0] == 1:
                for c in range(arr.shape[1]):
                    yield V.simplify(arr[0, c])
            else:
                for c in range(arr.shape[1]):
                    yield V.simplify(arr[:, c:c + 1])
            return
        if iterable.rows == 1:
            full = self.gather_full(iterable).reshape(-1)
            for value in full:
                yield complex(value) if np.iscomplexobj(full) \
                    else float(value)
        else:
            for c in range(iterable.cols):
                yield self.index_read(iterable, [COLON, float(c + 1)])

    # ------------------------------------------------------------------ #
    # I/O (coordinated by rank 0) — ML_print_matrix and friends
    # ------------------------------------------------------------------ #

    # every rank gathers the operands; rank 0, the one that writes, makes
    # the text (a formatting error is still the lowest failing rank's)

    def display(self, name: str, value: RValue) -> None:
        rep = self.to_interp_value(value)
        if self.rank == 0:
            self.write(V.display(name, rep))

    def disp(self, value: RValue) -> None:
        rep = self.to_interp_value(value)
        if self.rank == 0:
            self.write(V.format_value(rep) + "\n")

    def fprintf(self, fmt: RValue, *args: RValue) -> None:
        from ..interp.builtins import printf_values, sprintf_cycle

        if not isinstance(fmt, str):
            raise MatlabRuntimeError("fprintf: first argument must be a format")
        reps = [self.to_interp_value(a) for a in args]
        if self.rank == 0:
            self.write(sprintf_cycle(fmt, printf_values(reps)))

    def error(self, fmt: RValue, *args: RValue) -> None:
        from ..interp.builtins import sprintf_cycle

        msg = fmt if isinstance(fmt, str) else V.format_value(
            self.to_interp_value(fmt))
        if args:
            values: list = []
            for a in args:
                rep = self.to_interp_value(a)
                values.extend(V.as_matrix(rep).reshape(-1, order="F").tolist())
            msg = sprintf_cycle(msg, values)
        raise MatlabRuntimeError(msg)

    def load(self, name: RValue) -> RValue:
        if not isinstance(name, str):
            raise MatlabRuntimeError("load: file name must be a string")
        try:
            data = datastore.load_data(name, self.provider)
        except datastore.StoreError as exc:
            raise MatlabRuntimeError(f"load: {exc}") from exc
        full = V.as_matrix(data)
        # rank 0 reads the file and scatters row blocks; a store URL
        # charges exactly what the local-file path does, so the same
        # script traces bit-identically against hosted or sample data
        self.comm.overhead()
        self.comm.advance(self.comm.machine.collective_time(
            "scatter", full.nbytes // max(self.size, 1), self.size))
        return self.distribute_full(full)

    def save(self, name: RValue, *args: RValue) -> None:
        if not isinstance(name, str):
            raise MatlabRuntimeError("save: file name must be a string")
        values = [self.to_interp_value(a) for a in args]
        if self.rank == 0:
            try:
                datastore.save(name, values)
            except datastore.StoreError as exc:
                raise MatlabRuntimeError(f"save: {exc}") from exc

    def tic(self) -> None:
        # this rank's clock, or under fusion every rank's (a list)
        self.tic_time = self.comm.clock_snapshot()

    def toc(self):
        now = self.comm.clock_snapshot()
        if not isinstance(now, list):
            return float(now - self.tic_time)
        base = self.tic_time if isinstance(self.tic_time, list) \
            else [self.tic_time] * self.size
        return PerRankScalar([n - b for n, b in zip(now, base)]).collapse()


def replicate_workspace(results: list, fused: bool) -> Optional[dict]:
    """Rank 0's final workspace as plain values, built once on the host
    from the raw workspace each rank's program returned (in rank order;
    under ``fused`` one pass stood in for every rank): a distributed
    value is assembled from the ranks' blocks as a gather would end (a
    fused one hands over its full array, uncopied, as
    :meth:`RuntimeContext.to_interp_value` does), a rank-varying scalar
    is rank 0's, and never-assigned variables are dropped.  No
    collective, clock or trace sees it.  ``None`` when rank 0 did not
    finish, or a peer's block is missing (a degraded run)."""
    workspace = results[0]
    if workspace is None:
        return None
    distributed = {name for name, value in workspace.items()
                   if isinstance(value, DMatrix)}
    for rank, peer in enumerate(() if fused else results[1:], 1):
        if peer is None:
            if distributed:
                return None
            continue
        theirs = {name for name, value in peer.items()
                  if isinstance(value, DMatrix)}
        if theirs != distributed:
            raise MpiError(
                f"final workspace: rank {rank} and rank 0 disagree on "
                f"whether {min(theirs ^ distributed)!r} is distributed")
    replicated = {}
    for name, value in workspace.items():
        if name in distributed:
            value = V.simplify(value.full if fused else value.assemble(
                [peer[name].held for peer in results]))
        elif isinstance(value, PerRankScalar):
            value = value.values[0]   # what rank 0 holds under lockstep
        elif value is None:
            continue
        replicated[name] = value
    return replicated


# -------------------------------------------------------------------------- #
# delegation to the operation modules (import at the bottom avoids cycles)
# -------------------------------------------------------------------------- #

from . import builtins as _builtins  # noqa: E402
from . import linalg as _linalg  # noqa: E402
from . import remap as _remap  # noqa: E402
from . import reductions as _reductions  # noqa: E402
from . import structural as _structural  # noqa: E402


# The operation modules' functions take the context first, so they are
# the methods: ``rt.matmul(a, b)`` is ``linalg.matmul(rt, a, b)`` with no
# frame in between.
for _module, _names in (
        (_linalg, ("matmul", "dot", "outer", "matvec", "vecmat", "transpose",
                   "solve", "matrix_power", "matmul_t")),
        (_reductions, ("reduce_op", "reduce2", "reduce_batch", "mean", "norm",
                       "trapz", "trapz2", "cumulative")),
        (_structural, ("sort", "circshift")),
        (_builtins, ("call_builtin",))):
    for _name in _names:
        setattr(RuntimeContext, _name, getattr(_module, _name))


# -------------------------------------------------------------------------- #
# codegen support methods (used by emitted Python programs)
# -------------------------------------------------------------------------- #


@functools.lru_cache(maxsize=64)
def _nothing(shape: tuple) -> np.ndarray:
    """The one read-only zero-stride array of ``shape``: what a group
    member's descriptor holds when no statement reads its value.  The
    descriptor charges the memory tracker like any other; the recycling
    rule never takes a read-only array."""
    view = np.lib.stride_tricks.as_strided(np.zeros(1), shape, (0, 0))
    view.flags.writeable = False
    return view


class Group:
    """The outputs of one ``ew_group`` kernel call, handed to the
    members' statements in order."""

    __slots__ = ("outs", "next", "geom", "load", "comm", "plans", "none")

    def __init__(self, outs: list, geom, comm, plans=None, none=None):
        self.outs = outs
        self.next = 0
        self.geom = geom
        self.load = geom.counts
        self.comm = comm
        #: per member, a halo tap's :func:`~repro.runtime.structural.
        #: shift_plan` (``None``: the group has no taps)
        self.plans = plans
        #: what a member without an array holds (:func:`_nothing`)
        self.none = none

    def _take(self):
        k = self.next
        out = self.outs[k]
        self.outs[k] = None
        self.next = k + 1
        return k, self.none if out is None else out

    def result(self, nops: int) -> FusedDMatrix:
        """The next member's value, charged as ``ew`` charges a loop of
        ``nops`` operations per element.  The group lets go of the array
        as it hands it out, so the descriptor is its one owner."""
        _, out = self._take()
        load = self.load
        self.comm.charge(elems=load * nops, mem=load)
        return FusedDMatrix(self.geom, _FLOAT64, out)

    def tap(self) -> FusedDMatrix:
        """The next member's value, a halo tap's: charged as its
        ``circshift`` charges the same shift — whose column step, when
        a row step follows, leaves a descriptor alive until the second
        one is made."""
        k, out = self._take()
        plan = self.plans[k]
        _structural.charge_shift(self.comm, self.load, plan)
        _step = FusedDMatrix(self.geom, _FLOAT64, self.none) \
            if plan[2] and plan[3] is not None else None
        return FusedDMatrix(self.geom, _FLOAT64, out)


class LoopBatch:
    """The first iteration of a loop whose body is one group (pass 6's
    ``loop_group``), as :meth:`loop_range` hands it to ``ew_group``:
    ``count`` iterations come before the last, and ``taken`` says they
    ran in one call, so the loop goes on at its last iteration."""

    __slots__ = ("count", "taken")

    def __init__(self, count: int):
        self.count = count
        self.taken = False


class _Recording:
    """A communicator that makes each call it is asked for, and keeps it
    as ``(method, args, kwargs)`` to be made again."""

    def __init__(self, comm):
        self.comm = comm
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.comm, name)

        def call(*args, **kwargs):
            self.calls.append((method, args, kwargs))
            return method(*args, **kwargs)
        # (the next lookup of ``name`` finds it without this frame)
        setattr(self, name, call)
        return call


class LoopGroup(Group):
    """A :class:`Group` whose kernel ran ``batch.count`` iterations of
    its loop: it hands out the first iteration's values — a carried
    member's is the last of those iterations' — and charges them as
    that iteration would, recording each charge.  After the last
    member it makes the recorded calls again for every other iteration
    of the batch, in order, through the same methods: the clocks and
    tallies are those of the iterations one by one."""

    __slots__ = ("batch", "members")

    def __init__(self, outs: list, geom, comm, plans, none, batch):
        super().__init__(outs, geom, _Recording(comm), plans, none)
        self.batch = batch
        self.members = len(outs)

    def result(self, nops: int) -> FusedDMatrix:
        value = Group.result(self, nops)
        if self.next == self.members:
            self._replay()
        return value

    def tap(self) -> FusedDMatrix:
        value = Group.tap(self)
        if self.next == self.members:
            self._replay()
        return value

    def _replay(self) -> None:
        calls = self.comm.calls
        for _ in range(self.batch.count - 1):
            for method, args, kwargs in calls:
                method(*args, **kwargs)
        self.batch.taken = True


def _codegen_support(cls):
    import numpy as _np
    from ..interp import values as _V

    def loop_range(self, start, step, stop, last=False, batch=False):
        """Replicated loop values for ``for i = a:s:b`` — no vector is
        materialized, exactly like the compiled C loop.  With ``last``,
        each value comes as ``(is this the last iteration?, value)``,
        for a loop whose groups compute less before then (pass 6's
        ``lean``).  With ``batch`` too (pass 6's ``loop_group``), the
        first of three or more iterations comes as ``(LoopBatch,
        value)`` where a group may run natively and untraced; once its
        group took the batch, the next value is the last iteration's."""
        sv = float(_np.real(self.scalar(start, "for")))
        pv = float(_np.real(self.scalar(step, "for")))
        ev = float(_np.real(self.scalar(stop, "for")))
        if pv == 0:
            raise MatlabRuntimeError("for: range step must be nonzero")
        n = int(_np.floor((ev - sv) / pv * (1 + _np.finfo(float).eps * 4)
                          + 1e-10)) + 1
        first = 0
        if batch and n >= 3 and self.grouped and not self.comm.tracing:
            hop = LoopBatch(n - 1)
            yield hop, sv
            first = n - 1 if hop.taken else 1
        for k in range(first, max(n, 0)):
            yield (k == n - 1, sv + pv * k) if last else sv + pv * k

    def end_extent(self, value, axis, nargs):
        """Value of ``end`` inside a subscript (local metadata, no comm)."""
        r, c = self.shape_of(value)
        if int(self.scalar(nargs)) <= 1:
            return float(r * c)
        return float(r if int(self.scalar(axis)) == 0 else c)

    def switch_match(self, subject, candidate) -> float:
        sv = self.to_interp_value(subject)
        cv = self.to_interp_value(candidate)
        if isinstance(sv, str) or isinstance(cv, str):
            return 1.0 if (isinstance(sv, str) and isinstance(cv, str)
                           and sv == cv) else 0.0
        return 1.0 if bool(_np.all(_V.as_matrix(sv) == _V.as_matrix(cv))) \
            else 0.0

    cls.loop_range = loop_range
    cls.end_extent = end_extent
    cls.switch_match = switch_match
    return cls


_codegen_support(RuntimeContext)
