"""Performance models of the paper's three target architectures.

The paper benchmarks on: a 16-CPU Meiko CS-2 (distributed-memory
multicomputer), an 8-CPU Sun Enterprise SMP, and a cluster of four 4-CPU
Sun SPARCserver-20s on Ethernet.  We cannot have the hardware, so each is
modeled by:

* a :class:`CpuModel` — per-flop / per-element costs of the compiled
  run-time library on one CPU (plus interpreter-degradation factors used
  by :mod:`repro.interp.costmodel`);
* a link model — latency/bandwidth per rank pair, *hierarchical* for the
  SMP cluster (fast inside a 4-CPU node, 10 Mb/s shared Ethernet across);
* contention hooks — SMP memory-bus pressure and Ethernet's shared
  medium, which are precisely what flatten the cluster's speedup curves
  beyond one SMP in Figures 3-6.

Absolute constants are era-plausible (UltraSPARC/SuperSPARC-class CPUs,
microsecond SMP latencies, ~1 ms Ethernet RTTs); the reproduction targets
curve *shapes*, not the authors' exact wall clocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..interp.costmodel import InterpCostParams


@dataclass(frozen=True)
class CpuModel:
    """Single-CPU cost of compiled (C-like) code."""

    flop_time: float      # s per flop in dense kernels (matmul, matvec)
    elem_time: float      # s per element per fused elementwise op
    mem_time: float       # s per element of memory traffic (copies, temps)
    call_overhead: float  # s per run-time-library call (MATRIX bookkeeping)
    # Interpreter degradation factors (The MathWorks interpreter, 1997)
    interp_elem_factor: float = 2.5
    interp_flop_factor: float = 4.5
    interp_op_overhead: float = 8.0e-5
    interp_stmt_dispatch: float = 1.2e-5
    interp_index_time: float = 4.0e-6

    def interpreter_params(self) -> InterpCostParams:
        return InterpCostParams(
            stmt_dispatch=self.interp_stmt_dispatch,
            op_overhead=self.interp_op_overhead,
            elem_time=self.elem_time * self.interp_elem_factor,
            flop_time=self.flop_time * self.interp_flop_factor,
            mem_time=self.mem_time * 2.0,
            index_time=self.interp_index_time,
        )


@dataclass(frozen=True)
class Link:
    latency: float    # seconds, one message
    bandwidth: float  # bytes/second

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"link latency must be >= 0 "
                             f"(got {self.latency!r})")
        if self.bandwidth <= 0:
            raise ValueError(f"link bandwidth must be > 0 "
                             f"(got {self.bandwidth!r})")


@dataclass(frozen=True)
class MachineModel:
    """Topology + cost model for one parallel architecture."""

    name: str
    max_cpus: int
    cpu: CpuModel
    intra_link: Link                  # within one node (or the only link)
    inter_link: Link | None = None    # across nodes (None: flat machine)
    cpus_per_node: int = 0            # 0 means all CPUs in one "node"
    # SMP memory-bus contention: memory-bound work is scaled by
    # 1 + alpha*(p_active - 1) on a shared bus.
    bus_contention: float = 0.0
    # Shared-medium network (Ethernet): concurrent inter-node transfers
    # divide the wire; True divides bandwidth by the number of
    # simultaneously communicating node pairs.
    shared_medium: bool = False
    # Primary memory available to one CPU's share of the data (bytes);
    # era-plausible 1997 values.  Backs the paper's Section 7 claim that
    # parallel machines solve problems no single workstation can hold.
    memory_per_cpu: int = 128 * 1024 * 1024
    # Collective algorithm selection (the autotuner's communication axis).
    # Defaults model the run-time library the paper benchmarked: ring /
    # sequential-root gathers and a binomial reduce+bcast allreduce.
    # ``doubling`` (recursive doubling, log2(P) latency terms) and
    # ``halving`` (Rabenseifner reduce-scatter + allgather) are the
    # textbook replacements a later library generation would ship.
    gather_algo: str = "ring"        # ring | doubling
    allreduce_algo: str = "tree"     # tree | halving
    # Hierarchical (MagPIe-style two-level) collectives on multi-node
    # machines: ``auto`` decomposes every collective into an intra-node
    # stage plus an inter-node stage over one representative per node;
    # ``flat`` models a topology-oblivious library where every tree/ring
    # hop may cross the network (the autotuner's on/off axis).
    collective_hierarchy: str = "auto"  # auto | flat

    def __post_init__(self) -> None:
        if self.gather_algo not in ("ring", "doubling"):
            raise ValueError(f"gather_algo must be 'ring' or 'doubling' "
                             f"(got {self.gather_algo!r})")
        if self.allreduce_algo not in ("tree", "halving"):
            raise ValueError(f"allreduce_algo must be 'tree' or 'halving' "
                             f"(got {self.allreduce_algo!r})")
        if self.collective_hierarchy not in ("auto", "flat"):
            raise ValueError(f"collective_hierarchy must be 'auto' or "
                             f"'flat' (got {self.collective_hierarchy!r})")
        if self.max_cpus < 1:
            raise ValueError(f"max_cpus must be >= 1 "
                             f"(got {self.max_cpus!r})")
        if self.cpus_per_node < 0:
            raise ValueError(f"cpus_per_node must be >= 0 "
                             f"(got {self.cpus_per_node!r})")
        if self.bus_contention < 0:
            raise ValueError(f"bus_contention must be >= 0 "
                             f"(got {self.bus_contention!r})")
        if self.memory_per_cpu <= 0:
            raise ValueError(f"memory_per_cpu must be > 0 "
                             f"(got {self.memory_per_cpu!r})")

    # -- topology ------------------------------------------------------- #

    def node_of(self, rank: int) -> int:
        if self.cpus_per_node <= 0:
            return 0
        return rank // self.cpus_per_node

    def link_between(self, a: int, b: int) -> Link:
        if self.inter_link is not None and self.node_of(a) != self.node_of(b):
            return self.inter_link
        return self.intra_link

    def spans_nodes(self, nprocs: int) -> bool:
        return (self.inter_link is not None and self.cpus_per_node > 0
                and nprocs > self.cpus_per_node)

    # -- compute -------------------------------------------------------- #

    def memory_scale(self, active_cpus: int) -> float:
        """Slowdown of memory-bound work when ``active_cpus`` share a bus."""
        if self.bus_contention <= 0.0 or self.cpus_per_node <= 0:
            sharing = active_cpus if self.inter_link is None else 1
        else:
            sharing = min(active_cpus, self.cpus_per_node)
        if self.inter_link is None and self.cpus_per_node <= 0:
            sharing = active_cpus
        return 1.0 + self.bus_contention * max(sharing - 1, 0)

    def compute_time(self, flops: int = 0, elems: int = 0, mem: int = 0,
                     active_cpus: int = 1) -> float:
        """Seconds of local work on one rank: the scalar reference.
        ``Comm.charge`` evaluates these terms inline, in this order, and
        :meth:`compute_time_vec` (what ``FusedComm.charge`` prices
        through) is pinned to it element for element by the tests."""
        scale = self.memory_scale(active_cpus)
        return (flops * self.cpu.flop_time
                + elems * self.cpu.elem_time * scale
                + mem * self.cpu.mem_time * scale)

    def compute_time_vec(self, flops=0, elems=0, mem=0,
                         active_cpus: int = 1):
        """Rank-indexed :meth:`compute_time`: each count is a per-rank
        sequence, or one ``int`` every rank does (kept a Python number),
        and the result the per-rank costs (one cost, when every count is
        an ``int``).  Term order and association match the scalar
        formula exactly, so each element is *bit-identical* to the
        scalar call — the contract the vectorized fused accounting
        relies on."""
        scale = self.memory_scale(active_cpus)
        f = flops if type(flops) is int else np.asarray(flops, np.float64)
        e = elems if type(elems) is int else np.asarray(elems, np.float64)
        m = mem if type(mem) is int else np.asarray(mem, np.float64)
        return (f * self.cpu.flop_time
                + e * self.cpu.elem_time * scale
                + m * self.cpu.mem_time * scale)

    # -- communication -------------------------------------------------- #

    def p2p_time(self, src: int, dst: int, nbytes: int,
                 concurrent_inter: int = 1) -> float:
        link = self.link_between(src, dst)
        bandwidth = link.bandwidth
        if (self.shared_medium and self.inter_link is not None
                and link is self.inter_link and concurrent_inter > 1):
            bandwidth = bandwidth / concurrent_inter
        return link.latency + nbytes / bandwidth

    def p2p_time_vec(self, src: np.ndarray, dst: np.ndarray,
                     nbytes: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair ``(latency, p2p_time)`` arrays for simultaneous
        messages ``src[i] -> dst[i]`` of ``nbytes`` each (no shared-medium
        concurrency adjustment — matching ``p2p_time``'s default).  Each
        element is bit-identical to the scalar ``p2p_time`` call."""
        if self.inter_link is None or self.cpus_per_node <= 0:
            lat = np.full(len(src), self.intra_link.latency)
            return lat, lat + nbytes / self.intra_link.bandwidth
        crosses = (src // self.cpus_per_node) != (dst // self.cpus_per_node)
        lat = np.where(crosses, self.inter_link.latency,
                       self.intra_link.latency)
        bandwidth = np.where(crosses, self.inter_link.bandwidth,
                             self.intra_link.bandwidth)
        return lat, lat + nbytes / bandwidth

    def collective_time(self, op: str, nbytes: int, nprocs: int) -> float:
        """Cost of one collective over ``nprocs`` ranks moving ``nbytes``
        per rank (for gather-like ops: per-rank contribution).

        Flat machines use binomial trees (bcast/reduce) and rings
        (gather-family).  Hierarchical machines (the SMP cluster) use
        two-level MagPIe-style collectives: full speed inside each node,
        then one representative per node across the (shared) Ethernet —
        which is exactly why the paper's cluster curves flatten past the
        four CPUs of a single SMP instead of collapsing.
        """
        if nprocs <= 1:
            return 0.0
        if not self.spans_nodes(nprocs):
            return self._flat_collective(op, nbytes,
                                         nprocs, self.intra_link, 1.0)
        assert self.inter_link is not None and self.cpus_per_node > 0
        nodes = math.ceil(nprocs / self.cpus_per_node)
        if self.collective_hierarchy == "flat":
            # topology-oblivious library: every tree/ring hop is priced
            # as if it crossed the network, and a shared medium sees all
            # concurrently communicating node pairs at once
            contention = float(max(nodes - 1, 1)) if self.shared_medium \
                else 1.0
            return self._flat_collective(op, nbytes, nprocs,
                                         self.inter_link, contention)
        per_node = min(self.cpus_per_node, nprocs)
        # shared medium: concurrent inter-node transfers in one tree/ring
        # stage serialize on the single wire
        contention = float(max(nodes - 1, 1)) if self.shared_medium else 1.0
        intra = self._flat_collective(op, nbytes, per_node, self.intra_link,
                                      1.0)
        # One representative per node goes across the wire.  Gather-family
        # ops carry the node's aggregated contribution; bcast/reduce move
        # the same payload at every level.
        aggregated = op in ("gather", "scatter", "allgather", "alltoall")
        inter_bytes = nbytes * per_node if aggregated else nbytes
        inter = self._flat_collective(op, inter_bytes, nodes,
                                      self.inter_link, contention)
        return intra + inter

    def _flat_collective(self, op: str, nbytes: int, nprocs: int,
                         link: Link, contention: float) -> float:
        if nprocs <= 1:
            return 0.0
        bandwidth = link.bandwidth / contention
        stages = math.ceil(math.log2(nprocs))
        per_msg = link.latency + nbytes / bandwidth
        if op in ("bcast", "reduce"):
            return stages * per_msg
        if op == "allreduce":
            if nbytes <= 0:
                return stages * link.latency
            if self.allreduce_algo == "halving":
                # Rabenseifner: reduce-scatter + allgather, each log2(P)
                # stages, moving ~2*(P-1)/P of the payload in total
                return 2 * (stages * link.latency
                            + (nprocs - 1) * nbytes / (nprocs * bandwidth))
            return 2 * stages * per_msg
        if op == "barrier":
            return 2 * stages * link.latency
        if op in ("gather", "scatter", "allgather", "alltoall"):
            if self.gather_algo == "doubling" and op != "alltoall":
                # recursive doubling: log2(P) rounds of exponentially
                # growing payloads — same (P-1)*nbytes wire volume, only
                # log2(P) latency terms (alltoall is personalized and
                # keeps the ring schedule)
                return stages * link.latency + (nprocs - 1) * nbytes / bandwidth
            # ring / sequential-root algorithms: (P-1) messages of the
            # per-rank contribution
            return (nprocs - 1) * per_msg
        raise ValueError(f"unknown collective {op!r}")


# --------------------------------------------------------------------------
# the three machines
# --------------------------------------------------------------------------

# Reference CPU (the paper's sequential baseline is "a single UltraSPARC
# CPU"): ~65 Mflop/s compiled dense kernels, ~30 M elements/s streaming.
_ULTRASPARC = CpuModel(
    flop_time=1.0 / 65e6,
    elem_time=1.0 / 30e6,
    mem_time=1.0 / 55e6,
    call_overhead=4.0e-6,
)

MEIKO_CS2 = MachineModel(
    name="Meiko CS-2",
    max_cpus=16,
    cpu=_ULTRASPARC,
    # Elan/Elite fat-tree: low latency, high bandwidth, full bisection —
    # "the best balance between processor speed, message latency, and
    # aggregate message-passing bandwidth" (paper, Section 6).
    intra_link=Link(latency=8.0e-5, bandwidth=5.0e7),
    memory_per_cpu=64 * 1024 * 1024,   # 64 MB per CS-2 node
)

SUN_ENTERPRISE = MachineModel(
    name="Sun Enterprise 4000",
    max_cpus=8,
    cpu=replace(_ULTRASPARC, flop_time=1.0 / 70e6),
    # Message passing through shared memory: microsecond latency, memcpy
    # bandwidth — but every CPU shares one Gigaplane memory bus.
    intra_link=Link(latency=2.5e-6, bandwidth=1.5e8),
    cpus_per_node=0,
    bus_contention=0.13,
    memory_per_cpu=128 * 1024 * 1024,  # 1 GB Gigaplane / 8 CPUs
)

SPARC20_CLUSTER = MachineModel(
    name="SPARCserver-20 cluster",
    max_cpus=16,
    cpu=replace(_ULTRASPARC, flop_time=1.0 / 40e6, elem_time=1.0 / 22e6),
    # four 4-CPU SMP nodes; 10 Mb/s shared Ethernet between nodes
    intra_link=Link(latency=4.0e-6, bandwidth=1.0e8),
    inter_link=Link(latency=9.0e-4, bandwidth=1.05e6),
    cpus_per_node=4,
    bus_contention=0.05,
    shared_medium=True,
    memory_per_cpu=32 * 1024 * 1024,   # 128 MB SPARCserver-20 / 4 CPUs
)

#: a well-equipped 1997 scientist's workstation (the paper's comparison
#: point for the memory argument)
WORKSTATION_MEMORY = 128 * 1024 * 1024


# --------------------------------------------------------------------------
# modern machines (the P=1024 scaling vehicles; see docs/SCALING.md)
# --------------------------------------------------------------------------

# A current server core: ~5 Gflop/s scalar dense kernels per core,
# DDR-bound streaming, sub-microsecond library call overhead.
_MODERN_CORE = CpuModel(
    flop_time=1.0 / 5e9,
    elem_time=1.0 / 2e9,
    mem_time=1.0 / 4e9,
    call_overhead=1.0e-7,
)

FATTREE_CLUSTER = MachineModel(
    name="Fat-tree cluster",
    max_cpus=2048,
    cpu=_MODERN_CORE,
    # shared memory within a 32-core node; full-bisection HDR-class
    # fabric between the 64 nodes (no shared medium: a fat tree keeps
    # concurrent node pairs from serializing, unlike 1997's Ethernet)
    intra_link=Link(latency=3.0e-7, bandwidth=8.0e9),
    inter_link=Link(latency=1.5e-6, bandwidth=1.2e10),
    cpus_per_node=32,
    bus_contention=0.02,
    memory_per_cpu=4 * 1024 * 1024 * 1024,
)

# GPU-era flop rates: each "rank" models one accelerator — hundreds of
# Gflop/s sustained on dense kernels, kernel-launch-scale call overhead,
# NVLink-class links inside a node and a 200 Gb/s NIC between nodes.
_GPU = CpuModel(
    flop_time=1.0 / 5e11,
    elem_time=1.0 / 1e11,
    mem_time=1.0 / 2e11,
    call_overhead=3.0e-6,
)

GPU_CLUSTER = MachineModel(
    name="GPU cluster",
    max_cpus=1024,
    cpu=_GPU,
    intra_link=Link(latency=5.0e-6, bandwidth=2.0e11),
    inter_link=Link(latency=5.0e-6, bandwidth=2.5e10),
    cpus_per_node=8,
    memory_per_cpu=32 * 1024 * 1024 * 1024,
)

MACHINES: dict[str, MachineModel] = {
    "meiko": MEIKO_CS2,
    "enterprise": SUN_ENTERPRISE,
    "cluster": SPARC20_CLUSTER,
    "fattree": FATTREE_CLUSTER,
    "gpu": GPU_CLUSTER,
}


def get_machine(name: str) -> MachineModel:
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        ) from None
