"""Simulated MPI substrate: communicator, machine models, SPMD executor.

Real data exchange, virtual time — see :mod:`repro.mpi.comm` for the
design.  The communicator speaks what the generated code and the
run-time library need: exact-match ``send``/``recv``, ``sendrecv`` and
six collectives.
"""

from .comm import (
    Comm,
    LAND,
    LOR,
    MAX,
    MIN,
    PROD,
    SUM,
    World,
)
from .datatypes import sizeof
from ..errors import (
    FusionDivergence,
    MpiCorruptionError,
    MpiError,
    MpiRetryExhaustedError,
    MpiTimeoutError,
    RankCrashedError,
    SpmdWatchdogError,
)
from ..runconfig import BACKENDS, ON_FAULT_POLICIES
from .executor import SpmdResult, run_spmd
from .faults import FaultPlan, FaultRule, load_plan
from .fused import FusedComm
from .recovery import RecoveryReport
from .machine import (
    CpuModel,
    FATTREE_CLUSTER,
    GPU_CLUSTER,
    Link,
    MACHINES,
    MEIKO_CS2,
    MachineModel,
    SPARC20_CLUSTER,
    SUN_ENTERPRISE,
    get_machine,
)
from .scheduler import DeadlockError, LockstepScheduler

__all__ = [
    "Comm", "World",
    "SUM", "PROD", "MAX", "MIN", "LAND", "LOR", "sizeof",
    "SpmdResult", "run_spmd", "BACKENDS",
    "LockstepScheduler", "DeadlockError", "MpiError",
    "FusedComm", "FusionDivergence",
    "FaultPlan", "FaultRule", "load_plan",
    "MpiTimeoutError", "SpmdWatchdogError", "MpiCorruptionError",
    "RankCrashedError", "MpiRetryExhaustedError",
    "RecoveryReport",
    "ON_FAULT_POLICIES",
    "CpuModel", "Link", "MachineModel", "MACHINES",
    "MEIKO_CS2", "SUN_ENTERPRISE", "SPARC20_CLUSTER",
    "FATTREE_CLUSTER", "GPU_CLUSTER", "get_machine",
]

from .machine import WORKSTATION_MEMORY  # noqa: E402

__all__.append("WORKSTATION_MEMORY")
