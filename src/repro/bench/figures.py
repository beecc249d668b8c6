"""Regeneration of every table and figure in the paper.

* :func:`table1` — the survey of parallel-MATLAB systems (static data).
* :func:`figure2` — single-CPU relative performance of the MathWorks
  interpreter, MATCOM, and Otter on the four benchmarks.
* :func:`figure3` .. :func:`figure6` — speedup of the compiled script over
  the interpreter on the three modeled architectures.

Each function returns plain data (and has an ASCII renderer in
:mod:`repro.bench.report`) so benchmarks can assert the paper's *shape*
claims programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mpi.machine import MEIKO_CS2, SPARC20_CLUSTER, SUN_ENTERPRISE
from .harness import BenchHarness, SingleCpuResult, SpeedupCurve
from .workloads import ALL_KEYS, make_workload

MACHINE_ORDER = (MEIKO_CS2, SUN_ENTERPRISE, SPARC20_CLUSTER)


# --------------------------------------------------------------------------
# Table 1
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemRow:
    name: str
    site: str
    implementation: str
    pure_matlab_parallel: bool  # compiles *pure* MATLAB to parallel code


TABLE1: tuple[SystemRow, ...] = (
    SystemRow("MATLAB Toolbox", "University of Rostock, Germany",
              "Interpreter", False),
    SystemRow("MultiMATLAB", "Cornell University", "Interpreter", False),
    SystemRow("Parallel Toolbox", "Wake Forest University",
              "Interpreter", False),
    SystemRow("Paramat", "Alpha Data Parallel Systems, UK",
              "Interpreter", False),
    SystemRow("CONLAB", "University of Umea, Sweden",
              "Compiles to C/PICL", False),
    SystemRow("FALCON", "University of Illinois",
              "Compiles to Fortran 90", True),
    SystemRow("RTExpress", "Integrated Sensors",
              "Compiles to C/MPI", False),
    SystemRow("Otter", "Oregon State University",
              "Compiles to C/MPI", True),
)


def table1() -> tuple[SystemRow, ...]:
    """Table 1: MATLAB systems targeting parallel computers.  Only FALCON
    and Otter generate parallel code from pure MATLAB."""
    return TABLE1


# --------------------------------------------------------------------------
# Figure 2
# --------------------------------------------------------------------------


@dataclass
class Figure2:
    scale: str
    results: dict[str, SingleCpuResult] = field(default_factory=dict)

    def relative(self) -> dict[str, dict[str, float]]:
        return {key: res.relative for key, res in self.results.items()}

    def otter_beats_interpreter_everywhere(self) -> bool:
        return all(res.relative["otter"] > 1.0
                   for res in self.results.values())

    def split_vs_matcom(self) -> tuple[int, int]:
        """(otter wins, matcom wins) — the paper reports 2-2."""
        otter = sum(1 for r in self.results.values()
                    if r.relative["otter"] > r.relative["matcom"])
        return otter, len(self.results) - otter


def figure2(scale: str = "paper",
            harness: BenchHarness | None = None) -> Figure2:
    harness = harness or BenchHarness()
    fig = Figure2(scale=scale)
    for key in ALL_KEYS:
        fig.results[key] = harness.single_cpu(make_workload(key, scale))
    return fig


# --------------------------------------------------------------------------
# Figures 3-6
# --------------------------------------------------------------------------


@dataclass
class SpeedupFigure:
    number: int
    workload: str
    scale: str
    curves: dict[str, SpeedupCurve] = field(default_factory=dict)

    def curve(self, machine_name: str) -> SpeedupCurve:
        return self.curves[machine_name]


_FIGURES = {
    3: "cg",
    4: "ocean",
    5: "nbody",
    6: "closure",
}


def speedup_figure(number: int, scale: str = "paper",
                   harness: BenchHarness | None = None,
                   nprocs: list[int] | None = None) -> SpeedupFigure:
    """Figures 3 (cg), 4 (ocean), 5 (nbody), 6 (transitive closure)."""
    workload_key = _FIGURES[number]
    harness = harness or BenchHarness()
    workload = make_workload(workload_key, scale)
    fig = SpeedupFigure(number=number, workload=workload_key, scale=scale)
    for machine in MACHINE_ORDER:
        fig.curves[machine.name] = harness.speedup_curve(
            workload, machine, nprocs=nprocs)
    return fig


def figure3(scale: str = "paper", **kw) -> SpeedupFigure:
    return speedup_figure(3, scale, **kw)


def figure4(scale: str = "paper", **kw) -> SpeedupFigure:
    return speedup_figure(4, scale, **kw)


def figure5(scale: str = "paper", **kw) -> SpeedupFigure:
    return speedup_figure(5, scale, **kw)


def figure6(scale: str = "paper", **kw) -> SpeedupFigure:
    return speedup_figure(6, scale, **kw)
