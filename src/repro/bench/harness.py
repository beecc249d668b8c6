"""Measurement harness: one entry point per quantity the paper reports.

All times are *modeled* seconds on the selected
:class:`~repro.mpi.machine.MachineModel` (see DESIGN.md for why); results
are always cross-checked against the reference interpreter so a
performance number is never reported for a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..analysis.resolve import resolve_program
from ..baselines.matcom import DEFAULT_MATCOM, MatcomModel, run_matcom
from ..compiler import CompiledProgram, OtterCompiler
from ..frontend.parser import parse_script
from ..interp.costmodel import CostMeter
from ..interp.interpreter import Interpreter
from ..mpi.machine import MEIKO_CS2, MachineModel
from ..tuning.plan import DEFAULT_PLAN, Plan
from .workloads import Workload


@dataclass
class SingleCpuResult:
    """Figure 2 row: modeled single-CPU times of the three systems."""

    workload: str
    interp_time: float
    matcom_time: float
    otter_time: float
    output: str

    @property
    def relative(self) -> dict[str, float]:
        """Performance relative to the interpreter (interpreter = 1.0)."""
        return {
            "interpreter": 1.0,
            "matcom": self.interp_time / self.matcom_time,
            "otter": self.interp_time / self.otter_time,
        }


@dataclass
class SpeedupCurve:
    """One line of Figures 3-6: speedup over the interpreter vs CPUs."""

    workload: str
    machine: str
    nprocs: list[int] = field(default_factory=list)
    speedups: list[float] = field(default_factory=list)
    interp_time: float = 0.0
    compiled_times: list[float] = field(default_factory=list)

    def at(self, p: int) -> float:
        return self.speedups[self.nprocs.index(p)]


class BenchHarness:
    """Compiles each workload once and measures all three systems."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._compiled: dict[str, CompiledProgram] = {}
        self._resolved: dict[str, object] = {}
        self._interp_out: dict[tuple, str] = {}

    # ------------------------------------------------------------------ #

    @staticmethod
    def _plan(peephole: bool, licm: bool, scheme: str = "block") -> Plan:
        """The figures' ablation switches, as the plan they spell."""
        return Plan(fusion=DEFAULT_PLAN.fusion if peephole else (),
                    licm="aggressive" if licm else "off", scheme=scheme)

    def compiled(self, workload: Workload, peephole: bool = True,
                 licm: bool = True) -> CompiledProgram:
        key = f"{workload.key}:{hash(workload.source)}:{peephole}:{licm}"
        if key not in self._compiled:
            compiler = OtterCompiler(workload.provider,
                                     self._plan(peephole, licm))
            self._compiled[key] = compiler.compile(workload.source,
                                                   name=workload.key)
        return self._compiled[key]

    def _resolve(self, workload: Workload):
        key = f"{workload.key}:{hash(workload.source)}"
        if key not in self._resolved:
            self._resolved[key] = resolve_program(
                parse_script(workload.source, workload.key),
                workload.provider)
        return self._resolved[key]

    # ------------------------------------------------------------------ #
    # the three systems
    # ------------------------------------------------------------------ #

    def interpreter_time(self, workload: Workload,
                         machine: MachineModel = MEIKO_CS2) -> float:
        """Modeled MathWorks-interpreter time on one CPU of ``machine``."""
        meter = CostMeter(machine.cpu.interpreter_params())
        interp = Interpreter(self._resolve(workload), meter=meter,
                             seed=self.seed)
        interp.run()
        self._interp_out[self._wkey(workload)] = "".join(interp.output)
        return meter.time

    def matcom_time(self, workload: Workload,
                    machine: MachineModel = MEIKO_CS2,
                    model: MatcomModel = DEFAULT_MATCOM) -> float:
        interp, elapsed = run_matcom(self._resolve(workload), machine,
                                     model, seed=self.seed)
        self._check_output(workload, "".join(interp.output))
        return elapsed

    def otter_time(self, workload: Workload, nprocs: int = 1,
                   machine: MachineModel = MEIKO_CS2,
                   peephole: bool = True, scheme: str = "block",
                   licm: bool = True) -> float:
        program = self.compiled(workload, peephole=peephole, licm=licm)
        result = program.run(nprocs, machine, self.seed,
                             plan=self._plan(peephole, licm, scheme))
        self._check_output(workload, result.output)
        return result.elapsed

    @staticmethod
    def _wkey(workload: Workload) -> tuple:
        return (workload.key, hash(workload.source))

    def _check_output(self, workload: Workload, output: str) -> None:
        """Numerical cross-check against the interpreter's printout."""
        expected = self._interp_out.get(self._wkey(workload))
        if expected is None:
            return
        got = _printed_numbers(output)
        want = _printed_numbers(expected)
        if len(got) != len(want) or not np.allclose(got, want, rtol=1e-5,
                                                    atol=1e-8):
            raise AssertionError(
                f"{workload.key}: compiled output diverged from the "
                f"interpreter oracle:\n  oracle:   {expected!r}"
                f"\n  compiled: {output!r}")

    # ------------------------------------------------------------------ #
    # paper quantities
    # ------------------------------------------------------------------ #

    def single_cpu(self, workload: Workload,
                   machine: MachineModel = MEIKO_CS2) -> SingleCpuResult:
        """Figure 2: interpreter vs MATCOM vs Otter, one CPU."""
        t_interp = self.interpreter_time(workload, machine)
        t_matcom = self.matcom_time(workload, machine)
        t_otter = self.otter_time(workload, nprocs=1, machine=machine)
        return SingleCpuResult(
            workload=workload.key,
            interp_time=t_interp,
            matcom_time=t_matcom,
            otter_time=t_otter,
            output=self._interp_out.get(self._wkey(workload), ""),
        )

    def speedup_curve(self, workload: Workload, machine: MachineModel,
                      nprocs: Optional[list[int]] = None,
                      peephole: bool = True,
                      scheme: str = "block") -> SpeedupCurve:
        """Figures 3-6: speedup over the interpreter on one CPU."""
        if nprocs is None:
            nprocs = [p for p in (1, 2, 4, 8, 16) if p <= machine.max_cpus]
        t_interp = self.interpreter_time(workload, machine)
        curve = SpeedupCurve(workload=workload.key, machine=machine.name,
                             interp_time=t_interp)
        for p in nprocs:
            t = self.otter_time(workload, nprocs=p, machine=machine,
                                peephole=peephole, scheme=scheme)
            curve.nprocs.append(p)
            curve.compiled_times.append(t)
            curve.speedups.append(t_interp / t)
        return curve


def _printed_numbers(text: str) -> list[float]:
    import re

    out = []
    for token in re.findall(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?", text):
        try:
            out.append(float(token))
        except ValueError:  # pragma: no cover
            pass
    return out
