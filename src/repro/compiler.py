"""The Otter compiler driver — all seven passes.

1. scan/parse (``repro.frontend``)
2. identifier resolution (``repro.analysis.resolve``)
3. type/rank/shape inference on SSA form (``repro.analysis.infer``)
4. expression rewriting to statement-level IR (``repro.ir.lower``)
5. guarding of scalar element stores (``repro.ir.guard``)
6. peephole optimization of run-time-call sequences (``repro.ir.peephole``;
   its ``ew_group`` rewrite runs after the loop-invariant code motion of
   ``repro.ir.licm``)
7. code emission — SPMD Python (executable, :mod:`repro.codegen.py_emitter`)
   and SPMD C with ML_* run-time calls (:mod:`repro.codegen.c_emitter`)

Typical use::

    from repro import OtterCompiler
    from repro.mpi import MEIKO_CS2

    program = OtterCompiler().compile("x = ones(4, 4) * 3; disp(sum(x));")
    result = program.run(nprocs=8, machine=MEIKO_CS2)
    print(result.output, result.elapsed)
"""

from __future__ import annotations

import time
import types as _types
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .analysis.infer import ProgramTypes, infer_types
from .analysis.resolve import ResolvedProgram, resolve_program
from .codegen.py_emitter import builtin_binding
from .errors import NESTED_TOO_DEEPLY, CodegenError
from .frontend.mfile import EMPTY_PROVIDER, MFileProvider
from .frontend.lexer import tokenize
from .frontend.parser import parse_script
from .ir.guard import guard_program
from .ir.lower import lower_program
from .ir.nodes import IRProgram
from .ir.licm import LicmStats, licm_program
from .ir.peephole import PeepholeStats, peephole_program
from .ir.pretty import pretty_ir
from .mpi.executor import SpmdResult, backend_for, run_spmd
from .mpi.machine import MEIKO_CS2, MachineModel
from .runconfig import RunConfig, resolve
from .runtime.context import RuntimeContext, replicate_workspace


#: an emitted module's lines that bind the builtins which read the
#: rank's own clock (``tic``, ``toc``)
_CLOCK_BINDINGS = tuple(f"\n{builtin_binding(name)}\n"
                        for name in ("tic", "toc"))


@dataclass
class RunResult:
    """Outcome of executing a compiled program."""

    workspace: dict[str, Any]
    output: str
    elapsed: float                # virtual seconds (slowest rank)
    spmd: SpmdResult
    #: per-rank high-water mark of local distributed-data bytes
    peak_local_bytes: list[int] = field(default_factory=list)
    #: the plan-search report when the run was autotuned (``tune=True``)
    tune: Optional[Any] = None
    #: native-kernel-tier activity during this run (counter deltas from
    #: repro.native.NativeStats plus the resolved mode and the engine's
    #: ``isa``: the build its kernels ran as), or ``None`` when the tier
    #: was off/unavailable
    native: Optional[dict] = None

    @property
    def trace(self):
        """The :class:`~repro.trace.WorldTrace` of the run (or ``None``)."""
        return self.spmd.trace

    @property
    def recovery(self):
        """The :class:`~repro.mpi.RecoveryReport` of the run (or
        ``None`` when no non-abort ``on_fault`` policy was active)."""
        return self.spmd.recovery

    @property
    def nprocs(self) -> int:
        return self.spmd.nprocs


@dataclass
class CompiledProgram:
    """A fully compiled MATLAB program.

    A fresh compile carries its pass-1..6 artifacts (``resolved``,
    ``types``, ``ir``).  A program the compile cache holds, on either
    tier, carries ``None`` in all three: running it reads only the
    emitted Python, and :meth:`front_end` recompiles them for the rare
    reader.
    """

    name: str
    #: pass-1..6 artifacts; ``None`` on a cached program
    resolved: Optional[ResolvedProgram]
    types: Optional[ProgramTypes]
    ir: Optional[IRProgram]
    python_source: str
    peephole_stats: PeepholeStats
    licm_stats: LicmStats
    provider: MFileProvider
    #: host seconds spent in each compiler pass: [(name, seconds), ...]
    pass_timings: list[tuple[str, float]] = field(default_factory=list)
    #: the optimization plan the program was compiled under (None: the
    #: compiler defaults, which equal repro.tuning.DEFAULT_PLAN)
    plan: Optional[Any] = None
    #: original MATLAB source (the autotuner recompiles variants of it)
    source: str = ""
    _module: Optional[_types.ModuleType] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #

    def front_end(self) -> "CompiledProgram":
        """This program when it carries its pass-1..6 artifacts, else a
        throwaway recompile of its source that does.  Nothing is stored
        back, so a cached program stays slim: ``c_source``, ``ir_dump``
        and ``matlab_source``, the rare readers of the front end, pay
        the passes on every call there."""
        if self.ir is not None:
            return self
        return compile_source(self.source, self.provider, name=self.name,
                              plan=self.plan)

    @property
    def c_source(self) -> str:
        """SPMD C with run-time library calls (textual backend)."""
        from .codegen.c_emitter import emit_c

        return emit_c(self.front_end().ir)

    @property
    def matlab_source(self) -> str:
        """Normalized echo of the parsed script (the ``--emit matlab``
        output: pass-2 AST unparsed back to canonical MATLAB)."""
        from .frontend.unparse import unparse_script

        return unparse_script(self.front_end().resolved.script.node)

    def ir_dump(self) -> str:
        return pretty_ir(self.front_end().ir)

    @property
    def reads_clock(self) -> bool:
        """Does the program, or an M-file function it calls, call
        ``tic`` or ``toc``?  Read off the emitted module's builtin
        bindings, so a cached program of either tier answers it."""
        tic, toc = _CLOCK_BINDINGS
        source = self.python_source
        return tic in source or toc in source

    def rewrite_summary(self) -> str:
        """What passes 6 and 6b did to the program, for the CLI reports:
        ``"1 transpose_matmul, 1 cse; 6b hoisted 2"``."""
        return (f"{self.peephole_stats.summary()}; "
                f"6b hoisted {self.licm_stats.hoisted}")

    # ------------------------------------------------------------------ #

    def _load_module(self) -> _types.ModuleType:
        if self._module is None:
            module = _types.ModuleType(f"otter_generated_{self.name}")
            try:
                code = compile(self.python_source,
                               f"<otter:{self.name}>", "exec")
            except (SyntaxError, RecursionError, MemoryError) as exc:
                # the emitter writes valid Python; what CPython refuses
                # is its depth (100 indentation levels, 20 nested loops,
                # its own parser and compiler stacks)
                raise CodegenError(f"{NESTED_TOO_DEEPLY} for the Python "
                                   f"backend ({exc})") from None
            exec(code, module.__dict__)
            self._module = module
        return self._module

    def run(self, nprocs: int = 1, machine: MachineModel | None = None,
            seed: int = 0, *, plan=None,
            config: RunConfig | None = None, **knobs) -> RunResult:
        """Execute on ``nprocs`` simulated ranks of ``machine``.

        *How* is a :class:`~repro.runconfig.RunConfig`: pass a resolved
        ``config`` (used as is) or run-knob keywords — ``backend=``,
        ``native=``, ``trace=``, ``fault_plan=``, ``watchdog=``,
        ``on_fault=``, ``tune=``, ...; docs/CONFIGURATION.md — which are
        resolved here, once, against the environment.

        ``plan`` applies a :class:`repro.tuning.Plan`'s *runtime* knobs
        (distribution, collective algorithms and their topology) — the
        compile-side knobs must have been applied at ``compile`` time
        (see :func:`compile_cached`).  With ``tune`` on, the plan space
        is searched first and the winner runs here instead.
        """
        from .native import resolve_native

        if config is None:
            config = resolve(**knobs)
        elif knobs:
            raise TypeError("pass run knobs or a resolved config, not both")
        if config.tune:
            from .tuning import tune_program

            tuned = tune_program(self.source or "", nprocs=nprocs,
                                 machine=machine, budget=config.tune_budget,
                                 provider=self.provider, seed=seed,
                                 name=self.name, front_end=self)
            result = tuned.best_program.run(
                nprocs, machine, seed, plan=tuned.best.plan,
                config=config._replace(tune=False))
            result.tune = tuned
            return result

        plan = plan if plan is not None else self.plan
        scheme, dist_plan = "block", None
        if plan is not None:
            machine = plan.apply_machine(machine or MEIKO_CS2)
            scheme, dist_plan = plan.scheme, dict(plan.dist)

        machine = machine or MEIKO_CS2
        backend = backend_for(config, self.reads_clock)
        if backend != config.backend:
            config = config._replace(backend=backend)
        main = self._load_module().main
        output: list[str] = []
        provider = self.provider
        engine = resolve_native(config.native)
        stats_before = engine.stats.snapshot() if engine is not None else None

        peaks: dict[int, int] = {}

        def rank_main(comm):
            rt = RuntimeContext(comm, out=output.append, seed=seed,
                                scheme=scheme, provider=provider,
                                dist_plan=dist_plan, native=engine)
            try:
                # what elementwise arithmetic makes of a zero divisor or
                # an invalid operand is MATLAB's value, not a warning:
                # one errstate for the rank's whole program (numpy keeps
                # it per thread, so each rank enters its own)
                with np.errstate(divide="ignore", invalid="ignore"):
                    workspace = main(rt)
                peaks[rt.rank] = rt.peak_local_bytes
                return workspace
            finally:
                # crucial for the nprocs==1 / fused inline paths, which
                # run on the caller's thread: don't leak the tracker
                rt.close()

        def discard_partial_run():
            # a failed attempt may have produced output/peaks already;
            # a recovery restart must start from a clean slate
            output.clear()
            peaks.clear()

        spmd = run_spmd(nprocs, machine, rank_main, config=config,
                        on_fused_fallback=discard_partial_run)
        if spmd.backend == "fused":
            # one pass stood in for all ranks: its (rank-0-modeled) peak
            # applies to every rank's local share estimate
            peak_local_bytes = [peaks.get(0, 0)] * nprocs
        else:
            peak_local_bytes = [peaks.get(r, 0) for r in range(nprocs)]
        workspace = replicate_workspace(spmd.results,
                                        spmd.backend == "fused")
        # the raw descriptors end here: every finished rank's result is
        # the one replicated workspace
        spmd.results = [workspace if raw is not None else None
                        for raw in spmd.results]
        workspace = workspace or {}
        native_report = None
        if engine is not None:
            after = engine.stats.snapshot()
            native_report = {k: after[k] - stats_before[k] for k in after}
            native_report["mode"] = config.native
            native_report["isa"] = engine.isa
        return RunResult(workspace=workspace, output="".join(output),
                         elapsed=spmd.elapsed, spmd=spmd,
                         peak_local_bytes=peak_local_bytes,
                         native=native_report)


def parse_timed(source: str, name: str = "script") -> tuple:
    """Pass 1 with its host seconds and the tokens it parsed:
    ``(Script, seconds, tokens)``."""
    t0 = time.perf_counter()
    tokens = tokenize(source, name)
    script = parse_script(source, name, tokens)
    return script, time.perf_counter() - t0, tokens


class OtterCompiler:
    """Front door: compile MATLAB source through all seven passes.

    ``plan`` (a :class:`repro.tuning.Plan`) selects the compile-side
    knobs: the peephole fusion schedule and the LICM policy.  ``None`` is
    :data:`repro.tuning.DEFAULT_PLAN`.
    """

    def __init__(self, provider: MFileProvider | None = None, plan=None):
        self.provider = provider or EMPTY_PROVIDER
        self.plan = plan

    def compile(self, source: str, name: str = "script",
                parsed: Optional[tuple] = None) -> CompiledProgram:
        """``parsed`` is :func:`parse_timed`'s result for this very
        ``source`` and ``name`` when the caller already paid for pass 1
        (the compile cache keys a program by the tokens it parsed)."""
        from .tuning.plan import DEFAULT_PLAN    # imports this module

        script, parse_seconds, _tokens = \
            parsed or parse_timed(source, name)                   # pass 1
        timings: list[tuple[str, float]] = [("parse", parse_seconds)]
        plan = self.plan if self.plan is not None else DEFAULT_PLAN

        def timed(pass_name, fn, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            timings.append((pass_name, time.perf_counter() - t0))
            return result

        resolved = timed("resolve", resolve_program,              # pass 2
                         script, self.provider)
        types = timed("infer", infer_types, resolved)             # pass 3
        ir = timed("lower", lower_program, resolved, types)       # pass 4
        timed("guard", guard_program, ir)                         # pass 5
        stats = timed("peephole", peephole_program,               # pass 6
                      ir, schedule=plan.fusion)
        licm_stats = timed("licm", licm_program,                  # pass 6b
                           ir, policy=plan.licm)
        timed("group", peephole_program, ir, schedule=plan.fusion, # 6c
              after_licm=True, stats=stats)
        from .codegen.py_emitter import emit_python               # pass 7

        py_source = timed("emit", emit_python, ir)
        return CompiledProgram(
            name=name,
            resolved=resolved,
            types=types,
            ir=ir,
            python_source=py_source,
            peephole_stats=stats,
            licm_stats=licm_stats,
            provider=self.provider,
            pass_timings=timings,
            plan=self.plan,
            source=source,
        )


def compile_source(source: str, provider: MFileProvider | None = None,
                   name: str = "script", plan=None) -> CompiledProgram:
    """Convenience one-shot compile."""
    return OtterCompiler(provider, plan).compile(source, name)


def compile_cached(source: str, provider: MFileProvider | None = None,
                   name: str = "script", plan=None) -> CompiledProgram:
    """:func:`compile_source` through the process-wide content-addressed
    :class:`repro.service.cache.CompileCache`: the same CompiledProgram
    object back for the same (source tokens and their lines, name,
    provider, compile-side plan knobs), so the autotuner's candidate sweep pays
    the passes once per distinct lowering, not once per candidate.

    The program back is the cache's slim one: it carries no pass-1..6
    artifacts (``ir`` is ``None``), so its ``c_source``, ``ir_dump`` and
    ``matlab_source`` recompile the front end, and keep nothing of it.

    Safe to share: a CompiledProgram is immutable after compilation and
    ``run`` keeps no per-run state on it.  Run-time plan knobs
    (distribution, collective algorithms) never key the cache and the
    returned program does not carry them — pass the full plan to
    :meth:`CompiledProgram.run`.
    """
    from .service.cache import get_compile_cache

    return get_compile_cache().get_or_compile(
        source, provider=provider, name=name, plan=plan).program


def compile_cache_stats() -> dict:
    from .service.cache import get_compile_cache

    return get_compile_cache().stats()


def clear_compile_cache() -> None:
    from .service.cache import get_compile_cache

    get_compile_cache().clear()
