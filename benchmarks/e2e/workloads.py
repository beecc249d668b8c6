"""The four benchmark workloads, their frozen inputs and their oracle.

A workload is a list of *steps* (one per MATLAB program); a step is a
chain of *stages* (calls into one layer each), so the same code runs a
pass untraced (no spans) and traced (one span per stage).  Imported by
the worker only after it has pinned itself: this module imports numpy.
"""

import hashlib
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.resolve import resolve_program
from repro.compiler import compile_cached
from repro.frontend.mfile import DictProvider
from repro.frontend.parser import parse_script
from repro.interp.interpreter import Interpreter
from repro.mpi import MEIKO_CS2
from repro.service.cache import CompileCache

PROGRAM_DIR = Path(__file__).resolve().parent / "programs"

#: heat(n=4000, 50 steps), cg(512, 12), ocean(192x64x3), nbody(1200, 8),
#: closure(160): the paper's four at the repo's small scale plus the
#: stencil whose messaging cost motivated PR 1
SUITE = ("heat", "cg", "ocean", "nbody", "closure")
#: image_filter(n=256, steps=16) and the M-file demo (user functions,
#: interprocedural inference) complete the compile set
ALL_PROGRAMS = SUITE + ("image_filter", "mfile_demo")

_NULL = nullcontext()


@dataclass(frozen=True)
class Spec:
    name: str
    programs: tuple
    nprocs: int
    backend: str
    native: str
    #: measured passes per second of ``--seconds`` (fixed, so a commit
    #: that runs faster does not get more samples for its minimum);
    #: the ISSUE's 450/800/100/900 passes per 30 s
    pass_rate: float
    #: does ``pycalls_per_op`` repeat exactly?  (lockstep starts 16
    #: threads per run; their start order moves the count by < 0.05 %)
    exact_calls: bool = True


SPECS = {spec.name: spec for spec in (
    Spec("compile_cold", ALL_PROGRAMS, 16, "fused", "off", 450 / 30),
    Spec("suite_fused_p16", SUITE, 16, "fused", "auto", 800 / 30),
    Spec("suite_lockstep_p16", SUITE, 16, "lockstep", "off", 100 / 30,
         exact_calls=False),
    Spec("imgfilter_native_p4", ("image_filter",), 4, "fused", "auto",
         900 / 30),
)}


def load_sources(keys, seed):
    """``{key: (source, provider)}`` from the frozen files.

    Every source gets a seed-specific tail: it makes the text (hence
    the cache key) and the modeled clock belong to this seed — a
    1e-6-relative change — without changing the work measured.
    """
    tail = f"zz_{seed} = sum(ones(1, {64 + seed % 61}));\n"
    mfiles = DictProvider({path.stem: path.read_text(encoding="utf-8")
                           for path in sorted(
                               (PROGRAM_DIR / "mfiles").glob("*.m"))})
    return {key: ((PROGRAM_DIR / f"{key}.m").read_text(encoding="utf-8")
                  + tail, mfiles if key == "mfile_demo" else None)
            for key in keys}


def printed_numbers(text):
    return [float(tok) for tok in
            re.findall(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?", text)]


def oracle_output(source, provider, seed):
    """What the reference interpreter prints for ``source``."""
    program = resolve_program(parse_script(source, "oracle"), provider)
    interp = Interpreter(program, seed=seed)
    interp.run()
    return "".join(interp.output)


def accounting(result):
    """Everything the modeled machine charged for one run."""
    spmd = result.spmd
    return (result.elapsed, tuple(spmd.times), spmd.messages_sent,
            spmd.bytes_sent, spmd.collectives,
            tuple(sorted(spmd.collective_counts.items())))


class VerifyError(AssertionError):
    pass


class Workload:
    """One workload instance for one seed."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.sources = load_sources(spec.programs, seed)
        self.cold = spec.name == "compile_cold"
        #: the miss path under test: memory tier only, so a miss pays
        #: key + canonicalise + 8 passes + LRU insert/evict and no disk
        self.cache = CompileCache(disk_root=False) if self.cold else None
        self.reference = {}
        self.last_error = None
        self.steps = [(key, self._stages(key)) for key in spec.programs]

    # ------------------------------------------------------------------ #
    # steps
    # ------------------------------------------------------------------ #

    def _run(self, program, backend=None, native=None):
        spec = self.spec
        return program.run(nprocs=spec.nprocs, machine=MEIKO_CS2,
                           seed=self.seed, backend=backend or spec.backend,
                           native=native or spec.native)

    def _stages(self, key):
        source, provider = self.sources[key]
        if self.cold:
            def miss(i):
                # fixed-width variant: the lexer's work must not depend
                # on how many digits the pass number has
                variant = f"zz_{self.seed}_{i:06d} = {100000 + i};\n"
                return self.cache.get_or_compile(
                    source + variant, name=key, provider=provider)
            return (("cache.get_or_compile", miss),)
        return (("cache.lookup",
                 lambda _i: compile_cached(source, provider, name=key)),
                ("program.run", self._run))

    def signature(self, got):
        """What must equal the verified reference on every pass."""
        if self.cold:
            text = re.sub(r"zz_\d+_\d{6}( = \d+\.0)?", "zz",
                          got.program.python_source)
            return (hashlib.sha256(text.encode()).hexdigest(),
                    got.hit, len(got.passes))
        return (got.output, got.elapsed)

    def run_pass(self, i, rec=None):
        """One pass: ``(seconds per step, every step matched)``."""
        span = rec.span if rec is not None else (lambda _name: _NULL)
        times = []
        ok = True
        if rec is not None:
            rec.pass_id = i
        with span("pass"):
            for key, stages in self.steps:
                with span(f"step:{key}"):
                    t0 = time.perf_counter()
                    try:
                        value = i
                        for name, stage in stages:
                            with span(name):
                                value = stage(value)
                    except Exception as exc:  # noqa: BLE001 - a failed op
                        value = None
                        self.last_error = f"{key}: {exc!r}"
                    times.append(time.perf_counter() - t0)
                want = self.reference.get(key)
                if value is None:
                    ok = False
                elif want is not None and self.signature(value) != want:
                    ok = False
                    self.last_error = f"{key}: differs from reference"
        return times, ok

    # ------------------------------------------------------------------ #
    # verification (before any timing)
    # ------------------------------------------------------------------ #

    def verify(self):
        """Check every program against the interpreter oracle and the
        two backends against each other; set the per-step references.

        Returns the workload's modeled numbers: ``vclock_s`` and the
        message/byte/collective counts of one pass.
        """
        totals = {"vclock_s": 0.0, "messages": 0, "bytes": 0,
                  "collectives": 0, "oracle_s": 0.0}
        for key, stages in self.steps:
            source, provider = self.sources[key]
            t0 = time.perf_counter()
            expected = oracle_output(source, provider, self.seed)
            totals["oracle_s"] += time.perf_counter() - t0
            if self.cold:
                outcome = stages[0][1](0)
                self.reference[key] = self.signature(outcome)
                program = outcome.program
            else:
                program = stages[0][1](0)
            # twice: the first run may build or load kernels, the
            # second is what every measured pass must reproduce
            self._run(program)
            result = self._run(program)
            if not self.cold:
                self.reference[key] = self.signature(result)
            got, want = printed_numbers(result.output), \
                printed_numbers(expected)
            if len(got) != len(want) or not np.allclose(
                    got, want, rtol=1e-5, atol=1e-8):
                raise VerifyError(
                    f"{key}: compiled output diverged from the interpreter "
                    f"oracle\n  oracle:   {expected!r}\n"
                    f"  compiled: {result.output!r}")
            # the other backend, on the numpy path (lockstep with native
            # off is the repo's oracle configuration)
            other = self._run(program, backend="lockstep"
                              if self.spec.backend == "fused" else "fused",
                              native="off")
            if accounting(other) != accounting(result) \
                    or other.output != result.output:
                raise VerifyError(
                    f"{key}: fused and lockstep disagree on the modeled "
                    f"run\n  {self.spec.backend}: {accounting(result)[2:]}"
                    f" elapsed={result.elapsed!r}\n  other: "
                    f"{accounting(other)[2:]} elapsed={other.elapsed!r}")
            totals["vclock_s"] += result.elapsed
            totals["messages"] += result.spmd.messages_sent
            totals["bytes"] += result.spmd.bytes_sent
            totals["collectives"] += result.spmd.collectives
        return totals
