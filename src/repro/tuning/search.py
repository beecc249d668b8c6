"""The plan-search driver.

``tune_program`` compiles each candidate plan (through the compile memo,
so distinct *lowerings* compile once) and costs it by actually running
the workload on the **fused backend** — one execution carries all P
simulated ranks, so even a small problem instance yields the full
virtual-clock objective at a fraction of the host cost.  The final
virtual clock (slowest rank) is the figure of merit; every candidate is
also sanity-checked against the default plan's results, and a candidate
whose numerics drift beyond elementwise-reassociation tolerance is
disqualified rather than trusted.

The default plan is always candidate 0, so the tuned plan can never be
worse than the default — the search degrades to "keep the default" when
the neighborhood has nothing to offer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..compiler import compile_cache_stats, compile_cached
from ..errors import MpiCorruptionError, MpiTimeoutError, RankCrashedError
from ..mpi.machine import MEIKO_CS2, MachineModel
from ..runconfig import RunConfig
from .memo import eval_key, eval_lookup, eval_memo_stats, eval_store
from .plan import DEFAULT_PLAN, Plan
from .space import enumerate_plans

#: every evaluation runs under this configuration and no other: the
#: search must cost plans, not whatever the caller's environment or
#: final-run knobs (tracing, chaos, watchdog, backend) would add —
#: the defaults, whatever the environment says
_EVAL_CONFIG = RunConfig()

#: failures of the substrate or the host, not of the plan under test —
#: reported on the candidate, never memoised as its cost
_NOT_THE_PLAN = (MpiTimeoutError, MpiCorruptionError, RankCrashedError)


@dataclass
class Candidate:
    """One evaluated plan."""

    plan: Plan
    cost: float                   # final virtual clock (seconds); inf: failed
    valid: bool = True            # numerics matched the default plan
    cached: bool = False          # served from the evaluation memo
    error: Optional[str] = None

    @property
    def summary(self) -> str:
        return self.plan.summary()


@dataclass
class TuneResult:
    """Outcome of one plan search (the ``--explain-plan`` payload)."""

    name: str
    nprocs: int
    machine: MachineModel
    budget: int
    candidates: list[Candidate] = field(default_factory=list)
    host_seconds: float = 0.0
    memo: dict = field(default_factory=dict)
    compile_memo: dict = field(default_factory=dict)
    _best_program: Any = field(default=None, repr=False)

    @property
    def default(self) -> Candidate:
        return self.candidates[0]

    @property
    def best(self) -> Candidate:
        valid = [c for c in self.candidates if c.valid
                 and np.isfinite(c.cost)]
        return min(valid, key=lambda c: c.cost) if valid else self.default

    @property
    def best_program(self):
        return self._best_program

    @property
    def improvement(self) -> float:
        """Fractional virtual-clock improvement of best over default."""
        base = self.default.cost
        if not np.isfinite(base) or base <= 0:
            return 0.0
        return (base - self.best.cost) / base

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "nprocs": self.nprocs,
            "machine": self.machine.name,
            "budget": self.budget,
            "host_seconds": self.host_seconds,
            "default_vclock": self.default.cost,
            "tuned_vclock": self.best.cost,
            "improvement_pct": 100.0 * self.improvement,
            "best_plan": self.best.plan.as_dict(),
            "best_summary": self.best.summary,
            "candidates": [
                {"plan": c.summary, "key": c.plan.short_key(),
                 "vclock": c.cost, "valid": c.valid, "cached": c.cached,
                 **({"error": c.error} if c.error else {})}
                for c in self.candidates],
            "memo": self.memo,
            "compile_memo": self.compile_memo,
        }

    def report(self) -> str:
        """Human-readable per-candidate cost table + the winning plan."""
        out = [f"plan search: {self.name} @ P={self.nprocs} "
               f"on {self.machine.name}",
               f"{len(self.candidates)} candidates in "
               f"{self.host_seconds:.2f}s host time "
               f"(eval memo {self.memo.get('hits', 0)} hits, "
               f"compile memo {self.compile_memo.get('hits', 0)} hits)",
               "",
               f"{'vclock(ms)':>12s} {'delta':>8s}  plan",
               "-" * 64]
        base = self.default.cost
        for cand in sorted(self.candidates, key=lambda c: c.cost):
            if not np.isfinite(cand.cost):
                out.append(f"{'failed':>12s} {'-':>8s}  {cand.summary}"
                           + (f"  [{cand.error}]" if cand.error else ""))
                continue
            delta = (f"{100.0 * (base - cand.cost) / base:+7.2f}%"
                     if base > 0 else "   0.00%")
            flag = "" if cand.valid else "  [numerics drifted]"
            out.append(f"{cand.cost * 1e3:12.3f} {delta:>8s}  "
                       f"{cand.summary}{flag}")
        out.append("-" * 64)
        out.append(f"winner ({100.0 * self.improvement:+.2f}% vclock):")
        out.append(self.best.plan.describe())
        return "\n".join(out)


# -------------------------------------------------------------------------- #


def _observed(result) -> dict:
    """Numeric observables for the sanity check (workspace values)."""
    obs = {}
    for key, value in result.workspace.items():
        try:
            obs[key] = np.asarray(value, dtype=complex)
        except (TypeError, ValueError):
            obs[key] = value
    return obs


def _numerics_match(ref: dict, got: dict) -> bool:
    """Approximate equality: distributions legitimately reassociate
    reductions, so bit-identity across *plans* is not required (it IS
    required across backends for one plan — the differential suite)."""
    if set(ref) != set(got):
        return False
    for key, a in ref.items():
        b = got[key]
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            if a.shape != b.shape:
                return False
            with np.errstate(invalid="ignore"):
                same = np.allclose(a, b, rtol=1e-6, atol=1e-9,
                                   equal_nan=True)
            if not same:
                return False
        elif a != b:
            return False
    return True


def tune_program(source: str, nprocs: int = 4,
                 machine: MachineModel | None = None,
                 budget: int = 64, provider=None, seed: int = 0,
                 name: str = "script", front_end=None) -> TuneResult:
    """Search the plan space for ``source`` and return the full report.

    Every candidate (including candidate 0, the default plan) is costed
    by a fused-backend run; the winner is the valid candidate with the
    smallest final virtual clock.

    ``front_end`` is the caller's compile of ``source``: when it carries
    the IR under the default plan (a miss's ``CacheOutcome.full``), the
    axis pruning reads it instead of compiling the front end again.
    """
    from ..service.cache import get_compile_cache

    machine = machine or MEIKO_CS2
    budget = max(int(budget), 1)
    t0 = time.perf_counter()

    result = TuneResult(name=name, nprocs=nprocs, machine=machine,
                        budget=budget)

    def evaluate(plan: Plan, reference: Optional[dict]):
        key = eval_key(program_key, plan, nprocs, machine, seed)
        hit = eval_lookup(key)
        if hit is not None:
            cand = Candidate(plan=plan, cost=hit["cost"],
                             valid=hit["valid"], cached=True,
                             error=hit.get("error"))
            return cand, hit.get("observed"), hit.get("counts") or {}
        counts: dict = {}
        try:
            program = compile_cached(source, provider, name=name, plan=plan)
            run = program.run(nprocs, machine, seed, plan=plan,
                              config=_EVAL_CONFIG)
            observed = _observed(run)
            counts = dict(run.spmd.collective_counts)
            valid = reference is None or _numerics_match(reference, observed)
            cand = Candidate(plan=plan, cost=run.spmd.elapsed, valid=valid)
        except Exception as exc:  # a bad plan must not kill the search
            observed = None
            cand = Candidate(plan=plan, cost=float("inf"), valid=False,
                             error=f"{type(exc).__name__}: {exc}")
            if isinstance(exc, _NOT_THE_PLAN):
                return cand, observed, counts
        eval_store(key, {"cost": cand.cost, "valid": cand.valid,
                         "error": cand.error, "observed": observed,
                         "counts": counts})
        return cand, observed, counts

    # a source that does not compile fails identically under every plan:
    # let the compile error propagate rather than report a non-search
    compiled = get_compile_cache().get_or_compile(
        source, name=name, provider=provider, plan=DEFAULT_PLAN)
    default_program = compiled.program
    # after the compile, whose one parse also keyed the source
    program_key = get_compile_cache().key(source, name=name,
                                          provider=provider)

    # candidate 0: the default plan — also the numerics reference and
    # the probe whose collective counts prune the axis list
    default_cand, reference, probe_counts = evaluate(DEFAULT_PLAN, None)
    result.candidates.append(default_cand)
    if not np.isfinite(default_cand.cost):
        # the program compiles but fails at run time: report, don't search
        result.host_seconds = time.perf_counter() - t0
        result.memo = eval_memo_stats()
        result.compile_memo = compile_cache_stats()
        result._best_program = default_program
        return result

    # the axis pruning reads the IR, which no cached program holds: a
    # miss's own compile, else the caller's (under the default plan),
    # else one recompile
    if compiled.full is not None or front_end is None \
            or front_end.plan is not None:
        front_end = compiled.full or default_program
    for plan in enumerate_plans(front_end.front_end(), probe_counts,
                                nprocs=nprocs, budget=budget,
                                machine=machine)[1:]:
        cand, _, _ = evaluate(plan, reference)
        result.candidates.append(cand)

    result.host_seconds = time.perf_counter() - t0
    result.memo = eval_memo_stats()
    result.compile_memo = compile_cache_stats()
    result._best_program = compile_cached(source, provider, name=name,
                                          plan=result.best.plan)
    return result
