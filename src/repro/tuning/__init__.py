"""Plan autotuning: virtual-clock-guided search over optimization plans.

The paper's compiler commits to one optimization plan — row-block
distribution, a fixed peephole schedule, aggressive LICM, ring gathers
and tree allreduces.  This package makes the plan a first-class value
(:class:`~repro.tuning.plan.Plan`), enumerates a pruned neighborhood of
the default (:mod:`~repro.tuning.space`), and costs each candidate by
running it on the fused backend with the final virtual clock as the
objective (:mod:`~repro.tuning.search`).

Entry points: :func:`tune_program` (programmatic),
``CompiledProgram.run(tune=True)`` / ``repro run --tune
--explain-plan`` (wired through the compiler).
"""

from .memo import clear_eval_memo, eval_memo_stats
from .plan import (
    ALLREDUCE_ALGOS,
    DEFAULT_PLAN,
    FUSION_REWRITES,
    GATHER_ALGOS,
    LICM_POLICIES,
    SCHEMES,
    Plan,
)
from .search import Candidate, TuneResult, tune_program
from .space import alignment_classes, enumerate_plans, plan_axes

__all__ = [
    "ALLREDUCE_ALGOS",
    "Candidate",
    "DEFAULT_PLAN",
    "FUSION_REWRITES",
    "GATHER_ALGOS",
    "LICM_POLICIES",
    "Plan",
    "SCHEMES",
    "TuneResult",
    "alignment_classes",
    "clear_eval_memo",
    "enumerate_plans",
    "eval_memo_stats",
    "plan_axes",
    "tune_program",
]
