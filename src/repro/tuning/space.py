"""Plan-space enumeration and pruning.

The raw space is the cross product of every knob on
:class:`~repro.tuning.plan.Plan` — far too big to sweep blindly and
mostly no-ops for any given program.  The enumerator prunes with two
sources of evidence:

* **compile-time stats** from the default-plan compilation: a pass-6
  rewrite that never fired has nothing to gain (or lose) from being
  dropped from the peephole schedule; a program with zero hoists doesn't
  need the LICM axis; a program with no guarded stores doesn't need the
  guard axis.
* **a probe run** (the default plan on the fused backend): collective
  counts tell us whether the gather/allreduce algorithm axes can matter
  at this ``nprocs``.

Distribution candidates respect *alignment classes*: names that interact
in distributed statements are flipped together, because mixing schemes
between interacting operands forces the runtime's realignment gathers
(correct, but never what a sensible plan wants to explore first).

Candidates come out deterministically ordered: the default plan first,
then every single-axis deviation, then pairs, triples, ... of compatible
deviations, truncated at the caller's budget.
"""

from __future__ import annotations

import copy
import itertools
from typing import Iterable, Optional

from ..analysis.lattice import Rank
from ..ir.nodes import (
    Elementwise,
    EwNode,
    IndexAssign,
    IRProgram,
    SetElement,
    Var,
)
from ..ir.peephole import REWRITES, peephole_program
from .plan import DEFAULT_PLAN, FUSION_REWRITES, Plan

#: per-class distribution flips explored (largest classes first)
MAX_DIST_CLASSES = 3


# -------------------------------------------------------------------------- #
# alignment classes
# -------------------------------------------------------------------------- #


def _distributed_names(ir: IRProgram) -> set[str]:
    """Script variables that may hold distributed data (non-scalar rank)."""
    names = set()
    for name, vtype in ir.var_types.items():
        if vtype.rank is not Rank.SCALAR:
            names.add(name)
    return names


def alignment_classes(ir: IRProgram) -> list[tuple[str, ...]]:
    """Partition the distributed script variables into classes that must
    share a distribution scheme (union-find over statement co-occurrence).
    Returned largest-first, names sorted within each class.

    A statement ties what it assigns to everything it reads — coarser
    than strictly necessary, but a class that is too big only shrinks
    the search space, never produces an unsound plan."""
    dist = _distributed_names(ir)
    parent: dict[str, str] = {name: name for name in dist}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for block in ir.walk():
        for stmt in block:
            members = [op.name for op in (*stmt.defs(), *stmt.uses())
                       if op.__class__ is Var and op.name in dist]
            for other in members[1:]:
                union(members[0], other)
    classes: dict[str, set[str]] = {}
    for name in dist:
        classes.setdefault(find(name), set()).add(name)
    return sorted((tuple(sorted(c)) for c in classes.values()),
                  key=lambda c: (-len(c), c))


# -------------------------------------------------------------------------- #
# axis construction
# -------------------------------------------------------------------------- #


def _has_nested_ew(ir: IRProgram) -> bool:
    for block in ir.walk():
        for stmt in block:
            if (isinstance(stmt, Elementwise)
                    and isinstance(stmt.expr, EwNode)
                    and any(isinstance(a, EwNode) for a in stmt.expr.args)):
                return True
    return False


def _has_element_stores(ir: IRProgram) -> bool:
    for block in ir.walk():
        for stmt in block:
            if isinstance(stmt, (SetElement, IndexAssign)):
                return True
    return False


def plan_axes(program, probe_counts: Optional[dict] = None,
              nprocs: int = 1, machine=None) -> dict[str, list[dict]]:
    """The prunable axes for ``program`` (compiled under the default
    plan): axis name -> list of field-override dicts (deviations from
    :data:`DEFAULT_PLAN`).

    ``probe_counts`` is the default fused run's ``collective_counts``
    (None: assume every collective occurs, i.e. don't prune on them).
    ``machine`` gates the topology axes: the collective-hierarchy knob
    is only offered when the world actually spans nodes on that model.
    """
    ir = program.ir
    counts = probe_counts or {}

    def happened(*ops: str) -> bool:
        if not counts:
            return True
        return any(counts.get(op, 0) > 0 for op in ops)

    axes: dict[str, list[dict]] = {}

    # pass 6: the schedule without each rewrite that fired, the schedule
    # with each rewrite the default leaves out (where it would fire on
    # what the default's rewrites left), and the pass off entirely — of
    # the rewrites that can move the modeled clock the search ranks
    # plans by (``ew_group`` moves host time only)
    schedule = DEFAULT_PLAN.fusion
    fired = [name for name in program.peephole_stats.fired()
             if REWRITES[name].modeled]
    fusion = [{"fusion": tuple(r for r in schedule if r != name)}
              for name in fired]
    fusion += [{"fusion": (*schedule, name)}
               for name in FUSION_REWRITES if name not in schedule
               and REWRITES[name].modeled
               and peephole_program(copy.deepcopy(ir),
                                    schedule=(name,)).counts[name]]
    if fired:
        fusion.append({"fusion": ()})
    if fusion:
        axes["fusion"] = fusion

    if program.licm_stats.hoisted > 0:
        axes["licm"] = [{"licm": "safe"}, {"licm": "off"}]

    if _has_element_stores(ir):
        axes["guard"] = [{"guard": "replicated"}]

    if _has_nested_ew(ir):
        axes["ew_split"] = [{"ew_split": True}]

    if nprocs > 1:
        dist: list[dict] = [{"scheme": "cyclic"}]
        for cls in alignment_classes(ir)[:MAX_DIST_CLASSES]:
            # flip one class to cyclic, and the complement: default goes
            # cyclic while this class is pinned to block
            dist.append({"dist": tuple((name, "cyclic") for name in cls)})
            dist.append({"scheme": "cyclic",
                         "dist": tuple((name, "block") for name in cls)})
        axes["dist"] = dist

        if happened("allgather", "gather", "scatter"):
            axes["gather_algo"] = [{"gather_algo": "doubling"}]
        if happened("allreduce"):
            axes["allreduce_algo"] = [{"allreduce_algo": "halving"}]
        if (machine is not None and machine.spans_nodes(nprocs)
                and happened("allgather", "gather", "scatter", "allreduce",
                             "bcast", "reduce", "alltoall", "barrier",
                             "scan")):
            axes["hierarchy"] = [{"hierarchy": "flat"}]
        axes["cache_gathers"] = [{"cache_gathers": True}]

    return axes


# -------------------------------------------------------------------------- #
# enumeration
# -------------------------------------------------------------------------- #


def _merge(overrides: Iterable[dict]) -> Optional[dict]:
    """Merge override dicts; None if two touch the same field."""
    merged: dict = {}
    for ov in overrides:
        for key in ov:
            if key in merged:
                return None
        merged.update(ov)
    return merged


def enumerate_plans(program, probe_counts: Optional[dict] = None,
                    nprocs: int = 1, budget: int = 64,
                    machine=None) -> list[Plan]:
    """Up to ``budget`` candidate plans, default first, deterministic.

    Order: the default plan, every single-axis deviation, then pairs,
    triples, ... of deviations from *different* axes (same-field
    conflicts are skipped).  The default plan is always candidate 0, so
    any search that evaluates the whole list can never return a plan
    worse than the default.
    """
    axes = plan_axes(program, probe_counts, nprocs, machine=machine)
    pool: list[tuple[str, dict]] = []
    for axis in sorted(axes):
        for override in axes[axis]:
            pool.append((axis, override))

    plans: list[Plan] = [DEFAULT_PLAN]
    seen = {DEFAULT_PLAN.key()}

    def push(overrides: dict) -> bool:
        if len(plans) >= budget:
            return False
        try:
            plan = Plan(**{**DEFAULT_PLAN.as_dict(), **overrides})
        except (TypeError, ValueError):
            return True
        if plan.key() not in seen:
            seen.add(plan.key())
            plans.append(plan)
        return True

    for depth in range(1, len(pool) + 1):
        if len(plans) >= budget:
            break
        made_one = False
        for combo in itertools.combinations(pool, depth):
            axis_names = [axis for axis, _ in combo]
            if len(set(axis_names)) != len(axis_names):
                continue  # two deviations on the same axis
            merged = _merge(ov for _, ov in combo)
            if merged is None:
                continue
            made_one = True
            if not push(merged):
                return plans
        if not made_one:
            break
    return plans
