"""Candidate-evaluation memo.

Tuning the same program at several rank counts (or re-running a sweep)
re-evaluates many identical (program, plan, nprocs, machine, seed)
points; the memo returns the recorded cost instead of re-running the
workload.  The program is named by its compile-cache key (canonical
source, script name, M-file provider).  The machine model participates
in the key as itself — it is a frozen dataclass, so value equality is
exactly "same cost model".
"""

from __future__ import annotations

from typing import Optional

_EVAL_MEMO: dict[tuple, dict] = {}
_EVAL_MEMO_STATS = {"hits": 0, "misses": 0}
_EVAL_MEMO_MAX = 4096


def eval_key(program_key: str, plan, nprocs: int, machine,
             seed: int) -> tuple:
    return (program_key, plan.key(), nprocs, machine, seed)


def eval_lookup(key: tuple) -> Optional[dict]:
    hit = _EVAL_MEMO.get(key)
    if hit is not None:
        _EVAL_MEMO_STATS["hits"] += 1
        return hit
    _EVAL_MEMO_STATS["misses"] += 1
    return None


def eval_store(key: tuple, record: dict) -> None:
    if len(_EVAL_MEMO) >= _EVAL_MEMO_MAX:
        _EVAL_MEMO.pop(next(iter(_EVAL_MEMO)))
    _EVAL_MEMO[key] = record


def eval_memo_stats() -> dict:
    return dict(_EVAL_MEMO_STATS, size=len(_EVAL_MEMO),
                maxsize=_EVAL_MEMO_MAX)


def clear_eval_memo() -> None:
    _EVAL_MEMO.clear()
    _EVAL_MEMO_STATS.update(hits=0, misses=0)
