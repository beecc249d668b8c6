"""The run-knob table (``repro.runconfig``): one test per row and rule.

``ROWS`` restates, knob by knob, what the per-module resolvers this
table replaced were tested for — default, environment value, explicit
beats environment, malformed environment value — so a change to
``KNOBS`` that alters user-visible behaviour has to be made here too.
"""

import os
import re
from pathlib import Path

import pytest

from repro import runconfig
from repro.compiler import compile_source
from repro.errors import ConfigError, MpiError
from repro.mpi import MEIKO_CS2, FaultPlan, executor, run_spmd
from repro.runconfig import KNOBS, RunConfig, environment_value, resolve
from repro.tuning import clear_eval_memo

REPO = Path(__file__).resolve().parent.parent
CRASH = "seed=7; crash rank=1 step=3"

#: field -> (default,
#:           [(environment text, resolved value), ...],
#:           [(explicit value, resolved value), ...],
#:           [(malformed environment text, message pattern), ...])
ROWS = {
    "backend": ("fused", [("fused", "fused"), ("lockstep", "lockstep")],
                [("lockstep", "lockstep"), ("fused", "fused")],
                [("threads",
                  "unknown SPMD backend 'threads'.*lockstep, fused")]),
    "native": ("auto", [("off", "off"), ("require", "require")],
               [("off", "off")], [("fast", "unknown native mode 'fast'")]),
    "watchdog": (None, [("2.5", 2.5)], [(30, 30.0), ("1.5", 1.5)],
                 [("not-a-number", "number of seconds"),
                  ("abc", "number of seconds"),
                  ("-3", "positive"), ("0", "positive")]),
    "trace": (False,
              [("1", True), ("summary", True), ("out.json", True),
               ("0", False)],
              [(False, False), (True, True)], []),
    "on_fault": ("abort", [("restart", "restart"), ("degrade", "degrade")],
                 [("retry", "retry")],
                 [("sometimes", "unknown on_fault policy 'sometimes'"
                                ".*abort, retry, restart, degrade")]),
    "max_restarts": (2, [("5", 5), ("0", 0)], [(1, 1)],
                     [("many", "must be an integer"),
                      ("abc", "must be an integer"), ("-1", ">= 0")]),
    "checkpoint_every": (None, [("3", 3)], [(2, 2)],
                         [("0", ">= 1"), ("often", "must be an integer")]),
    # per-call only: no environment variable stands behind these
    "fault_plan": (None, [],
                   [(CRASH, FaultPlan.parse(CRASH)),
                    (FaultPlan.parse(CRASH), FaultPlan.parse(CRASH)),
                    ("", None)],
                   []),
    "tune": (False, [], [(True, True), (False, False)], []),
    "tune_budget": (64, [], [(8, 8)], []),
}
VARIABLE = {field: variable for field, variable, _p, _d in KNOBS}


@pytest.fixture(autouse=True)
def scrubbed(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


def test_rows_cover_the_table():
    assert tuple(ROWS) != () and set(ROWS) == set(RunConfig._fields)
    assert [knob[0] for knob in KNOBS] == list(RunConfig._fields)
    for field, variable, _parse, default in KNOBS:
        assert ROWS[field][0] == default
        assert bool(ROWS[field][1]) == (variable is not None), field


@pytest.mark.parametrize("field", ROWS)
def test_default(monkeypatch, field):
    assert getattr(resolve(), field) == ROWS[field][0]
    assert getattr(RunConfig(), field) == ROWS[field][0]
    if VARIABLE[field]:
        # an empty variable is an unset one
        monkeypatch.setenv(VARIABLE[field], "")
        assert getattr(resolve(), field) == ROWS[field][0]
        assert environment_value(field) is None


@pytest.mark.parametrize("field,text,value", [
    (field, text, value)
    for field, row in ROWS.items() for text, value in row[1]])
def test_environment_beats_default(monkeypatch, field, text, value):
    monkeypatch.setenv(VARIABLE[field], text)
    got = getattr(resolve(), field)
    assert got == value and type(got) is type(value)
    assert environment_value(field) == text


@pytest.mark.parametrize("field", ROWS)
def test_explicit_beats_environment(monkeypatch, field):
    _default, env_rows, explicit_rows, malformed = ROWS[field]
    texts = [text for text, _v in env_rows] + [text for text, _m in malformed]
    for text in texts or [None]:
        if text is not None:
            # even a malformed variable is never looked at
            monkeypatch.setenv(VARIABLE[field], text)
        for explicit, value in explicit_rows:
            got = getattr(resolve(**{field: explicit}), field)
            assert got == value and type(got) is type(value)
    # None means "not set here", not "off"
    if VARIABLE[field]:
        monkeypatch.setenv(VARIABLE[field], env_rows[0][0])
    assert resolve(**{field: None}) == resolve()
    assert getattr(resolve(), field) == (env_rows or [(0, _default)])[0][1]


@pytest.mark.parametrize("field,text,pattern", [
    (field, text, pattern)
    for field, row in ROWS.items() for text, pattern in row[3]])
def test_malformed_environment_names_the_variable(monkeypatch, field, text,
                                                  pattern):
    monkeypatch.setenv(VARIABLE[field], text)
    with pytest.raises(ConfigError, match=pattern) as err:
        resolve()
    assert str(err.value).startswith(f"${VARIABLE[field]}: ")
    assert isinstance(err.value, MpiError)     # what callers catch today


@pytest.mark.parametrize("field,value,pattern", [
    ("backend", "fibers", "unknown SPMD backend"),
    ("native", "fast", "unknown native mode"),
    ("watchdog", "abc", "number of seconds"),
    ("watchdog", -3, "positive"),
    ("watchdog", True, "number of seconds"),
    ("on_fault", "explode", "unknown on_fault"),
    ("max_restarts", -1, ">= 0"),
    ("max_restarts", 2.5, "must be an integer"),
    ("checkpoint_every", 0, ">= 1"),
    ("tune_budget", 0, ">= 1"),
    ("tune_budget", "lots", "must be an integer"),
])
def test_malformed_keyword_names_the_keyword(field, value, pattern):
    with pytest.raises(ConfigError, match=pattern) as err:
        resolve(**{field: value})
    assert str(err.value).startswith(f"{field}=: ")


def test_unknown_knob_is_rejected():
    # the second spellings are gone, not aliased
    for gone in ("scheme", "cache_gathers", "peephole"):
        with pytest.raises(ConfigError, match=f"{gone}=: not a run knob"):
            resolve(**{gone: "block"})
    with pytest.raises(ConfigError, match="scheme=: not a run knob"):
        compile_source("x = 1;").run(scheme="cyclic")


def test_retired_variables_inject_nothing(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PLAN", CRASH)
    monkeypatch.setenv("REPRO_TUNE", "64")
    assert resolve() == RunConfig()
    result = compile_source("x = sum(ones(8, 1));").run(nprocs=4)
    assert result.tune is None and result.spmd.fault_events == []


class _CountingEnviron(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


def test_each_variable_is_read_at_most_once(monkeypatch):
    variables = sorted(v for v in VARIABLE.values() if v)
    environ = _CountingEnviron({"REPRO_SPMD_BACKEND": "fused"})
    monkeypatch.setattr(runconfig.os, "environ", environ)
    assert resolve().backend == "fused"
    assert sorted(environ.reads) == variables
    # ... and not at all when something explicit outranks it
    environ.reads.clear()
    assert resolve(backend="lockstep", trace=True).backend == "lockstep"
    assert sorted(environ.reads) == sorted(
        set(variables) - {"REPRO_SPMD_BACKEND", "REPRO_TRACE"})


# ---------------------------------------------------------------------- #
# a config passed down is used as is
# ---------------------------------------------------------------------- #


def _contradict(monkeypatch):
    """An environment that disagrees with every knob — and would raise
    if anything below the entry point resolved it again."""
    monkeypatch.setenv("REPRO_SPMD_BACKEND", "threads")
    monkeypatch.setenv("REPRO_NATIVE", "fast")
    monkeypatch.setenv("REPRO_TRACE", "0")
    monkeypatch.setenv("REPRO_WATCHDOG_SECONDS", "abc")
    monkeypatch.setenv("REPRO_ON_FAULT", "sometimes")
    monkeypatch.setenv("REPRO_MAX_RESTARTS", "abc")
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "0")


def test_run_spmd_uses_the_config_it_is_given(monkeypatch):
    config = resolve(backend="fused", trace=True, watchdog=30)
    _contradict(monkeypatch)
    with pytest.raises(ConfigError):
        resolve()
    result = run_spmd(2, MEIKO_CS2, lambda comm: comm.allreduce(1.0),
                      config=config)
    assert result.backend == "fused" and result.trace is not None


def test_fused_fallback_keeps_the_config(monkeypatch):
    config = resolve(backend="fused", trace=True, watchdog=30)
    _contradict(monkeypatch)
    result = run_spmd(3, MEIKO_CS2, lambda comm: comm.rank, config=config)
    assert result.backend == "lockstep"        # diverged, re-ran
    assert result.results == [0, 1, 2]
    assert result.trace is not None and result.trace.meta["nprocs"] == 3


def test_run_knobs_and_fn_keywords_part_ways():
    result = run_spmd(2, MEIKO_CS2, lambda comm, scale: scale * comm.size,
                      backend="fused", scale=3)
    assert result.backend == "fused" and result.results == [6, 6]


def test_tuned_rerun_keeps_the_config(monkeypatch):
    clear_eval_memo()
    program = compile_source("x = ones(16, 16);\ns = sum(sum(x));\n")
    config = resolve(backend="lockstep", trace=True, tune=True,
                     tune_budget=2)
    _contradict(monkeypatch)
    seen = []
    real = executor.run_spmd

    def spy(*args, config, **kwargs):
        seen.append(config)
        return real(*args, config=config, **kwargs)

    monkeypatch.setattr("repro.compiler.run_spmd", spy)
    result = program.run(nprocs=4, config=config)
    assert result.tune is not None and result.trace is not None
    assert result.spmd.backend == "lockstep"
    # every search evaluation ran under the tuner's own configuration,
    # the final run under ours with only the search switched off
    assert seen[-1] == config._replace(tune=False)
    assert seen[:-1] and set(seen[:-1]) == {RunConfig(backend="fused")}


def test_config_and_knobs_together_is_a_caller_bug():
    with pytest.raises(TypeError, match="not both"):
        compile_source("x = 1;").run(config=RunConfig(), backend="fused")


# ---------------------------------------------------------------------- #
# the reference cannot drift (style of tests/test_builtin_docs.py)
# ---------------------------------------------------------------------- #

#: read where their process-wide singletons are built, not run knobs
DEPLOYMENT = {"REPRO_COMPILE_CACHE", "REPRO_KERNEL_CACHE",
              "REPRO_NATIVE_CC"}


def test_every_repro_variable_is_a_table_row_and_documented():
    found = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        found |= set(re.findall(r"REPRO_[A-Z_]+",
                                path.read_text(encoding="utf-8")))
    rows = {variable for variable in VARIABLE.values() if variable}
    assert found == rows | DEPLOYMENT
    doc = (REPO / "docs" / "CONFIGURATION.md").read_text(encoding="utf-8")
    for name in sorted(found):
        assert f"`{name}`" in doc, name
    for field in RunConfig._fields:
        assert f"`{field}`" in doc, field
