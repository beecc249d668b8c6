"""Property tests for the compile-cache key contract (docs/SERVICE.md).

One key per compiled artifact: requests differing in anything a compiler
pass reads (canonical source, name, provider content, a compile-side
plan field) never share a key; requests differing only in layout,
comments or a run-time plan field always do — same key, same program
object, same emitted Python; an identical repeat is a hit that executes
zero compiler passes and whose run is bit-identical to the cold one.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import all_workloads
from repro.frontend.mfile import DictProvider
from repro.mpi.machine import MEIKO_CS2
from repro.service.cache import CompileCache
from repro.trace import canonical_events, pass_report
from repro.tuning import plan as plan_mod
from repro.tuning.plan import COMPILE_FIELDS, DEFAULT_PLAN, Plan

# a pool of semantically distinct, compilable sources; between them they
# give every compile-side knob something to change
SOURCES = (
    "x = ones(4, 4) * 2;\ndisp(sum(sum(x)));\n",
    "y = zeros(3, 5) + 1;\ndisp(sum(sum(y)));\n",
    "A = ones(6, 6);\nv = ones(6, 1);\ndisp(sum(A * v));\n",
    "s = 0;\nfor i = 1:5\n  s = s + i;\nend\ndisp(s);\n",
    # transpose-matmul fusion + CSE
    "A = ones(6, 6);\nB = A' * A + A' * A;\ndisp(sum(sum(B)));\n",
    # a loop invariant to hoist, an element store, a nested
    # elementwise tree
    "A = ones(6, 6);\nv = zeros(6, 1);\nfor i = 1:6\n  c = sum(sum(A));\n"
    "  v(i) = c * i;\nend\nw = sqrt(v) .* v + v ./ (v + 1);\ndisp(sum(w));\n",
)

CORPUS = tuple((source, None) for source in SOURCES) + tuple(
    (w.source, w.provider) for w in all_workloads("small"))

PROVIDERS = (None,
             DictProvider({"f": "function y = f(x)\ny = x;\n"}),
             DictProvider({"f": "function y = f(x)\ny = x + 1;\n"}))

#: every legal non-default value of every Plan field — a new field has
#: to be listed here, and so classified compile-side or run-time below
ALTERNATIVES = {
    "scheme": ["cyclic"],
    "dist": [(("A", "cyclic"),), (("A", "block"), ("v", "cyclic"))],
    "fusion": [(), ("cse",), ("transpose_matmul",),
               ("cse", "transpose_matmul")],
    "licm": ["off", "safe"],
    "gather_algo": ["doubling"],
    "allreduce_algo": ["halving"],
    "hierarchy": ["flat"],
}
RUN_TIME_FIELDS = ("scheme", "dist", "gather_algo", "allreduce_algo",
                   "hierarchy")


def test_every_plan_field_is_classified_and_fully_enumerated():
    names = [f.name for f in dataclasses.fields(Plan)]
    assert sorted(ALTERNATIVES) == sorted(names)
    assert sorted(COMPILE_FIELDS + RUN_TIME_FIELDS) == sorted(names)
    for name, legal in (("scheme", plan_mod.SCHEMES),
                        ("licm", plan_mod.LICM_POLICIES),
                        ("gather_algo", plan_mod.GATHER_ALGOS),
                        ("allreduce_algo", plan_mod.ALLREDUCE_ALGOS),
                        ("hierarchy", plan_mod.HIERARCHIES)):
        default = getattr(DEFAULT_PLAN, name)
        assert sorted(ALTERNATIVES[name] + [default]) == sorted(legal)


@pytest.mark.parametrize("field", sorted(ALTERNATIVES))
def test_plan_field_moves_the_key_iff_the_compiler_reads_it(field):
    """Emitted Python differs => compile_key differs; a run-time field
    leaves key, program object and emitted Python identical."""
    changed_something = False
    for source, provider in CORPUS:
        cache = CompileCache(disk_root=False)
        base = cache.get_or_compile(source, provider=provider)
        for value in ALTERNATIVES[field]:
            plan = Plan(**{field: value})
            got = cache.get_or_compile(source, provider=provider, plan=plan)
            differs = (got.program.python_source
                       != base.program.python_source)
            changed_something = changed_something or differs
            if differs:
                assert plan.compile_key() != DEFAULT_PLAN.compile_key()
            if field in COMPILE_FIELDS:
                assert got.key != base.key and not got.hit
                assert got.program.plan == plan
            else:
                assert got.key == base.key and got.hit
                assert got.program is base.program
    # every compile-side field earns its place in the key
    assert changed_something == (field in COMPILE_FIELDS)


components = st.fixed_dictionaries({
    "source": st.sampled_from(range(len(SOURCES))),
    "name": st.sampled_from(("script", "demo", "job")),
    "provider": st.sampled_from(range(len(PROVIDERS))),
    "plan": st.sampled_from((None, "nofuse", "safe", "off", "cse")),
})

_PLANS = {"nofuse": Plan(fusion=()), "safe": Plan(licm="safe"),
          "off": Plan(licm="off"), "cse": Plan(fusion=("cse",))}

# run-time dressings of a request: none may move the key
run_side = st.sampled_from((
    {}, {"scheme": "cyclic"}, {"gather_algo": "doubling"},
    {"dist": (("x", "cyclic"),), "allreduce_algo": "halving",
     "hierarchy": "flat"}))


def _request_plan(c: dict, dressing: dict):
    base = _PLANS.get(c["plan"])
    if base is None:
        return Plan(**dressing) if dressing else None
    return dataclasses.replace(base, **dressing)


def _key(cache: CompileCache, c: dict, dressing: dict) -> str:
    return cache.key(SOURCES[c["source"]], name=c["name"],
                     provider=PROVIDERS[c["provider"]],
                     plan=_request_plan(c, dressing))


@given(a=components, b=components, dress_a=run_side, dress_b=run_side)
@settings(max_examples=150, deadline=None)
def test_keys_collide_exactly_when_compile_components_agree(a, b, dress_a,
                                                            dress_b):
    cache = CompileCache(disk_root=False)
    assert (_key(cache, a, dress_a) == _key(cache, b, dress_b)) == (a == b)


# whitespace/comment mutations that must not move the key
def _mutate_layout(source: str, pad: int, comment: bool) -> str:
    lines = source.rstrip("\n").split("\n")
    mutated = []
    for line in lines:
        mutated.append(" " * pad + line.replace(" = ", "  =  "))
        if comment:
            mutated.append("% noise" + "!" * pad)
    return "\n".join(mutated) + "\n" * (1 + pad)


@given(source=st.sampled_from(SOURCES), pad=st.integers(0, 6),
       comment=st.booleans())
@settings(max_examples=60, deadline=None)
def test_layout_mutations_preserve_the_key(source, pad, comment):
    cache = CompileCache(disk_root=False)
    assert cache.key(source) == cache.key(_mutate_layout(source, pad,
                                                         comment))
    assert cache.key(source) == cache.key(source, plan=DEFAULT_PLAN)


@given(c=components, dress_cold=run_side, dress_warm=run_side)
@settings(max_examples=25, deadline=None)
def test_repeat_is_a_hit_with_zero_passes(c, dress_cold, dress_warm):
    cache = CompileCache(disk_root=False)
    kwargs = dict(name=c["name"], provider=PROVIDERS[c["provider"]])
    cold = cache.get_or_compile(SOURCES[c["source"]], **kwargs,
                                plan=_request_plan(c, dress_cold))
    warm = cache.get_or_compile(SOURCES[c["source"]], **kwargs,
                                plan=_request_plan(c, dress_warm))
    assert not cold.hit and warm.hit
    assert warm.key == cold.key
    assert warm.passes == []
    assert warm.program is cold.program
    # the pass report of a warm request shows no pass rows at all
    report = pass_report(warm.passes, cache=warm.describe())
    assert "[cache] hit" in report
    assert "parse" not in report and "emit" not in report


@given(source=st.sampled_from(SOURCES[:3]), nprocs=st.sampled_from((1, 2)))
@settings(max_examples=10, deadline=None)
def test_hit_runs_bit_identical_to_miss_runs(source, nprocs):
    cache = CompileCache(disk_root=False)
    cold = cache.get_or_compile(source)
    warm = cache.get_or_compile(source)
    r_cold = cold.program.run(nprocs=nprocs, machine=MEIKO_CS2, trace=True)
    r_warm = warm.program.run(nprocs=nprocs, machine=MEIKO_CS2, trace=True)
    assert r_warm.output == r_cold.output
    assert r_warm.elapsed == r_cold.elapsed
    sha = lambda r: hashlib.sha256(                      # noqa: E731
        canonical_events(r.trace).encode("utf-8")).hexdigest()
    assert sha(r_warm) == sha(r_cold)
