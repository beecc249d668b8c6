"""The three run-time entry points behind pass 6's collective-removing
rewrites — the immediate ``circshift`` shift (``const_args``),
``rt.reduce2`` (``reduce2``) and ``rt.reduce_batch`` (``batch_reduce``).

Each is held to the calls it replaces **bit for bit** on values (the
rewrites are on by default or in the tuner's space only because of
that), under both descriptors, where fused and lockstep must also agree
on every clock, count and trace event.  The properties at the top drive
the entry points directly, so hypothesis can hand them what no MATLAB
source spells conveniently (NaN, ±Inf, signed zeros, denormals, complex
values, blocks that hold nothing); the programs below them go through
the compiler and are compared with the interpreter as well."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.errors import MatlabRuntimeError, OtterError
from repro.frontend.mfile import DictProvider
from repro.interp.interpreter import run_source
from repro.mpi import MEIKO_CS2, run_spmd
from repro.runtime.context import RuntimeContext
from repro.runtime.matrix import DMatrix
from repro.trace import canonical_events
from repro.tuning import DEFAULT_PLAN, FUSION_REWRITES, Plan
from tests.corpus import shipped_programs

BACKENDS = ("lockstep", "fused")
RANKS = (1, 2, 3, 4, 7, 16)
SCHEMES = ("block", "cyclic")
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310, 1e300)
#: pass 6 as it was before the three rewrites
OLD_SCHEDULE = ("transpose_matmul", "cse")


def bits(value):
    """The value's bytes with every NaN made the same NaN (which
    operand's NaN an x86 add or multiply returns is the compiler's
    choice of operand order; MATLAB cannot observe it)."""
    array = np.array(value)
    for part in (array.real, array.imag) if array.dtype.kind == "c" \
            else (array,):
        if part.dtype.kind == "f":
            part[np.isnan(part)] = np.nan
    return array.dtype.kind, array.shape, array.tobytes()


def charged(spmd):
    """Everything the modeled machine charged, and the event stream."""
    return (tuple(spmd.times), spmd.messages_sent, spmd.bytes_sent,
            spmd.collectives, tuple(sorted(spmd.collective_counts.items())),
            hashlib.sha256(canonical_events(spmd.trace).encode())
            .hexdigest())


def tally(rt):
    """Collectives so far (one rank's are tallied without a rendezvous,
    so ``world.collectives`` alone would miss them)."""
    return sum(rt.comm.world.collective_counts.values())


def on_every_backend(body, nprocs, scheme):
    """``body(rt)`` under both backends: its (replicated) result, once —
    the backends must agree on it and on the accounting."""
    outcomes = []
    for backend in BACKENDS:
        def rank_main(comm):
            rt = RuntimeContext(comm, seed=1, scheme=scheme)
            try:
                return [rt.to_interp_value(v) for v in body(rt)]
            finally:
                rt.close()

        spmd = run_spmd(nprocs, MEIKO_CS2, rank_main, backend=backend,
                        trace=True)
        assert spmd.backend == backend
        outcomes.append(([bits(v) for v in spmd.results[0]], charged(spmd)))
    assert outcomes[0] == outcomes[1], "fused and lockstep disagree"
    return outcomes[0][0]


@st.composite
def arrays(draw, min_rows=1, min_cols=1):
    """A real or complex array salted with the values that break
    reassociation, a rank count and a distribution scheme."""
    rows = draw(st.integers(min_rows, 40))
    cols = draw(st.integers(min_cols, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from((0, 5, 300)))
    special = draw(st.sampled_from((0.0, 0.05, 0.4)))

    def reals():
        shape = (rows, cols)
        out = rng.choice((-1.0, 1.0), shape) * rng.uniform(1.0, 10.0, shape) \
            * 10.0 ** rng.integers(-spread, spread, shape, endpoint=True)
        return np.where(rng.random(shape) < special,
                        rng.choice(SPECIALS, shape), out)

    with np.errstate(all="ignore"):
        array = reals() + 1j * reals() if draw(st.booleans()) else reals()
    return (array, draw(st.sampled_from(RANKS)),
            draw(st.sampled_from(SCHEMES)))


# -- reduce2 ---------------------------------------------------------------- #

#: the ops ``reduce2`` lands for: every one the property below passes
NESTED = ("sum", "prod", "max", "min", "any", "all")


@settings(max_examples=60, deadline=None)
@given(case=arrays(), name=st.sampled_from(NESTED))
def test_reduce2_is_the_two_calls_bit_for_bit(case, name):
    """Matrices (rows < P and blocks that hold nothing included) take
    the one-allreduce path, vectors and scalars the two calls."""
    array, nprocs, scheme = case
    if name in ("max", "min"):
        array = array.real      # MATLAB orders complex by modulus: not here

    def body(rt):
        a = rt.distribute_full(array)
        with np.errstate(all="ignore"):
            return (rt.reduce2(name, a),
                    rt.call_builtin(name, [rt.call_builtin(name, [a])]))

    one_call, two_calls = on_every_backend(body, nprocs, scheme)
    assert one_call == two_calls


@pytest.mark.parametrize("nprocs", RANKS)
@pytest.mark.parametrize("name", NESTED)
def test_reduce2_saves_exactly_the_second_collective(name, nprocs):
    """One allreduce (of the partial row) where there were two; ``any``
    and ``all`` also lose the second test's loop."""
    array = np.random.default_rng(3).uniform(-1, 1, (23, 5))
    counts = {}
    for form in ("one", "two"):
        def body(rt):
            a = rt.distribute_full(array)
            before = tally(rt)
            if form == "one":
                rt.reduce2(name, a)
            else:
                rt.call_builtin(name, [rt.call_builtin(name, [a])])
            return (float(tally(rt) - before),)

        counts[form] = on_every_backend(body, nprocs, "block")
    assert counts["one"] == [bits(1.0)] and counts["two"] == [bits(2.0)]


# -- reduce_batch ----------------------------------------------------------- #

BATCHED = ("sum", "mean", "max", "min", "prod")


@settings(max_examples=60, deadline=None)
@given(case=arrays(), name=st.sampled_from(BATCHED),
       k=st.integers(2, 4), column=st.booleans())
def test_reduce_batch_is_the_separate_calls_bit_for_bit(case, name, k,
                                                        column):
    """k vectors cut from one array (real ones share an allreduce;
    complex ones, and a batch a scalar or a matrix strays into, fall
    back to the separate calls)."""
    array, nprocs, scheme = case
    if name in ("max", "min"):
        array = array.real
    flat = array.reshape(-1)
    pieces = [np.roll(flat, 3 * j) for j in range(k)]
    pieces = [p.reshape(-1, 1) if column else p.reshape(1, -1)
              for p in pieces]
    if array.shape[0] % 5 == 0:
        pieces[-1] = array      # a stray matrix (or the 1 x 1 scalar)

    def body(rt):
        values = [rt.distribute_full(p) for p in pieces]
        with np.errstate(all="ignore"):
            batched = rt.reduce_batch(name, values)
            separate = [rt.call_builtin(name, [v]) for v in values]
        return (*batched, *separate)

    out = on_every_backend(body, nprocs, scheme)
    assert out[:k] == out[k:]


@pytest.mark.parametrize("nprocs", RANKS)
def test_reduce_batch_is_one_collective(nprocs):
    vectors = [np.random.default_rng(j).uniform(-1, 1, (1, 50))
               for j in range(3)]

    def body(rt):
        values = [rt.distribute_full(v) for v in vectors]
        before = tally(rt)
        rt.reduce_batch("mean", values)
        return (float(tally(rt) - before),)

    assert on_every_backend(body, nprocs, "block") == [bits(1.0)]


# -- the immediate shift ---------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(case=arrays(), kr=st.integers(-50, 50), kc=st.integers(-12, 12))
def test_immediate_shift_is_the_gathered_one_without_the_gather(case, kr, kc):
    array, nprocs, scheme = case

    def body(rt):
        a = rt.distribute_full(array)
        shift = rt.from_literal([[float(kr), float(kc)]])
        before = tally(rt)
        by_value = rt.call_builtin("circshift",
                                   [a, ((float(kr), float(kc)),)])
        between = tally(rt)
        gathered = rt.call_builtin("circshift", [a, shift])
        extra = (tally(rt) - between) - (between - before)
        return by_value, gathered, float(extra)

    by_value, gathered, extra = on_every_backend(body, nprocs, scheme)
    assert by_value == gathered
    assert extra == bits(1.0)       # the argument's allgather


# -- through the compiler --------------------------------------------------- #

PROGRAMS = {
    "nested": """\
rand('seed', 5);
A = rand({rows}, {cols}) - 0.5;
s = sum(sum(A));
p = prod(prod(1 + A ./ 8));
hi = max(max(abs(A)));
lo = min(min(A));
some = any(any(A > 0.45));
every = all(all(A > -0.45));
v = sum(sum(A(:, 1)));
""",
    "batched": """\
rand('seed', 6);
x = rand({rows}, 1); y = rand({rows}, 1); z = rand(1, {rows}) - 0.5;
cx = mean(x);
cy = mean(y);
cz = mean(z);
top = max(x);
tip = max(z);
a = sum(x);
b = sum(a * y);
""",
    "shifted": """\
rand('seed', 7);
A = rand({rows}, {cols});
sh = [1, 0];
B = circshift(A, sh);
C = circshift(A, [0, -1]);
D = circshift(circshift(A, [-2, 1]), sh);
""",
}


def assert_matches_the_interpreter(got, want, context):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, context
    # a distributed sum adds in another order than numpy's pairwise one
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12), context


@pytest.mark.parametrize("key", sorted(PROGRAMS))
@pytest.mark.parametrize("nprocs", RANKS)
@pytest.mark.parametrize("rows, cols", [(24, 5), (3, 4)])
def test_rewritten_programs_equal_the_unrewritten_ones(key, nprocs, rows,
                                                       cols):
    """Every registry rewrite on against pass 6 as it was: values bit
    for bit (interpreter-close), fused == lockstep on the accounting,
    and never more collectives."""
    source = PROGRAMS[key].format(rows=rows, cols=cols)
    oracle = run_source(source).workspace
    plans = {"new": Plan(fusion=FUSION_REWRITES),
             "old": Plan(fusion=OLD_SCHEDULE)}
    programs = {label: compile_source(source, name=key, plan=plan)
                for label, plan in plans.items()}
    assert programs["new"].peephole_stats.fired().keys() \
        - set(OLD_SCHEDULE), "no new rewrite fired"
    for scheme in SCHEMES:
        for native in ("off", "auto"):
            values, collectives = {}, {}
            for label, program in programs.items():
                runs = [program.run(
                    nprocs=nprocs, machine=MEIKO_CS2, backend=backend,
                    native=native, trace=True,
                    plan=Plan(scheme=scheme, fusion=plans[label].fusion))
                    for backend in BACKENDS]
                assert [r.spmd.backend for r in runs] == list(BACKENDS)
                assert charged(runs[0].spmd) == charged(runs[1].spmd), \
                    (label, scheme, native)
                for run in runs:
                    for name, want in oracle.items():
                        assert_matches_the_interpreter(
                            run.workspace[name], want, (name, label, scheme))
                assert [bits(runs[0].workspace[n]) for n in oracle] \
                    == [bits(runs[1].workspace[n]) for n in oracle]
                values[label] = {n: bits(runs[1].workspace[n])
                                 for n in oracle}
                collectives[label] = runs[1].spmd.collectives
            assert values["new"] == values["old"], (scheme, native)
            assert collectives["new"] <= collectives["old"]
            if nprocs > 1:
                assert collectives["new"] < collectives["old"]


@pytest.mark.parametrize("shift, message", [
    ("[1, 2, 3]", "circshift: shift must be a scalar or a two-element vector"),
    ("[0.5, 0]", "circshift: expected an integer"),
])
@pytest.mark.parametrize("form", ["sh = {shift};\nB = circshift(A, sh);",
                                  "B = circshift(A, {shift});"])
def test_bad_constant_shift_fails_where_and_as_it_always_did(shift, message,
                                                             form):
    """The oracle and the run-time library refuse it in the same words,
    and ``const_args`` leaves the call exactly as pass 6 used to: the
    program that reaches the refusal is byte for byte the old one."""
    source = "A = rand(4, 4);\ndisp(1);\n" + form.format(shift=shift) \
        + "\ndisp(2);"
    with pytest.raises(MatlabRuntimeError, match=message):
        run_source(source)
    program = compile_source(source)
    assert program.peephole_stats.counts["const_args"] == 0
    assert program.python_source == compile_source(
        source, plan=Plan(fusion=OLD_SCHEDULE)).python_source
    for backend in BACKENDS:
        with pytest.raises(OtterError, match=message):
            program.run(nprocs=4, backend=backend)


SHIPPED = {label: program for label, program in shipped_programs().items()
           if not label.endswith("@paper")}


@pytest.mark.parametrize("label", sorted(SHIPPED))
def test_shipped_programs_print_and_hold_what_they_always_did(label):
    """Every program the repo ships (the paper-scale sizes aside), under
    the default plan and with every rewrite on, against pass 6 as it
    was: the same printed output and the same workspace, bit for bit."""
    source, mfiles = SHIPPED[label]
    provider = DictProvider(mfiles)
    programs = {fusion: compile_source(source, provider=provider, name="p",
                                       plan=Plan(fusion=fusion))
                for fusion in (OLD_SCHEDULE, DEFAULT_PLAN.fusion,
                               FUSION_REWRITES)}
    for nprocs, backends in ((1, ("fused",)), (4, BACKENDS), (16, ("fused",))):
        for backend in backends:
            held = []
            for fusion, program in programs.items():
                run = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                                  backend=backend, plan=Plan(fusion=fusion))
                held.append((run.output, {name: bits(value) for name, value
                                          in run.workspace.items()}))
            assert held[1] == held[0], ("default plan", nprocs, backend)
            assert held[2] == held[0], ("every rewrite", nprocs, backend)


def test_default_plan_runs_the_rewrites_that_bend_no_figure():
    assert DEFAULT_PLAN.fusion == ("transpose_matmul", "cse", "const_args",
                                   "reduce2")
    assert set(FUSION_REWRITES) - set(DEFAULT_PLAN.fusion) \
        == {"batch_reduce"}


def test_a_stray_operand_never_reaches_the_fused_arms():
    """What the compiler cannot rule out, the entry points sort out at
    run time: strings and replicated values take the builtin's own
    path (and its own error)."""
    def body(rt):
        a = rt.distribute_full(np.arange(12.0).reshape(3, 4))
        assert isinstance(a, DMatrix)
        return (rt.reduce2("sum", 3.0), rt.reduce2("max", 2.0 + 0j),
                *rt.reduce_batch("sum", [a, 4.0]))

    out = on_every_backend(body, 4, "block")
    assert out[:2] == [bits(3.0), bits(2.0)]
    assert out[-1] == bits(4.0)
