"""Pass 6's ``ew_group``: a run of elementwise statements is one native
loop, and nothing else about the program changes.

Generated runs of 2–12 statements — members that read earlier members,
``x = x + 1``, a variable assigned twice, dead temporaries, scalars mixed
into array arithmetic, a ``sqrt`` of negatives in the middle member,
shapes that split the run and a distribution that splits its operands,
over random values and over the probe's special values — each compiled
with and without the rewrite, at P ∈ {1, 2, 3, 4, 7, 16} × {block,
cyclic} × {fused native auto, fused native off, lockstep}: output,
workspace bytes, per-rank clocks, message counts, canonical trace and
``peak_local_bytes`` are the same.  On the fused native runs each group
that ran is one native call in place of its members' calls, and a
kernel fails its first-call verification only over a NaN: gcc may fold
``fabs(x * x)`` to ``x * x``, which keeps a NaN's sign bit, and NaN
bits are outside the tier's contract (docs/NATIVE.md) — the reject is
what keeps them out of the results.

Loops whose body is one group (``loop_group``) run with and without
the row, traced and untraced: the same observables, the iterations
before the last in one native call where it fires — also when a guard
fires inside that call — and a replay of the charges out of order is
caught.
"""

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler import compile_source
from repro.ir.nodes import EwGroup
from repro.mpi import MEIKO_CS2
from repro.native import get_engine, reset_engines
from repro.native.engine import group_reference, probe_samples
from repro.trace import canonical_events
from repro.tuning import DEFAULT_PLAN, Plan

WITHOUT = tuple(name for name in DEFAULT_PLAN.fusion if name != "ew_group")
#: the group of ``ew_group`` alone: no halo taps, every member an array
#: on every iteration
GROUP_ONLY = tuple(name for name in DEFAULT_PLAN.fusion
                   if name not in ("halo", "lean"))
MODES = (("fused", "auto"), ("fused", "off"), ("lockstep", "off"))


def _literal(values) -> str:
    def one(v):
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "-0" if v == 0 and np.signbit(v) else repr(float(v))
    return "[" + ", ".join(one(v) for v in values) + "]"


#: the probe's special values (zeros of both signs, infinities, NaN,
#: the extremes, denormals, ...) and a few of its random ones
SPECIALS = probe_samples("all")[0][-30:]

_FNS = ("sqrt", "abs")
_OPS = ("+", "-", ".*", "./", ">")


@st.composite
def programs(draw):
    """A script: inputs ``a``, ``b`` of one shape, a scalar ``s``, a
    matrix ``m`` of another shape, then the run."""
    specials = draw(st.booleans())
    if specials:
        rows, cols = 1, len(SPECIALS)
        inputs = (f"a = {_literal(SPECIALS)};\n"
                  f"b = {_literal(np.roll(SPECIALS, 7))};\n")
    else:
        rows = draw(st.integers(1, 9))
        cols = draw(st.integers(2, 9))
        inputs = f"a = rand({rows}, {cols});\nb = rand({rows}, {cols});\n"
    head = (f"rand('seed', {draw(st.integers(0, 99))});\ns = 0.75;\n"
            f"m = rand({rows}, {cols + 1});\n{inputs}")
    size = draw(st.integers(2, 12))
    middle = size // 2 if draw(st.integers(0, 2)) == 0 else -1
    names = ["a", "b"]          # arrays a member may read
    lines = []
    for k in range(size):
        if k == middle:
            lines.append(f"r{k} = sqrt(a - 0.5);")
            names.append(f"r{k}")
            continue
        kind = draw(st.sampled_from(
            ["binary"] * 4 + ["scalar", "fn", "minmax"] * 2
            + ["nested", "self", "redefine", "other_shape", "scalar_only"]))
        x = draw(st.sampled_from(names))
        y = draw(st.sampled_from(names))
        op = draw(st.sampled_from(_OPS))
        dest = f"t{k}"
        if kind == "binary":
            expr = f"{x} {op} {y}"
        elif kind == "scalar":
            expr = draw(st.sampled_from(
                [f"s {op} {x}", f"{x} {op} s", f"2 .* {x} + s"]))
        elif kind == "fn":         # (a guard that fires is the middle's)
            expr = f"{draw(st.sampled_from(_FNS))}(abs({x} {op} {y}))"
        elif kind == "minmax":
            other = draw(st.sampled_from([y, "s", "0.5"]))
            expr = f"{draw(st.sampled_from(['min', 'max']))}({x}, {other})"
        elif kind == "nested":     # min's value is a dead temporary
            expr = f"max(min({x}, 1), {y})"
        elif kind == "self":       # x = x + 1
            dest, expr = x, f"{x} + 1"
        elif kind == "redefine":   # a name the run already assigned
            dest, expr = draw(st.sampled_from(names)), f"{x} .* {y}"
        elif kind == "other_shape":     # splits the run
            dest, expr = f"w{k}", "m .* 2"
        else:                      # a scalar statement splits it too
            dest, expr = f"q{k}", "s * 2"
        lines.append(f"{dest} = {expr};")
        if kind not in ("other_shape", "scalar_only") and dest not in names:
            names.append(dest)
    tail = "fprintf('%d %d\\n', numel(a), numel(m));\n"
    return head + "\n".join(lines) + "\n" + tail


def _observed(result):
    spmd = result.spmd
    return (result.output, tuple(t.hex() for t in spmd.times),
            spmd.messages_sent, spmd.bytes_sent, spmd.collectives,
            sorted(spmd.collective_counts.items()),
            None if result.trace is None else
            hashlib.sha256(canonical_events(result.trace).encode())
            .hexdigest(),
            {name: (np.asarray(value).dtype.str,
                    np.asarray(value).tobytes())
             for name, value in result.workspace.items()},
            tuple(result.peak_local_bytes), spmd.backend)


def _nan(*arrays) -> bool:
    return any(np.isnan(np.asarray(a, dtype=complex)).any() for a in arrays)


@contextmanager
def group_calls():
    """The member counts of the group kernels that ran (a list), and
    for each kernel a first-call verification rejected, whether its
    numpy values hold a NaN (``ran.nan_rejects``)."""
    engine = get_engine()
    ran = Calls()
    run_group, run = engine.run_group, engine.run

    def rejected(call):
        before = engine.stats.snapshot()["verify_rejects"]
        value = call()
        return value, engine.stats.snapshot()["verify_rejects"] > before

    def grouped(gspec, sig, args, *rest):
        outs, reject = rejected(lambda: run_group(gspec, sig, args, *rest))
        if outs is not None:
            ran.append(len(gspec))
        if reject:
            ran.nan_rejects.append(_nan(*group_reference(gspec, args)))
        return outs

    def single(spec, args, reference=None, spare=None):
        out, reject = rejected(lambda: run(spec, args, reference, spare))
        if reject:
            with np.errstate(all="ignore"):
                ran.nan_rejects.append(_nan(reference(*args)))
        return out

    engine.run_group, engine.run = grouped, single
    try:
        yield ran
    finally:
        del engine.run_group, engine.run


class Calls(list):
    def __init__(self):
        super().__init__()
        self.nan_rejects = []


def _run(program, plan, nprocs, backend, native):
    with group_calls() as ran:
        result = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                             backend=backend, native=native, plan=plan,
                             trace=True)
    return result, ran


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(programs(), st.sampled_from([1, 2, 3, 4, 7, 16]),
       st.sampled_from(["block", "cyclic"]), st.booleans())
def test_a_group_changes_nothing_but_the_native_calls(native_build, source,
                                                      nprocs, scheme, split):
    """Under the flags this host's kernels are built with, and the
    baseline flags (``native_build``: the engine ``auto`` resolves to)."""
    check_group_runs(source, nprocs, scheme, split)


def check_group_runs(source, nprocs, scheme, split):
    """The example runs on an engine of its own: a kernel that an
    earlier test or example blacklisted would make no native call among
    the members and break the count below."""
    reset_engines()
    other = "cyclic" if scheme == "block" else "block"
    dist = (("a", other),) if split else ()
    grouped = Plan(scheme=scheme, dist=dist)
    plain = Plan(scheme=scheme, dist=dist, fusion=WITHOUT)
    program = compile_source(source, plan=grouped)
    baseline = compile_source(source, plan=plain)
    assert program.peephole_stats.counts["ew_group"] == sum(
        isinstance(stmt, EwGroup) for block in program.ir.walk()
        for stmt in block)
    for backend, native in MODES:
        got, ran = _run(program, grouped, nprocs, backend, native)
        want, none = _run(baseline, plain, nprocs, backend, native)
        assert _observed(got) == _observed(want), (backend, native)
        assert not none
        if (backend, native) != ("fused", "auto") or got.native is None:
            assert not ran      # ``rt.grouped`` kept the call away
            continue
        assert all(ran.nan_rejects) and all(none.nan_rejects)
        if not (ran.nan_rejects or none.nan_rejects):
            # one native call per group run, where its members made one
            # each
            assert got.native["native_calls"] == \
                want.native["native_calls"] - sum(n - 1 for n in ran)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow
def test_a_kernel_blacklisted_before_the_example_moves_no_count():
    """The NaN example after ``a .* b``'s kernel was blacklisted by an
    earlier run in this process."""
    engine = get_engine()
    if not engine.available:
        pytest.skip(engine.unavailable_reason)
    engine._kernel_for((".*", "@0", "@1"), "aa").blacklisted = True
    source = (f"rand('seed', 1);\ns = 0.75;\n"
              f"m = rand(1, {len(SPECIALS) + 1});\n"
              f"a = {_literal(SPECIALS)};\n"
              f"b = {_literal(np.roll(SPECIALS, 7))};\n"
              "t0 = a .* b;\nt1 = t0 + a;\nt2 = max(t1, b);\n"
              "fprintf('%d %d\\n', numel(a), numel(m));\n")
    check_group_runs(source, 4, "block", False)


IMAGE_STEP = """
rand('seed', 3);
img = rand(24, 20);
tau = 0.08;
for k = 1:3
    north = circshift(img, [-1, 0]);
    south = circshift(img, [1, 0]);
    blur = (north + south) ./ 4 + img ./ 2;
    mag = sqrt((south - north) .* (south - north));
    edges = mag > tau;
    img = max(min(edges .* blur + (1 - edges) .* img, 1), 0);
end
"""


def _group_count(program):
    return sum(isinstance(stmt, EwGroup) for block in program.ir.walk()
               for stmt in block)


def test_every_step_is_one_native_call():
    program = compile_source(IMAGE_STEP, plan=Plan(fusion=GROUP_ONLY))
    assert _group_count(program) == 1
    with group_calls() as ran:
        result = program.run(nprocs=4, backend="fused", native="auto")
    if result.native is None:
        pytest.skip("native tier unavailable")
    assert ran == [6, 6, 6]
    assert result.native["native_calls"] == 3


def test_a_guard_that_fires_runs_every_member_through_ew():
    """``sqrt`` of a negative in the middle member: the kernel's flag
    says so at the end, and every member runs as it would alone — the
    complex value included."""
    source = ("rand('seed', 4);\na = rand(5, 6) - 0.5;\nb = a + 1;\n"
              "c = sqrt(a);\nd = c .* 2;\n")
    program = compile_source(source)
    baseline = compile_source(source, plan=Plan(fusion=WITHOUT))
    assert _group_count(program) == 1
    got, ran = _run(program, None, 4, "fused", "auto")
    want, _ = _run(baseline, Plan(fusion=WITHOUT), 4, "fused", "auto")
    assert ran == []
    assert np.iscomplexobj(got.workspace["d"])
    assert _observed(got) == _observed(want)


def test_a_rank_varying_operand_runs_lockstep_with_or_without_groups():
    """``toc`` differs per rank: a program that reads it runs on
    lockstep from the start, grouped or not, and both agree."""
    source = ("tic;\nx = ones(6, 4);\ny = x + 1;\nt = toc;\n"
              "z = y .* t;\nw = z + x;\n")
    runs = []
    for plan in (None, Plan(fusion=WITHOUT)):
        program = compile_source(source, plan=plan)
        runs.append(program.run(nprocs=4, backend="fused", native="auto",
                                trace=True))
    assert [run.spmd.backend for run in runs] == ["lockstep", "lockstep"]
    assert _observed(runs[0]) == _observed(runs[1])


def test_an_output_is_written_into_the_dying_value_it_replaces():
    """From the second step on, every member but the one whose old value
    a member reads (``img``) writes into its destination's old array —
    so a group holds no more buffers than its statements did."""
    engine = get_engine()
    program = compile_source(IMAGE_STEP, plan=Plan(fusion=GROUP_ONLY))
    reused = []
    run_group = engine.run_group

    def spying(gspec, sig, args, values, shape, bufs, *rest):
        reused.append(sum(buf is not None for buf in bufs))
        return run_group(gspec, sig, args, values, shape, bufs, *rest)

    engine.run_group = spying
    try:
        result = program.run(nprocs=4, backend="fused", native="auto")
    finally:
        del engine.run_group
    if result.native is None:
        pytest.skip("native tier unavailable")
    # members: blur, mag, edges, two temporaries (the second, min's,
    # dead after the group) and img, whose old value blur reads
    assert reused == [0, 5, 5]


def test_an_aliased_old_value_is_never_written_into():
    """``keep = blur`` holds the descriptor ``blur`` is about to lose:
    its array must come through the group untouched."""
    source = ("rand('seed', 6);\nx = rand(8, 8);\nblur = x .* 2;\n"
              "for k = 1:3\n    keep = blur;\n    blur = x + k;\n"
              "    y = blur .* 3;\nend\n")
    program = compile_source(source)
    assert _group_count(program) == 1
    result = program.run(nprocs=4, backend="fused", native="auto")
    oracle = program.run(nprocs=4, backend="lockstep", native="off")
    for name in ("keep", "blur", "y"):
        assert np.asarray(result.workspace[name]).tobytes() == \
            np.asarray(oracle.workspace[name]).tobytes(), name


# ---------------------------------------------------------------------- #
# halo taps and lean iterations
# ---------------------------------------------------------------------- #

#: the plan without the two rows that change a group's members and arrays
PLAIN_GROUPS = tuple(name for name in DEFAULT_PLAN.fusion
                     if name not in ("halo", "lean"))
#: the plan whose loops run every iteration through its own group call
UNBATCHED = tuple(name for name in DEFAULT_PLAN.fusion
                  if name != "loop_group")


@st.composite
def loop_programs(draw, alone=False):
    """A ``for`` loop over arrays of one shape (a matrix, a row or a
    column vector) whose body mixes ``circshift`` by constants — rows,
    columns, both, a scalar, now and then one past a block — with
    elementwise and ``min``/``max`` statements; some members are read
    after the run in the body, one before it (the next iteration sees
    it), some by a group under an ``if`` or an inner ``for``, and some
    only after the loop.  With ``alone``, the body is shifts and
    elementwise statements only — often one group, which is all the
    loop does — and the loop runs 1, 2, 3 or 16 times."""
    shape = draw(st.sampled_from(["matrix", "row", "column"]))
    rows = 1 if shape == "row" else draw(st.integers(2, 9))
    cols = 1 if shape == "column" else draw(st.integers(2, 9))
    steps = draw(st.sampled_from([1, 2, 3, 16]) if alone
                 else st.integers(1, 4))
    head = (f"rand('seed', {draw(st.integers(0, 99))});\n"
            f"a = rand({rows}, {cols});\nb = rand({rows}, {cols});\n"
            f"s = 0.75;\nq = 0;\ne0 = a;\nc = a;\n")
    shift = st.integers(-2, 2) | st.sampled_from([7, -9, 13])
    size = draw(st.integers(2, 9))
    names = ["a", "b"]          # arrays a member may read
    exposed = not alone and draw(st.booleans())
    body = ["    u = e0 .* 0.5;"] if exposed else []
    for k in range(size):
        kind = draw(st.sampled_from(
            ["tap"] * 4 + ["binary"] * 3 + ["minmax", "self"]
            + ([] if alone else ["reduce", "nested"])))
        x = draw(st.sampled_from(names))
        y = draw(st.sampled_from(names))
        dest = f"t{k}"
        if kind == "tap":
            form = draw(st.sampled_from(["rows", "cols", "both", "scalar"]))
            dr, dc = draw(shift), draw(shift)
            amount = {"rows": f"[{dr}, 0]", "cols": f"[0, {dc}]",
                      "both": f"[{dr}, {dc}]", "scalar": f"{dr}"}[form]
            # (a source from before the loop: a tap never reads a
            # member's value)
            expr = f"circshift({draw(st.sampled_from(['a', 'b']))}, {amount})"
        elif kind == "binary":
            op = draw(st.sampled_from(_OPS))
            expr = f"{x} {op} {y}"
        elif kind == "minmax":
            expr = f"max(min({x}, 1), {y})"
        elif kind == "self":        # the next iteration reads it
            dest, expr = "b", f"{x} .* 0.25 + b .* 0.5"
        elif kind == "reduce":     # read after the run, in the body
            body.append(f"    q = q + sum(sum({x}));")
            continue
        else:       # the newest member, read by a nested block's group
            head_line = draw(st.sampled_from(
                ["if k > 1", "if k < 3", "for j = 1:2"]))
            body += [f"    {head_line}",
                     f"        c = c .* 0.5 + {names[-1]};",
                     f"        c = c - {y} .* 0.25;", "    end"]
            continue
        body.append(f"    {dest} = {expr};")
        if dest not in names:
            names.append(dest)
    if exposed:
        body.append(f"    e0 = {names[-1]} + 1;")
    # (``a`` changes on every iteration: no tap of it is invariant)
    body.append(f"    a = a .* 0.5 + {names[-1]} .* 0.25;")
    tail = "fprintf('%.17g\\n', q);\n"
    return (head + f"for k = 1:{steps}\n" + "\n".join(body) + "\nend\n"
            + tail)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=12, deadline=None)
@given(loop_programs(), st.sampled_from([1, 2, 3, 4, 7, 16]),
       st.sampled_from(["block", "cyclic"]))
def test_halo_taps_and_lean_iterations_change_nothing_observed(
        source, nprocs, scheme):
    plan = Plan(scheme=scheme)
    plain = Plan(scheme=scheme, fusion=PLAIN_GROUPS)
    program = compile_source(source, plan=plan)
    baseline = compile_source(source, plan=plain)
    for backend, native in MODES:
        got, _ = _run(program, plan, nprocs, backend, native)
        want, _ = _run(baseline, plain, nprocs, backend, native)
        assert _observed(got) == _observed(want), (backend, native)


def _same_with_and_without_batches(source, nprocs, scheme):
    """Every observable of ``source`` is the same with ``loop_group``
    and without, on every backend."""
    plan = Plan(scheme=scheme)
    unbatched = Plan(scheme=scheme, fusion=UNBATCHED)
    program = compile_source(source, plan=plan)
    baseline = compile_source(source, plan=unbatched)
    for backend, native in MODES:
        for trace in (False, True):
            got = program.run(nprocs=nprocs, machine=MEIKO_CS2,
                              backend=backend, native=native, plan=plan,
                              trace=trace)
            want = baseline.run(nprocs=nprocs, machine=MEIKO_CS2,
                                backend=backend, native=native,
                                plan=unbatched, trace=trace)
            assert _observed(got) == _observed(want), (backend, native,
                                                       trace)
            if got.native is not None:
                assert got.native["native_calls"] <= \
                    want.native["native_calls"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=12, deadline=None)
@given(loop_programs(alone=True), st.sampled_from([1, 2, 3, 4, 7, 16]),
       st.sampled_from(["block", "cyclic"]))
def test_a_loop_of_one_group_changes_nothing_observed(source, nprocs,
                                                      scheme):
    _same_with_and_without_batches(source, nprocs, scheme)


def _one_group(program):
    groups = [stmt for block in program.ir.walk() for stmt in block
              if isinstance(stmt, EwGroup)]
    assert len(groups) == 1
    return groups[0]


def test_an_image_step_reads_its_image_once_and_writes_it_once():
    """The filter step's shifts are taps of its one group, every member
    but ``img`` an array only on the last iteration and the temporaries
    on none: each step is one native call, the last one the full
    kernel, and no shift runs on its own.  (Without ``loop_group``,
    which would run the steps before the last in one call.)"""
    from repro.runtime import structural

    program = compile_source(IMAGE_STEP, plan=Plan(fusion=UNBATCHED))
    group = _one_group(program)
    assert len(group.members) == 8
    # north, south, blur, mag, edges; the blend and min's temporaries; img
    assert group.live == (1,) * 5 + (0, 0, 2)
    engine = get_engine()
    calls, rotations = [], []
    run_group, rotated = engine.run_group, structural._rotated

    def spying(gspec, sig, args, values, shape, bufs, spare, outs=None,
               shifts=()):
        calls.append((outs, len(shifts)))
        return run_group(gspec, sig, args, values, shape, bufs, spare,
                         outs, shifts)

    engine.run_group = spying
    structural._rotated = lambda *a: rotations.append(a) or rotated(*a)
    try:
        result = program.run(nprocs=4, backend="fused", native="auto")
    finally:
        del engine.run_group
        structural._rotated = rotated
    if result.native is None:
        pytest.skip("native tier unavailable")
    assert calls == [((7,), 4)] * 2 + [((0, 1, 2, 3, 4, 7), 4)]
    assert rotations == []
    oracle = program.run(nprocs=4, backend="lockstep", native="off")
    for name, value in oracle.workspace.items():
        assert np.asarray(result.workspace[name]).tobytes() == \
            np.asarray(value).tobytes(), name


def test_a_shift_that_would_gather_refuses_the_group():
    """Under a cyclic map a row shift gathers: the group steps aside and
    every member runs as its own statement, the shift included."""
    program = compile_source(IMAGE_STEP, plan=Plan(scheme="cyclic"))
    with group_calls() as ran:
        result = program.run(nprocs=4, backend="fused", native="auto",
                             plan=Plan(scheme="cyclic"))
    assert ran == []
    oracle = program.run(nprocs=4, backend="lockstep", native="off",
                         plan=Plan(scheme="cyclic"))
    assert result.output == oracle.output
    assert [t.hex() for t in result.spmd.times] == \
        [t.hex() for t in oracle.spmd.times]


@pytest.mark.parametrize("body, live", [
    # read after the group in the body: live on every iteration
    ("    n = circshift(x, 1);\n    y = n + x;\n    z = sum(sum(n));\n",
     (2, 1)),
    # read before the group (the next iteration): live too
    ("    w = sum(sum(y));\n    n = circshift(x, 1);\n    y = n + x;\n",
     (1, 2)),
    # assigned twice in the group: the first value has no array
    ("    n = circshift(x, 1);\n    y = n + x;\n    y = y .* n;\n",
     (1, 0, 1)),
])
def test_what_a_later_statement_reads_keeps_its_array(body, live):
    """(``x`` changes on every iteration, so nothing is hoisted.)"""
    source = ("x = ones(6, 4);\ny = x;\nfor k = 1:3\n    x = x .* 0.5;\n"
              + body + "end\n")
    assert _one_group(compile_source(source)).live == live


@pytest.mark.parametrize("nest", [
    ("if k > 1", ""), ("for j = 1:2", ""), ("while c(1) < 0", "c = c + 1;"),
])
def test_what_a_nested_group_reads_keeps_its_array(nest):
    """A group under an ``if`` or an inner loop reads the top-level
    group's ``y`` through its members: ``y`` is an array on every
    iteration, and the loop computes what it computed without ``lean``."""
    head, extra = nest
    source = ("x = ones(6, 4);\nc = zeros(6, 4);\nfor k = 1:3\n"
              "    x = x .* 0.5;\n    y = x + 1;\n"
              f"    {head}\n        {extra}\n        c = c + y;\n"
              "        d = c .* 2;\n    end\nend\n")
    program = compile_source(source)
    groups = [stmt for stmt in program.ir.body[-1].body
              if isinstance(stmt, EwGroup)]
    assert len(groups) == 1 and groups[0].live is None
    plain = Plan(fusion=PLAIN_GROUPS)
    baseline = compile_source(source, plan=plain)
    for backend, native in MODES:
        got, _ = _run(program, DEFAULT_PLAN, 4, backend, native)
        want, _ = _run(baseline, plain, 4, backend, native)
        assert _observed(got) == _observed(want), (backend, native)


@pytest.mark.parametrize("exit", ["break", "continue", "return"])
def test_a_loop_that_can_end_early_is_never_lean(exit):
    source = ("x = ones(6, 4);\nfor k = 1:3\n    x = x .* 0.5;\n"
              "    n = circshift(x, 1);\n    y = n + x;\n"
              f"    if k > 1\n        {exit};\n    end\nend\n")
    assert _one_group(compile_source(source)).live is None


def test_a_tap_of_both_dimensions_holds_what_circshift_held():
    """``circshift(x, [1 2])`` makes its column step's array before its
    row step's: the tap's statement holds one for as long, so the peak
    of the step it tops is the same."""
    source = ("x = ones(8, 6);\nfor k = 1:3\n    n = circshift(x, [1, 2]);\n"
              "    y = n + x;\n    x = y .* 0.5;\nend\n")
    plain = Plan(fusion=PLAIN_GROUPS)
    got = compile_source(source).run(nprocs=4, backend="fused",
                                     native="auto")
    want = compile_source(source, plan=plain).run(
        nprocs=4, backend="fused", native="auto", plan=plain)
    assert _one_group(compile_source(source)).members[0].op == \
        "builtin:circshift"
    assert got.peak_local_bytes == want.peak_local_bytes
    assert got.workspace.keys() == want.workspace.keys()


# ---------------------------------------------------------------------- #
# a loop of one group is one native call (``loop_group``)
# ---------------------------------------------------------------------- #

def _image_loop(steps: int, rows: int = 24) -> str:
    return IMAGE_STEP.replace("for k = 1:3", f"for k = 1:{steps}") \
        .replace("rand(24, 20)", f"rand({rows}, 20)")


def test_a_loop_of_one_group_is_marked_with_what_it_carries():
    program = compile_source(_image_loop(16))
    group = _one_group(program)
    # ``img`` (the group's operand 0) is what the last member carries
    assert group.carry == ((0, 7),)
    assert program.peephole_stats.counts["loop_group"] == 1
    assert "1 loop_group" in program.rewrite_summary()
    source = program.python_source
    assert source.count("rt.loop_range(") == 1
    assert source.count("_g.result(") == 6      # one copy of the body


@pytest.mark.parametrize("body", [
    # the group reads the loop variable
    "    x = x .* 0.5 + k;\n    y = circshift(x, 1) + x;\n",
    # a second statement
    "    n = circshift(x, 1);\n    x = n .* 0.5 + x;\n"
    "    q = sum(sum(x));\n",
    # the group assigns the loop variable
    "    n = circshift(x, 1);\n    k = n .* 0.5 + x;\n    x = k .* 2;\n",
])
def test_a_loop_that_does_more_than_its_group_is_not_marked(body):
    source = "x = ones(6, 4);\nq = 0;\nfor k = 1:5\n" + body + "end\n"
    program = compile_source(source)
    assert _one_group(program).carry is None
    assert program.peephole_stats.counts["loop_group"] == 0
    assert ", True, True)" not in program.python_source


@pytest.mark.parametrize("steps, calls, batched", [
    (1, 1, 0), (2, 2, 0), (3, 2, 2), (16, 2, 15)])
def test_the_iterations_before_the_last_are_one_native_call(steps, calls,
                                                             batched):
    """k ∈ {1, 2, 3, 16}: from three iterations on, the ones before the
    last run in one call of the count variant, and the last as before."""
    source = _image_loop(steps)
    program = compile_source(source)
    result = program.run(nprocs=4, backend="fused", native="auto")
    if result.native is None:
        pytest.skip("native tier unavailable")
    assert result.native["native_calls"] == calls
    assert result.native["loop_iterations"] == batched
    for scheme in ("block", "cyclic"):
        _same_with_and_without_batches(source, 4, scheme)


#: the guard fires first on iteration 4 of 8: ``x - 3.5`` is 2.5, 1.5
#: and 0.5 on the three before it
GUARDED_LOOP = """
x = ones(6, 4) .* 6;
for k = 1:8
    y = sqrt(x - 3.5);
    x = x - 1;
end
"""


def test_a_guard_that_fires_in_the_batch_runs_every_iteration_as_before():
    program = compile_source(GUARDED_LOOP)
    assert _one_group(program).carry is not None
    result = program.run(nprocs=4, backend="fused", native="auto")
    if result.native is None:
        pytest.skip("native tier unavailable")
    assert result.native["loop_iterations"] == 0
    assert result.native["guard_fallbacks"] >= 2   # the batch, iteration 4
    assert np.iscomplexobj(result.workspace["y"])
    for scheme in ("block", "cyclic"):
        _same_with_and_without_batches(GUARDED_LOOP, 4, scheme)


def test_a_traced_loop_runs_every_iteration_through_its_group():
    """Canonical events are per statement: with a trace on, every
    iteration is its own group call, and the trace is the one without
    ``loop_group``."""
    source = _image_loop(16)
    program = compile_source(source)
    with group_calls() as ran:
        got = program.run(nprocs=4, backend="fused", native="auto",
                          trace=True)
    if got.native is None:
        pytest.skip("native tier unavailable")
    assert got.native["loop_iterations"] == 0
    assert ran == [8] * 16
    want = compile_source(source, plan=Plan(fusion=UNBATCHED)).run(
        nprocs=4, backend="fused", native="auto", trace=True)
    assert _observed(got) == _observed(want)


@pytest.fixture
def charges_out_of_order(monkeypatch):
    """A mutant of the replay: the recorded charges, made again in the
    reverse order."""
    from repro.runtime.context import LoopGroup

    def replay(self):
        for _ in range(self.batch.count - 1):
            for method, args, kwargs in reversed(self.comm.calls):
                method(*args, **kwargs)
        self.batch.taken = True

    monkeypatch.setattr(LoopGroup, "_replay", replay)


def test_charges_replayed_out_of_order_are_caught(charges_out_of_order):
    """(26 rows on 4 ranks: blocks of 7 and 6 rows, so the order of a
    ring exchange and a compute charge shows in the clocks.)"""
    if get_engine().cc is None:
        pytest.skip("native tier unavailable")
    with pytest.raises(AssertionError):
        _same_with_and_without_batches(_image_loop(16, rows=26), 4, "block")


@pytest.mark.parametrize("name, most, batched", [
    ("e2e/image_filter", 2, 15), ("e2e/heat", 5, 49)])
def test_a_benchmark_stencil_makes_a_few_native_calls(name, most, batched):
    """``image_filter``'s 16 steps and ``heat``'s 50: one call for the
    steps before the last, one for the last (and ``heat``'s three
    elementwise statements outside its loop)."""
    from tests.corpus import shipped_programs

    source, _ = shipped_programs()[name]
    result = compile_source(source).run(nprocs=4, backend="fused",
                                        native="auto")
    if result.native is None:
        pytest.skip("native tier unavailable")
    assert result.native["native_calls"] <= most
    assert result.native["loop_iterations"] == batched


def test_a_loop_group_records_one_charge_per_member(monkeypatch):
    """What ``image_filter``'s batch replays per iteration: one
    ``charge`` for each of its 14 members and its two halo taps' ring
    exchanges — a call's overhead and its work are one ``charge``, so
    the replay is 16 calls an iteration."""
    from repro.runtime.context import LoopGroup
    from tests.corpus import shipped_programs

    recorded = []
    replay = LoopGroup._replay

    def spy(self):
        recorded.append((self.members,
                         [method.__name__ for method, _, _ in
                          self.comm.calls]))
        replay(self)

    monkeypatch.setattr(LoopGroup, "_replay", spy)
    source, _ = shipped_programs()["e2e/image_filter"]
    result = compile_source(source).run(nprocs=4, backend="fused",
                                        native="auto")
    if result.native is None:
        pytest.skip("native tier unavailable")
    [(members, names)] = recorded
    assert members == 14
    assert names.count("charge") == members
    assert names.count("ring_exchange") == 2
    assert len(names) == 16
