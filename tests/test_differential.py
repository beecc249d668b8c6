"""Differential tests: compiled programs (at several rank counts) must
reproduce the reference interpreter exactly (P=1) or to floating-point
reassociation tolerance (P>1).

This corpus is the backbone of the reproduction's correctness story —
each script exercises a different slice of the language/runtime.
"""

import warnings

import numpy as np
import pytest

from repro.frontend.mfile import DictProvider
from repro.tuning import Plan

CORPUS = {
    "scalar_arithmetic": """
a = 3;
b = a * 2 + 1 / 4 - 2^3;
c = mod(17, 5) + rem(-7, 3);
d = abs(-2.5) + floor(3.7) + ceil(3.2) + round(2.5);
""",
    "folded_sizes": """
z = zeros(1, round(2.5));
w = z + ones(1, 3);
h = zeros(floor(sqrt(17)), ceil(exp(1)));
""",
    "vector_pipeline": """
v = 1:0.5:20;
w = sqrt(v) .* sin(v) + cos(v) ./ (v + 1);
s = sum(w);
m = mean(w);
x = max(w);
n = min(w);
t = trapz(v, w);
""",
    "matrix_algebra": """
rand('seed', 2);
A = rand(12, 12);
B = rand(12, 12);
C = A * B;
D = C' + 2 * eye(12);
x = ones(12, 1);
y = D * x;
nrm = sqrt(y' * y);
sol = D \\ y;
""",
    "indexing_torture": """
a = zeros(6, 6);
for i = 1:6
    for j = 1:6
        a(i, j) = 10 * i + j;
    end
end
r = a(2, :);
c = a(:, 3);
blk = a(2:4, 3:5);
lin = a(8);
last = a(end, end);
a(1, :) = r;
a(end) = 99;
flat_sum = sum(sum(a));
""",
    "growth_and_vectors": """
for k = 1:8
    v(k) = k * k;
end
v(12) = 7;
total = sum(v);
w = v';
len = length(v);
""",
    "control_flow": """
x = 0;
for i = 1:20
    if mod(i, 3) == 0
        x = x + i;
    elseif mod(i, 5) == 0
        x = x - i;
    else
        x = x + 1;
    end
end
k = 0;
while k < 50
    k = k + 7;
    if k > 30, break, end
end
""",
    "logical_masks": """
rand('seed', 6);
a = rand(8, 8);
m = a > 0.5;
cnt = sum(sum(m));
b = m .* a;
any_big = any(any(a > 0.95));
all_pos = all(all(a > 0));
""",
    "complex_numbers": """
z = 3 + 4i;
w = z * (1 - 2i);
mag = abs(z);
re = real(w);
im = imag(w);
cj = conj(w);
zz = sqrt(-9);
""",
    "reductions_matrix": """
rand('seed', 9);
A = rand(7, 5);
cs = sum(A);
cm = mean(A);
cx = max(A);
cn = min(A);
cp = prod(ones(7, 5) + A ./ 10);
""",
    "builtin_structural": """
rand('seed', 3);
a = rand(6, 4);
b = reshape(a, 4, 6);
c = fliplr(a);
d = flipud(a);
e = tril(rand(5, 5));
f = triu(rand(5, 5), 1);
g = repmat([1, 2; 3, 4], 2, 3);
dg = diag([5, 6, 7]);
dv = diag(rand(4, 4));
""",
    "shifts_and_sort": """
rand('seed', 12);
v = rand(1, 23);
s = sort(v);
c1 = circshift(v, 3);
c2 = circshift(v', -4);
mn = s(1);
mx = s(end);
""",
    "cumulative": """
v = 1:15;
c = cumsum(v);
p = cumprod(ones(1, 10) * 1.1);
total = c(end);
""",
    "string_output": """
x = 42;
fprintf('value is %d\\n', x);
fprintf('%s: %g, %g\\n', 'pair', 1.5, 2.5);
disp('done');
""",
    "ranges_and_linspace": """
a = linspace(0, 1, 11);
b = 10:-2:1;
c = 0:0.1:0.5;
s = sum(a) + sum(b) + sum(c);
""",
    "minmax_indices": """
v = [3, 1, 4, 1, 5, 9, 2, 6];
[mx, ix] = max(v);
[mn, in_] = min(v);
""",
    "nested_calls_and_transpose": """
rand('seed', 1);
A = rand(9, 9);
t = sum(diag(A' * A));
u = norm(A(:, 1));
""",
}

MFILE_CORPUS = {
    "function_pipeline": ("""
rand('seed', 8);
data = rand(20, 1) * 10;
[m, s] = stats(data);
z = standardize(data);
check = abs(mean(z)) + abs(std_(z) - 1);
""", {
        "stats": """function [m, s] = stats(v)
m = mean(v);
s = std_(v);
""",
        "std_": """function s = std_(v)
n = length(v);
m = mean(v);
d = v - m;
s = sqrt(sum(d .* d) / (n - 1));
""",
        "standardize": """function z = standardize(v)
[m, s] = stats(v);
z = (v - m) / s;
""",
    }),
    "recursive_power": ("""
y = fastpow(3, 10);
""", {
        "fastpow": """function y = fastpow(b, e)
if e == 0
    y = 1;
elseif mod(e, 2) == 0
    h = fastpow(b, e / 2);
    y = h * h;
else
    y = b * fastpow(b, e - 1);
end
""",
    }),
}


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_corpus_matches_oracle(key, assert_matches_oracle):
    assert_matches_oracle(CORPUS[key], nprocs=(1, 3, 4))


@pytest.mark.parametrize("key", sorted(MFILE_CORPUS))
def test_mfile_corpus_matches_oracle(key, assert_matches_oracle):
    src, mfiles = MFILE_CORPUS[key]
    assert_matches_oracle(src, nprocs=(1, 4),
                          provider=DictProvider(mfiles))


def test_output_identical_across_ranks(run_compiled):
    src = "v = 1:10;\nfprintf('%d,', v);\nfprintf('\\n');"
    _, out1 = run_compiled(src, nprocs=1)
    _, out4 = run_compiled(src, nprocs=4)
    assert out1 == out4 == "1,2,3,4,5,6,7,8,9,10,\n"


def test_display_format_identical(run_interp, run_compiled):
    src = "x = [1.5, 2; 3, 4]"
    interp = run_interp(src)
    _, out = run_compiled(src, nprocs=2)
    assert out == "".join(interp.output)


def test_peephole_does_not_change_results(run_compiled):
    from repro.compiler import compile_source

    src = """
rand('seed', 4);
A = rand(10, 10);
r = rand(10, 1);
s1 = r' * r;
s2 = r' * (A * r);
"""
    with_pe = compile_source(src).run(nprocs=4)
    without = compile_source(src, plan=Plan(fusion=())).run(nprocs=4)
    assert abs(with_pe.workspace["s1"] - without.workspace["s1"]) < 1e-9
    assert abs(with_pe.workspace["s2"] - without.workspace["s2"]) < 1e-9


def test_cyclic_scheme_same_results(run_compiled):
    src = """
rand('seed', 5);
A = rand(9, 9);
x = ones(9, 1);
y = A * x;
s = sum(y);
"""
    block, _ = run_compiled(src, nprocs=3)
    cyclic, _ = run_compiled(src, nprocs=3, plan=Plan(scheme="cyclic"))
    np.testing.assert_allclose(np.asarray(block["y"]),
                               np.asarray(cyclic["y"]))


def test_benchmarks_match_oracle_small(assert_matches_oracle):
    """The four paper benchmarks at test scale, against the oracle."""
    from repro.bench.workloads import make_workload

    for key in ("cg", "ocean", "nbody", "closure"):
        w = make_workload(key, scale="small")
        assert_matches_oracle(w.source, nprocs=(1, 4), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("key", ["matrix_algebra", "vector_pipeline",
                                 "indexing_torture", "reductions_matrix",
                                 "shifts_and_sort"])
def test_cyclic_scheme_on_corpus(key, run_interp, run_compiled):
    """The ablation distribution must be drop-in correct on real scripts."""
    interp = run_interp(CORPUS[key])
    ws, _ = run_compiled(CORPUS[key], nprocs=4, plan=Plan(scheme="cyclic"))
    for name, expected in interp.workspace.items():
        if isinstance(expected, str):
            assert ws[name] == expected
        else:
            np.testing.assert_allclose(
                np.asarray(ws[name], dtype=complex),
                np.asarray(expected, dtype=complex),
                rtol=1e-9, atol=1e-12, err_msg=f"{key}:{name}")


#: NaN as a compile-time constant: `x = nan;` used to make inference
#: report a change on every sweep (NaN != NaN) until the round cap
NAN_PROGRAMS = {
    "literal_in_matrix": "x = nan; y = [1, x, 3]; disp(sum(isnan(y)))",
    "loop_carried": "s = nan; for k = 1:3, s = s + k; end; disp(isnan(s))",
    "folded_inf_minus_inf": "z = inf - inf;\nw = NaN;\ndisp(isnan(z) + isnan(w))",
    "through_a_vector": "v = (1:6) * nan;\nm = max(isnan(v));\nc = nan + 2i;",
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("key", sorted(NAN_PROGRAMS))
def test_nan_constants_on_both_backends(key, run_interp, run_compiled):
    interp = run_interp(NAN_PROGRAMS[key])
    for backend in ("lockstep", "fused"):
        for p in (1, 3):
            ws, out = run_compiled(NAN_PROGRAMS[key], nprocs=p,
                                   backend=backend)
            assert out == "".join(interp.output), (backend, p)
            for name, expected in interp.workspace.items():
                np.testing.assert_array_equal(      # NaN equals NaN here
                    np.asarray(ws[name]), np.asarray(expected),
                    err_msg=f"{backend} P={p}: {name}")


#: ``power`` is ``.^``: a negative base with a fractional exponent goes
#: complex — in the oracle too, which once answered NaN with a warning
POWER_PROGRAMS = {
    "scalar": "a = power(-8, 1/3)\nb = (-8) .^ (1/3);",
    "vector": "v = [-8, -27, 4]; a = power(v, 1/3)\nb = v .^ (1/3);",
    "vector_exponent": "a = power(-8, [1/3, 2, 0.5])\nc = power([4, 9], 0.5)",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", sorted(POWER_PROGRAMS))
def test_power_of_a_negative_base_on_both_backends(key, run_interp,
                                                   run_compiled):
    interp = run_interp(POWER_PROGRAMS[key])
    assert np.iscomplexobj(interp.workspace["a"])
    for backend in ("lockstep", "fused"):
        for p in (1, 4):
            ws, out = run_compiled(POWER_PROGRAMS[key], nprocs=p,
                                   backend=backend)
            assert out == "".join(interp.output), (backend, p)
            for name, expected in interp.workspace.items():
                np.testing.assert_array_equal(
                    np.asarray(ws[name]), np.asarray(expected),
                    err_msg=f"{backend} P={p}: {name}")


#: a zero divisor on distributed vectors gives MATLAB's Inf and NaN: the
#: rank program holds the errstate the kernels leave to their caller
DIVIDE_BY_ZERO = ("v = zeros(1, 8); a = 1 ./ v; b = v ./ v; c = v .\\ 1; "
                  "d = v .^ (-1);\ndisp(a); disp(b); disp(c); disp(d);")


def test_division_by_zero_on_distributed_vectors_warns_nothing(
        run_interp, run_compiled):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = "".join(run_interp(DIVIDE_BY_ZERO).output)
        assert "Inf" in want and "NaN" in want
        for backend in ("lockstep", "fused"):
            for p in (1, 4):
                _, out = run_compiled(DIVIDE_BY_ZERO, nprocs=p,
                                      backend=backend)
                assert out == want, (backend, p)


#: where the NaNs sit in the 16-element vector and the 8 x 6 matrix
NAN_POSITIONS = {
    "first": ("v(1) = NaN;", "A(1, 1) = NaN;"),
    "middle": ("v(7) = NaN;", "A(3, 2) = NaN;"),
    "last": ("v(16) = NaN;", "A(8, 6) = NaN;"),
    "everywhere": ("v = v * NaN;", "A = A * NaN;"),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("scheme", ["block", "cyclic"])
@pytest.mark.parametrize("where", sorted(NAN_POSITIONS))
def test_extrema_of_nan_data_do_not_depend_on_the_ranks(
        where, scheme, run_interp, run_compiled):
    """``max``/``min`` propagate a NaN, and ``[m, k] = max(v)`` names
    the first one, wherever it lives: the rank that holds it and the
    order the ranks' candidates are combined in must not matter."""
    vector, matrix = NAN_POSITIONS[where]
    source = "\n".join([
        "v = linspace(1, 16, 16);", vector,
        "A = reshape(linspace(1, 48, 48), 8, 6);", matrix,
        "hi = max(v); lo = min(v);",
        "[m, k] = max(v); [n, j] = min(v);",
        "w = v'; [mw, kw] = max(w); low = min(w);",
        "chi = max(A); clo = min(A);"])
    interp = run_interp(source)
    assert np.isnan(interp.workspace["hi"]) and np.isnan(interp.workspace["m"])
    for backend in ("lockstep", "fused"):
        for p in (1, 3, 4, 16):
            ws, _ = run_compiled(source, nprocs=p, backend=backend,
                                 plan=Plan(scheme=scheme))
            for name, expected in interp.workspace.items():
                np.testing.assert_array_equal(      # NaN equals NaN here
                    np.asarray(ws[name]), np.asarray(expected),
                    err_msg=f"{backend} {scheme} P={p}: {name}")


def test_index_of_an_extremum_ignores_ranks_that_hold_nothing(
        run_interp, run_compiled):
    """More ranks than elements: a rank without elements must lose a
    tie against a real ``-inf`` (its candidate once carried index 0)."""
    source = "v = [-inf, -inf, -inf];\n[m, k] = max(v); [n, j] = min(-v);"
    interp = run_interp(source)
    for backend in ("lockstep", "fused"):
        ws, _ = run_compiled(source, nprocs=7, backend=backend)
        assert (ws["m"], ws["k"], ws["n"], ws["j"]) == tuple(
            interp.workspace[name] for name in "mknj") \
            == (-np.inf, 1.0, np.inf, 1.0)


@pytest.mark.slow
def test_readme_quickstart_snippet():
    """The README's quickstart block must actually work as shown."""
    from repro import OtterCompiler
    from repro.mpi import MEIKO_CS2

    compiler = OtterCompiler()
    program = compiler.compile("""
n = 1024;
rand('seed', 17);
A = rand(n, n) + n * eye(n);
b = A * ones(n, 1);
x = zeros(n, 1);  r = b;  p = r;  rsold = r' * r;
for i = 1:30
    Ap = A * p;
    alpha = rsold / (p' * Ap);
    x = x + alpha * p;  r = r - alpha * Ap;
    rsnew = r' * r;
    p = r + (rsnew / rsold) * p;  rsold = rsnew;
end
fprintf('residual %.3e\\n', sqrt(rsold));
""")
    result = program.run(nprocs=16, machine=MEIKO_CS2)
    assert "residual" in result.output
    assert result.elapsed > 0
    assert "ML_matrix_multiply" in program.c_source
