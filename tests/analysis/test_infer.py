"""Type / rank / shape inference (pass 3) tests."""

import numpy as np
import pytest

from repro.analysis.infer import InferenceEngine, _same_const, infer_types
from repro.analysis.lattice import BaseType, Rank, Shape
from repro.analysis.resolve import resolve_program
from repro.analysis.ssa import Phi
from repro.errors import InferenceError
from repro.frontend import ast_nodes as A
from repro.frontend.mfile import DictProvider
from repro.frontend.parser import parse_script
from tests.corpus import shipped_programs


def infer(src, mfiles=None, data_files=None):
    provider = DictProvider(mfiles or {}, data_files or {})
    return infer_types(resolve_program(parse_script(src), provider))


def vt(types, name):
    return types.script.var_types[name]


class TestScalars:
    def test_integer_literal(self):
        t = infer("x = 3;")
        assert vt(t, "x").base is BaseType.INTEGER
        assert vt(t, "x").rank is Rank.SCALAR

    def test_real_literal(self):
        t = infer("x = 3.5;")
        assert vt(t, "x").base is BaseType.REAL

    def test_imaginary_literal(self):
        t = infer("z = 2 + 3i;")
        assert vt(t, "z").base is BaseType.COMPLEX

    def test_integer_arithmetic_stays_integer(self):
        t = infer("x = 2 + 3 * 4;")
        assert vt(t, "x").base is BaseType.INTEGER

    def test_division_widen_to_real(self):
        t = infer("x = 1 / 3;")
        assert vt(t, "x").base is BaseType.REAL

    def test_constant_propagation(self):
        t = infer("n = 100;\nm = n * 2;")
        assert t.script.var_consts["m"] == 200.0

    def test_string_is_literal_type(self):
        t = infer("s = 'abc';")
        assert vt(t, "s").base is BaseType.LITERAL

    def test_pi_constant(self):
        t = infer("x = 2 * pi;")
        assert abs(t.script.var_consts["x"] - 2 * np.pi) < 1e-12

    @pytest.mark.parametrize("call", [
        "round(2.5)", "round(-2.5)", "round(0.49999999999999994)",
        "sqrt(2)", "sqrt(-4)", "exp(0.1)", "log(10)", "log(-0.5)",
        "log2(3)", "sin(1)", "fix(-2.5)", "sign(-3)", "isnan(2)"])
    def test_fold_has_the_bits_of_the_run_time_kernel(self, call):
        """``f(const)`` folds by calling the kernel the emitted program
        calls: Python's ``round`` (half to even) is not ``K.round``
        (half up), ``x ** 0.5`` not ``K.sqrt``."""
        from repro.codegen import kernels as K

        name, arg = call[:-1].split("(")
        folded = infer(f"x = {call};").script.var_consts["x"]
        assert _same_const(folded, complex(getattr(K, name)(float(arg))))

    def test_folded_round_sizes_the_array_the_run_time_builds(self):
        t = infer("z = zeros(1, round(2.5)); w = z + ones(1, 3);")
        assert vt(t, "w").shape == Shape(1, 3)


class TestShapes:
    def test_zeros_shape_from_constants(self):
        t = infer("a = zeros(3, 5);")
        assert vt(t, "a").shape == Shape(3, 5)

    def test_shape_through_variable_constant(self):
        t = infer("n = 64;\na = rand(n, n);")
        assert vt(t, "a").shape == Shape(64, 64)

    def test_matmul_shape(self):
        t = infer("a = ones(3, 4);\nb = ones(4, 5);\nc = a * b;")
        assert vt(t, "c").shape == Shape(3, 5)

    def test_matmul_dim_mismatch_raises(self):
        with pytest.raises(InferenceError):
            infer("a = ones(3, 4);\nb = ones(5, 6);\nc = a * b;")

    def test_elementwise_mismatch_raises(self):
        with pytest.raises(InferenceError):
            infer("a = ones(3, 4);\nb = ones(4, 3);\nc = a + b;")

    def test_transpose_shape(self):
        t = infer("a = ones(3, 5);\nb = a';")
        assert vt(t, "b").shape == Shape(5, 3)

    def test_dot_product_is_scalar(self):
        t = infer("v = ones(9, 1);\ns = v' * v;")
        assert vt(t, "s").rank is Rank.SCALAR

    def test_outer_product_shape(self):
        t = infer("u = ones(3, 1);\nv = ones(1, 4);\nw = u * v;")
        assert vt(t, "w").shape == Shape(3, 4)

    def test_range_shape(self):
        t = infer("r = 1:10;")
        assert vt(t, "r").shape == Shape(1, 10)

    def test_range_with_step(self):
        t = infer("r = 0:0.25:1;")
        assert vt(t, "r").shape == Shape(1, 5)

    def test_matrix_literal_shape(self):
        t = infer("m = [1, 2, 3; 4, 5, 6];")
        assert vt(t, "m").shape == Shape(2, 3)

    def test_block_literal_shape(self):
        t = infer("a = ones(2, 2);\nm = [a, a; a, a];")
        assert vt(t, "m").shape == Shape(4, 4)

    def test_scalar_literal_is_scalar(self):
        t = infer("x = [42];")
        assert vt(t, "x").rank is Rank.SCALAR

    def test_reduction_of_matrix_is_row(self):
        t = infer("a = ones(4, 6);\ns = sum(a);")
        assert vt(t, "s").shape == Shape(1, 6)

    def test_reduction_of_vector_is_scalar(self):
        t = infer("v = ones(6, 1);\ns = sum(v);")
        assert vt(t, "s").rank is Rank.SCALAR

    def test_indexing_scalar(self):
        t = infer("a = ones(4, 4);\nx = a(2, 3);")
        assert vt(t, "x").rank is Rank.SCALAR

    def test_indexing_column(self):
        t = infer("a = ones(4, 6);\nc = a(:, 2);")
        assert vt(t, "c").shape == Shape(4, 1)

    def test_indexing_with_range(self):
        t = infer("a = ones(8, 8);\nb = a(2:4, :);")
        assert vt(t, "b").shape == Shape(3, 8)


class TestControlFlowJoin:
    def test_type_join_across_if(self):
        t = infer("""
if q > 0
    x = 1;
else
    x = 2.5;
end
""", mfiles={"q": "function y = q\ny = 1;"})
        assert vt(t, "x").base is BaseType.REAL
        assert vt(t, "x").rank is Rank.SCALAR

    def test_rank_join_degrades(self):
        t = infer("""
if q > 0
    x = 3;
else
    x = ones(2, 2);
end
""", mfiles={"q": "function y = q\ny = 1;"})
        # storage must assume matrix
        assert vt(t, "x").rank is Rank.MATRIX

    def test_loop_carried_shape_stable(self):
        t = infer("""
x = zeros(16, 1);
A = rand(16, 16);
for i = 1:10
    x = A * x + x;
end
""")
        assert vt(t, "x").shape == Shape(16, 1)

    def test_loop_var_from_range(self):
        t = infer("for i = 1:10\n y = i;\nend")
        assert vt(t, "i").rank is Rank.SCALAR
        assert vt(t, "i").base is BaseType.INTEGER

    def test_loop_var_from_matrix_is_column(self):
        t = infer("A = ones(3, 5);\nfor c = A\n s = sum(c);\nend")
        assert vt(t, "c").shape == Shape(3, 1)


class TestIndexedAssignment:
    def test_store_in_bounds_keeps_shape(self):
        t = infer("a = zeros(4, 4);\na(2, 2) = 5;")
        assert vt(t, "a").shape == Shape(4, 4)

    def test_store_growth_degrades_shape(self):
        t = infer("a = zeros(4, 4);\nn = 9;\na(n, 1) = 5;")
        shape = vt(t, "a").shape
        assert shape.rows is None  # may grow

    def test_store_with_colon_keeps_shape(self):
        t = infer("a = zeros(4, 4);\na(:, 2) = ones(4, 1);")
        assert vt(t, "a").shape == Shape(4, 4)

    def test_creating_store(self):
        t = infer("b(3) = 1;")
        assert vt(t, "b").rank is Rank.MATRIX

    def test_complex_store_widens_base(self):
        t = infer("a = zeros(2, 2);\na(1, 1) = 2i;")
        assert vt(t, "a").base is BaseType.COMPLEX


class TestInterprocedural:
    def test_return_type_flows_to_caller(self):
        t = infer("y = f(3);", mfiles={
            "f": "function y = f(x)\ny = x * 2.5;"})
        assert vt(t, "y").base is BaseType.REAL
        assert vt(t, "y").rank is Rank.SCALAR

    def test_matrix_through_function(self):
        t = infer("b = scale(ones(4, 4));", mfiles={
            "scale": "function y = scale(a)\ny = a * 2;"})
        assert vt(t, "b").rank is Rank.MATRIX

    def test_multiple_returns(self):
        t = infer("[r, c] = dims(ones(3, 7));", mfiles={
            "dims": "function [r, c] = dims(a)\n"
                    "r = size(a, 1);\nc = size(a, 2);"})
        assert vt(t, "r").rank is Rank.SCALAR
        assert vt(t, "c").rank is Rank.SCALAR

    def test_two_call_sites_join(self):
        t = infer("a = f(1);\nb = f(ones(2, 2));", mfiles={
            "f": "function y = f(x)\ny = x + 1;"})
        # y joins scalar and matrix -> caller sees the join
        assert vt(t, "b").rank in (Rank.MATRIX, Rank.UNKNOWN)

    def test_recursion_converges(self):
        t = infer("y = fact(5);", mfiles={
            "fact": """function y = fact(n)
if n <= 1
    y = 1;
else
    y = n * fact(n - 1);
end
"""})
        assert vt(t, "y").rank is Rank.SCALAR


class TestEndAndSize:
    def test_end_const_from_static_shape(self):
        t = infer("a = zeros(3, 7);\nx = a(end, end);")
        assert vt(t, "x").rank is Rank.SCALAR

    def test_size_two_outputs(self):
        t = infer("a = zeros(3, 7);\n[r, c] = size(a);")
        assert vt(t, "r").base is BaseType.INTEGER

    def test_size_one_output_is_vector(self):
        t = infer("a = zeros(3, 7);\ns = size(a);")
        assert vt(t, "s").shape == Shape(1, 2)


class TestLoadInference:
    def test_load_typed_from_sample(self):
        t = infer("d = load('data.dat');",
                  data_files={"data.dat": np.ones((4, 5))})
        assert vt(t, "d").rank is Rank.MATRIX
        assert vt(t, "d").base is BaseType.INTEGER  # all-integral sample

    def test_load_real_sample(self):
        t = infer("d = load('x.dat');",
                  data_files={"x.dat": np.array([[1.5, 2.5]])})
        assert vt(t, "d").base is BaseType.REAL

    def test_load_without_sample_raises(self):
        with pytest.raises(InferenceError):
            infer("d = load('missing.dat');")

    def test_load_through_const_propagated_name(self):
        # constant propagation lets the compiler find the sample even
        # through a variable
        t = infer("s = 'x.dat';\nd = load(s);",
                  data_files={"x.dat": np.array([[1.5, 2.5]])})
        assert vt(t, "d").base is BaseType.REAL

    def test_load_dynamic_name_raises(self):
        with pytest.raises(InferenceError):
            infer("""
q = 1;
if q > 0
    s = 'a.dat';
else
    s = 'b.dat';
end
d = load(s);
""", data_files={"a.dat": np.ones(3), "b.dat": np.ones(3)})


def test_complex_propagates_through_ops():
    t = infer("z = 1 + 2i;\nw = z * 3;\nr = real(w);")
    assert vt(t, "w").base is BaseType.COMPLEX
    assert vt(t, "r").base is BaseType.REAL


def test_comparison_yields_logical_integer():
    t = infer("a = ones(3, 3);\nm = a > 0;")
    assert vt(t, "m").base is BaseType.INTEGER
    assert vt(t, "m").shape == Shape(3, 3)


# -------------------------------------------------------------------------- #
# NaN constants: a fixpoint test that used `!=` never converged on them
# -------------------------------------------------------------------------- #


class TestNanConstants:
    @pytest.mark.parametrize("src", ["x = nan;", "x = NaN;", "x = inf - inf;",
                                     "x = (inf - inf) + 2i;"])
    def test_compiles_and_keeps_the_constant(self, src):
        t = infer(src)
        const = complex(t.script.var_consts["x"])
        assert const.real != const.real

    def test_nan_through_a_matrix_literal(self):
        t = infer("x = nan; y = [1, x, 3]; disp(sum(isnan(y)))")
        assert vt(t, "y").shape == Shape(1, 3)

    def test_loop_carried_nan(self):
        t = infer("s = nan; for k = 1:3, s = s + k; end; disp(isnan(s))")
        assert vt(t, "s").rank is Rank.SCALAR
        assert "s" not in t.script.var_consts   # nan, then nan + k: two values

    def test_same_nan_on_both_branches_stays_constant(self):
        t = infer("if rand(1) > 0.5, x = nan; else, x = NaN; end; y = x;")
        assert t.script.var_consts["y"] != t.script.var_consts["y"]

    def test_same_const_helper(self):
        nan = float("nan")
        assert _same_const(nan, nan) and _same_const(1.0, 1 + 0j)
        assert _same_const(complex(nan, 2), complex(nan, 2))
        assert _same_const(complex(1, nan), complex(1, nan))
        assert not _same_const(complex(nan, 2), complex(nan, 3))
        assert not _same_const(nan, 1.0) and not _same_const("nan", nan)
        assert _same_const("abc", "abc") and not _same_const("abc", "abd")


# -------------------------------------------------------------------------- #
# change-driven sweeps: same answers as evaluating everything every sweep,
# for a machine-independent fraction of the evaluations
# -------------------------------------------------------------------------- #

EQUIVALENCE_CASES = dict(shipped_programs(), **{
    "mutual_recursion": ("y = even(6);", {
        "even": "function r = even(n)\nif n == 0\n r = 1;\nelse\n"
                " r = odd(n - 1);\nend\n",
        "odd": "function r = odd(n)\nif n == 0\n r = 0;\nelse\n"
               " r = even(n - 1);\nend\n"}),
    "type_changing_loop_variable": (
        "x = 1; for k = 1:3, x = [x, k]; end; y = x';", {}),
    "indexed_read_of_its_own_definition": (
        "x = 1; x = [x(1), 2]; y = x(2);", {}),
    "growing_indexed_store": (
        "a = zeros(1, 3); a(2) = 1; for k = 1:5, a(k + 2) = k; end;"
        " b = a(2:end); b(1, 9) = 2i;", {}),
    "shape_mismatch": ("a = ones(2, 3) + ones(3, 2);", {}),
    "inner_dimension_mismatch": (
        "a = ones(2, 3);\nfor k = 1:2\n b = a * a;\nend", {}),
    "nan_constants": (
        "x = nan; s = NaN; for k = 1:3, s = s + k; end; z = inf - inf;", {}),
    "multi_assign": (
        "a = rand(4, 6); [r, c] = size(a); [m, i] = max(a(:, 1));"
        " [q(1), q(2)] = dims(a); while r > 1, r = r - 1; end", {
            "dims": "function [r, c] = dims(a)\nr = size(a, 1);\n"
                    "c = size(a, 2);"}),
    "two_call_sites_join": ("a = f(1);\nb = f(ones(2, 2));\nc = f(a);", {
        "f": "function y = f(x)\ny = x + 1;"}),
})


def snapshot(types, resolved):
    """Every field of a ProgramTypes, with ``id()`` keys replaced by
    positions in an AST walk and constants by their ``repr`` (NaN)."""
    units = {resolved.script.name: resolved.script, **resolved.functions}
    out = {"param_types": types.param_types,
           "return_types": types.return_types}
    for ut in types.all_units():
        walked = [node for stmt in units[ut.name].body
                  for node in A.walk(stmt)]
        assert set(ut.expr_types) <= {id(node) for node in walked}
        out[ut.name] = {
            "types": ut.types,
            "consts": {vid: repr(c) for vid, c in ut.consts.items()},
            "var_types": ut.var_types,
            "var_consts": {v: repr(c) for v, c in ut.var_consts.items()},
            "expr_types": [ut.expr_types.get(id(node)) for node in walked],
        }
    return out


class EveryNodeEngine(InferenceEngine):
    """Pass 3 without the change-driven skipping: every sweep evaluates
    every phi and event, in the same order."""

    def _one_pass(self, unit, ut):
        for _slot, node, transfer in self._order[unit.name]:
            self._reads = []
            transfer(self, unit, ut, node)


def outcome(src, mfiles, engine=InferenceEngine):
    resolved = resolve_program(parse_script(src), DictProvider(mfiles))
    try:
        return snapshot(engine(resolved).run(), resolved)
    except InferenceError as err:
        return (err.message, repr(err.loc))


@pytest.mark.parametrize("label", sorted(EQUIVALENCE_CASES))
def test_skipping_clean_events_changes_nothing(label):
    """Every SSA value's type and constant (and every other field) equal
    those of a sweep that evaluates everything."""
    src, mfiles = EQUIVALENCE_CASES[label]
    skipping = outcome(src, mfiles)
    assert outcome(src, mfiles, EveryNodeEngine) == skipping
    if "mismatch" in label:
        assert "must agree" in skipping[0]
    else:
        assert isinstance(skipping, dict)


class StampCheckEngine(InferenceEngine):
    """Pass 3 as a stamp check per phi and event on every sweep: evaluate
    one never evaluated, or one that read an input changed since its
    last evaluation began."""

    def _one_pass(self, unit, ut):
        last = self.__dict__.setdefault("_last", {})
        for slot, node, transfer in self._order[unit.name]:
            if slot in last:
                began, reads = last[slot]
                if all(self._stamp[key] <= began for key in reads):
                    continue
            self._reads = reads = []
            began = self._epoch
            transfer(self, unit, ut, node)
            last[slot] = (began, reads)


def evaluations(engine_class, src, mfiles):
    """The phis and events ``engine_class`` evaluates, in order, as
    (unit, position in the unit's sweep), up to an inference error; and
    each reads the same inputs every time (the engine registers a
    reader once)."""
    log = []
    reads = {}

    def logged(transfer):
        def log_and_run(engine, unit, ut, node):
            log.append(id(node))
            transfer(engine, unit, ut, node)
            assert reads.setdefault(id(node), engine._reads) == engine._reads
        return log_and_run

    class Logged(engine_class):
        _TRANSFER = {kind: logged(transfer)
                     for kind, transfer in engine_class._TRANSFER.items()}

    engine = Logged(resolve_program(parse_script(src), DictProvider(mfiles)))
    try:
        engine.run()
    except InferenceError:
        pass
    position = {id(node): (name, k) for name, order in engine._order.items()
                for k, (_slot, node, _transfer) in enumerate(order)}
    return [position[node] for node in log]


@pytest.mark.parametrize("label", sorted(EQUIVALENCE_CASES))
def test_dirty_marking_evaluates_what_the_stamp_check_did(label):
    """The same evaluations in the same order: replace-at-def is not
    monotone, so the order is part of the answer."""
    src, mfiles = EQUIVALENCE_CASES[label]
    marked = evaluations(InferenceEngine, src, mfiles)
    assert marked == evaluations(StampCheckEngine, src, mfiles)
    assert marked


def counting_engine(evaluated):
    """An engine that appends each event it evaluates to ``evaluated``."""

    def counted(transfer):
        def count(engine, unit, ut, node):
            evaluated.append(id(node))
            return transfer(engine, unit, ut, node)
        return count

    class Counting(InferenceEngine):
        _TRANSFER = {kind: transfer if kind is Phi else counted(transfer)
                     for kind, transfer in InferenceEngine._TRANSFER.items()}
    return Counting


@pytest.mark.parametrize("label", sorted(
    label for label in EQUIVALENCE_CASES if label.startswith("e2e/")))
def test_event_evaluation_budget(label):
    """Each SSA event is evaluated about once (1.09x over the seven
    benchmark programs; 4.1x when every sweep evaluated every event)."""
    evaluated = []
    src, mfiles = EQUIVALENCE_CASES[label]
    assert isinstance(outcome(src, mfiles, counting_engine(evaluated)), dict)
    assert 0 < len(evaluated) <= 1.5 * len(set(evaluated))


@pytest.mark.parametrize("label", sorted(
    label for label in EQUIVALENCE_CASES if "mismatch" not in label))
def test_a_sweep_over_an_unchanged_unit_evaluates_nothing(label):
    src, mfiles = EQUIVALENCE_CASES[label]
    engine = InferenceEngine(
        resolve_program(parse_script(src), DictProvider(mfiles)))
    types = engine.run()

    def untouchable(engine, unit, ut, node):
        raise AssertionError(f"{node!r} evaluated in a clean sweep")

    units = engine.program.all_units()
    for unit in units:
        engine._order[unit.name] = [
            (slot, node, untouchable)
            for slot, node, _ in engine._order[unit.name]]
    for unit in units:
        engine._one_pass(unit, types.unit(unit.name))


def test_bookkeeping_is_not_retained_on_unit_types():
    types = infer("x = 1; for k = 1:3, x = [x, k]; end")
    assert set(vars(types.script)) == {
        "name", "ssa", "types", "consts", "var_types", "var_consts",
        "expr_types"}
