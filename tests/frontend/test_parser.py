"""Parser unit tests."""

import pytest

from repro.errors import ParseError
from repro.frontend import ast_nodes as A
from repro.frontend.parser import (
    parse_expression,
    parse_function_file,
    parse_script,
)


class TestExpressions:
    def test_number(self):
        e = parse_expression("42")
        assert isinstance(e, A.Num) and e.value == 42.0

    def test_precedence_mul_over_add(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, A.BinOp) and e.op == "+"
        assert isinstance(e.rhs, A.BinOp) and e.rhs.op == "*"

    def test_unary_minus_binds_looser_than_power(self):
        e = parse_expression("-2^2")  # == -(2^2)
        assert isinstance(e, A.UnaryOp) and e.op == "-"
        assert isinstance(e.operand, A.BinOp) and e.operand.op == "^"

    def test_power_accepts_signed_exponent(self):
        e = parse_expression("2^-1")
        assert isinstance(e, A.BinOp) and e.op == "^"
        assert isinstance(e.rhs, A.UnaryOp)

    def test_colon_binds_looser_than_plus(self):
        e = parse_expression("1:n+1")
        assert isinstance(e, A.Range)
        assert isinstance(e.stop, A.BinOp) and e.stop.op == "+"

    def test_three_part_range(self):
        e = parse_expression("0:0.5:10")
        assert isinstance(e, A.Range)
        assert isinstance(e.step, A.Num) and e.step.value == 0.5

    def test_comparison_below_range(self):
        e = parse_expression("1:3 == 2")
        assert isinstance(e, A.BinOp) and e.op == "=="
        assert isinstance(e.lhs, A.Range)

    def test_logical_precedence(self):
        e = parse_expression("a & b | c")
        assert e.op == "|"

    def test_short_circuit_precedence(self):
        e = parse_expression("a && b || c")
        assert e.op == "||"

    def test_transpose_postfix(self):
        e = parse_expression("a'")
        assert isinstance(e, A.Transpose) and e.conjugate

    def test_nonconj_transpose(self):
        e = parse_expression("a.'")
        assert isinstance(e, A.Transpose) and not e.conjugate

    def test_transpose_of_apply(self):
        e = parse_expression("a(1, :)'")
        assert isinstance(e, A.Transpose)
        assert isinstance(e.operand, A.Apply)

    def test_apply_args(self):
        e = parse_expression("f(x, 3, :)")
        assert isinstance(e, A.Apply) and len(e.args) == 3
        assert isinstance(e.args[2], A.Colon)

    def test_end_in_subscript(self):
        e = parse_expression("a(end - 1)")
        assert isinstance(e.args[0], A.BinOp)
        assert isinstance(e.args[0].lhs, A.EndRef)

    def test_nested_parens(self):
        e = parse_expression("((1 + 2)) * 3")
        assert e.op == "*"

    def test_string_literal(self):
        e = parse_expression("'hi'")
        assert isinstance(e, A.Str) and e.value == "hi"

    def test_chained_power_left_assoc(self):
        e = parse_expression("2^3^2")
        assert e.op == "^" and isinstance(e.lhs, A.BinOp)

    def test_matrix_power_of_transpose(self):
        e = parse_expression("a' * a")
        assert e.op == "*"
        assert isinstance(e.lhs, A.Transpose)


class TestMatrixLiterals:
    def test_row(self):
        e = parse_expression("[1, 2, 3]")
        assert isinstance(e, A.MatrixLit)
        assert len(e.rows) == 1 and len(e.rows[0]) == 3

    def test_rows_by_semicolon(self):
        e = parse_expression("[1, 2; 3, 4]")
        assert len(e.rows) == 2

    def test_rows_by_newline(self):
        e = parse_expression("[1, 2\n3, 4]")
        assert len(e.rows) == 2

    def test_empty(self):
        e = parse_expression("[]")
        assert e.rows == []

    def test_nested_expressions(self):
        e = parse_expression("[a + 1, f(2); c', 4]")
        assert len(e.rows) == 2 and len(e.rows[0]) == 2

    def test_whitespace_delimiting_rejected(self):
        # The paper: commas are required between list elements.
        with pytest.raises(ParseError):
            parse_expression("[1 2, 3]")

    def test_continuation_inside_literal(self):
        e = parse_expression("[1, 2, ...\n 3]")
        assert len(e.rows[0]) == 3

    def test_trailing_semicolon_row(self):
        e = parse_expression("[1, 2;]")
        assert len(e.rows) == 1


class TestStatements:
    def test_assignment_display_control(self):
        s = parse_script("x = 1;\ny = 2\n")
        assert not s.body[0].display
        assert s.body[1].display

    def test_expression_statement(self):
        s = parse_script("3 + 4;")
        assert isinstance(s.body[0], A.ExprStmt)

    def test_indexed_assignment(self):
        s = parse_script("a(2, 3) = 7;")
        stmt = s.body[0]
        assert isinstance(stmt.target, A.IndexLValue)
        assert stmt.target.name == "a" and len(stmt.target.args) == 2

    def test_multi_assign(self):
        s = parse_script("[r, c] = size(a);")
        stmt = s.body[0]
        assert isinstance(stmt, A.MultiAssign)
        assert [t.name for t in stmt.targets] == ["r", "c"]

    def test_multi_assign_requires_call(self):
        with pytest.raises(ParseError):
            parse_script("[a, b] = 3;")

    def test_matrix_literal_stmt_not_multiassign(self):
        s = parse_script("[1, 2];")
        assert isinstance(s.body[0], A.ExprStmt)

    def test_if_elseif_else(self):
        s = parse_script("""
if a > 0
    x = 1;
elseif a < 0
    x = 2;
else
    x = 3;
end
""")
        stmt = s.body[0]
        assert isinstance(stmt, A.If)
        assert len(stmt.branches) == 2 and len(stmt.orelse) == 1

    def test_single_line_if(self):
        s = parse_script("if a > 0, x = 1; end")
        assert isinstance(s.body[0], A.If)

    def test_for_loop(self):
        s = parse_script("for i = 1:10\n    x = i;\nend")
        stmt = s.body[0]
        assert isinstance(stmt, A.For) and stmt.var == "i"
        assert isinstance(stmt.iterable, A.Range)

    def test_while_with_break_continue(self):
        s = parse_script("""
while x < 10
    if x == 5, break, end
    if x == 3, continue, end
    x = x + 1;
end
""")
        stmt = s.body[0]
        assert isinstance(stmt, A.While)

    def test_switch(self):
        s = parse_script("""
switch mode
case 1
    x = 1;
case {2, 3}
    x = 2;
otherwise
    x = 0;
end
""")
        stmt = s.body[0]
        assert isinstance(stmt, A.Switch)
        assert len(stmt.cases) == 2
        assert len(stmt.cases[1][0]) == 2  # {2, 3}
        assert len(stmt.otherwise) == 1

    def test_global(self):
        s = parse_script("global a, b = 1;")
        assert isinstance(s.body[0], A.Global)
        assert s.body[0].names == ["a"]

    def test_missing_end_raises(self):
        with pytest.raises(ParseError):
            parse_script("for i = 1:3\n x = i;")

    def test_return_in_script(self):
        s = parse_script("x = 1;\nreturn\ny = 2;")
        assert isinstance(s.body[1], A.Return)


class TestFunctionFiles:
    def test_single_output(self):
        funcs = parse_function_file("function y = f(x)\ny = x + 1;\n")
        assert funcs[0].name == "f"
        assert funcs[0].params == ["x"] and funcs[0].returns == ["y"]

    def test_multiple_outputs(self):
        funcs = parse_function_file(
            "function [a, b] = f(x, y)\na = x;\nb = y;\n")
        assert funcs[0].returns == ["a", "b"]
        assert funcs[0].params == ["x", "y"]

    def test_no_output(self):
        funcs = parse_function_file("function show(x)\ndisp(x);\n")
        assert funcs[0].returns == []

    def test_no_params(self):
        funcs = parse_function_file("function y = f\ny = 42;\n")
        assert funcs[0].params == []

    def test_subfunctions(self):
        funcs = parse_function_file("""
function y = main(x)
y = helper(x) * 2;

function z = helper(x)
z = x + 1;
""")
        assert [f.name for f in funcs] == ["main", "helper"]

    def test_script_is_not_function_file(self):
        with pytest.raises(ParseError):
            parse_function_file("x = 1;")


def test_parse_unit_dispatch():
    from repro.frontend.lexer import tokenize
    from repro.frontend.parser import Parser

    unit = Parser(tokenize("function y = f(x)\ny = x;")).parse_unit("f")
    assert isinstance(unit, list)
    unit2 = Parser(tokenize("x = 3;")).parse_unit("s")
    assert isinstance(unit2, A.Script)


def test_deeply_nested_structures():
    s = parse_script("""
for i = 1:3
    for j = 1:3
        if i == j
            while x < i
                x = x + 1;
            end
        end
    end
end
""")
    assert isinstance(s.body[0], A.For)


def test_comma_separated_statements():
    s = parse_script("a = 1, b = 2; c = 3\n")
    assert len(s.body) == 3
    assert s.body[0].display and not s.body[1].display


# -------------------------------------------------------------------------- #
# the grammar, pinned: what the ten-method precedence cascade parsed, as a
# table the precedence-climbing parser must reproduce
# -------------------------------------------------------------------------- #

#: binary operators, loosest level first — the module docstring's list
LEVELS = [
    ["||"], ["&&"], ["|"], ["&"],
    ["==", "~=", "<", ">", "<=", ">="],
    [":"],
    ["+", "-"],
    ["*", "/", "\\", ".*", "./", ".\\"],
]
LEVEL_OF = {op: n for n, ops in enumerate(LEVELS) for op in ops}


def sexpr(e):
    """An expression tree as a nested tuple."""
    if isinstance(e, A.BinOp):
        return (e.op, sexpr(e.lhs), sexpr(e.rhs))
    if isinstance(e, A.Range):
        parts = [e.start, e.stop] if e.step is None \
            else [e.start, e.step, e.stop]
        return (":", *map(sexpr, parts))
    if isinstance(e, A.UnaryOp):
        return (f"u{e.op}", sexpr(e.operand))
    if isinstance(e, A.Transpose):
        return ("'" if e.conjugate else ".'", sexpr(e.operand))
    if isinstance(e, A.Ident):
        return e.name
    if isinstance(e, A.Num):
        return e.value
    raise AssertionError(type(e).__name__)


def expected_pair(op1, op2):
    """``a op1 b op2 c`` under the precedence list, left-associative."""
    if op1 == op2 == ":":
        return (":", "a", "b", "c")             # start:step:stop
    if LEVEL_OF[op1] >= LEVEL_OF[op2]:          # op1 at least as tight
        return (op2, (op1, "a", "b"), "c")
    return (op1, "a", (op2, "b", "c"))


@pytest.mark.parametrize("op1", sorted(LEVEL_OF))
@pytest.mark.parametrize("op2", sorted(LEVEL_OF))
def test_every_ordered_pair_of_binary_operators(op1, op2):
    tree = sexpr(parse_expression(f"a {op1} b {op2} c"))
    assert tree == expected_pair(op1, op2)


def test_docstring_lists_the_levels_the_table_has():
    import repro.frontend.parser as parser_module

    assert [[kind.value for kind in kinds]
            for kinds in parser_module._BINARY_LEVELS] == LEVELS
    doc = " ".join(parser_module.__doc__.split())
    assert ("``||`` < ``&&`` < ``|`` < ``&`` < comparisons < ``:`` < "
            "``+ -`` < ``* / \\ .* ./ .\\``") in doc


@pytest.mark.parametrize("src, tree", [
    ("1:2:n+1 == 3 | a",
     ("|", ("==", (":", 1.0, 2.0, ("+", "n", 1.0)), 3.0), "a")),
    ("a:b == c:d", ("==", (":", "a", "b"), (":", "c", "d"))),
    ("a + b:c * d:e - f",
     (":", ("+", "a", "b"), ("*", "c", "d"), ("-", "e", "f"))),
    ("(a:b:c):d", (":", (":", "a", "b", "c"), "d")),
    ("-a:b", (":", ("u-", "a"), "b")),
    ("-2^2", ("u-", ("^", 2.0, 2.0))),
    ("2^-3", ("^", 2.0, ("u-", 3.0))),
    ("2^-~a", ("^", 2.0, ("u-", ("u~", "a")))),
    ("2^-3^2", ("^", ("^", 2.0, ("u-", 3.0)), 2.0)),
    ("a'^2'", ("^", ("'", "a"), ("'", 2.0))),
    ("a.'.^b", (".^", (".'", "a"), "b")),
    ("~a == b", ("==", ("u~", "a"), "b")),
    ("-a * b", ("*", ("u-", "a"), "b")),
    ("a * -b", ("*", "a", ("u-", "b"))),
    ("- -a", ("u-", ("u-", "a"))),
    ("a - b - c", ("-", ("-", "a", "b"), "c")),
])
def test_pinned_expression_trees(src, tree):
    assert sexpr(parse_expression(src)) == tree


@pytest.mark.parametrize("src, message, col", [
    ("a:b:c:d", "expected 'eof', found ':'", 6),
    ("1 == a:b:c:d", "expected 'eof', found ':'", 11),
    ("a:b:c:d == 1", "expected 'eof', found ':'", 6),
])
def test_a_range_does_not_chain(src, message, col):
    with pytest.raises(ParseError) as err:
        parse_expression(src)
    assert err.value.message == message
    assert (err.value.loc.line, err.value.loc.col) == (1, col)


def test_four_part_range_statement_message():
    with pytest.raises(ParseError) as err:
        parse_script("x = a:b:c:d;")
    assert str(err.value) == \
        "script:1:10: expected end of statement, found ':'"


def test_operator_nodes_carry_the_operator_location():
    e = parse_expression("aa + bb")
    assert (e.loc.line, e.loc.col) == (1, 4)
    e = parse_expression("aa:bb:cc")
    assert isinstance(e, A.Range) and (e.loc.line, e.loc.col) == (1, 3)
    e = parse_expression("x + ...\n  (y * z)")
    assert isinstance(e.rhs, A.BinOp)
    assert (e.rhs.loc.line, e.rhs.loc.col) == (2, 6)


class TestNewlinesInsideGroups:
    def test_invisible_inside_parentheses(self):
        assert sexpr(parse_expression("(a +\n b\n)")) == ("+", "a", "b")
        s = parse_script("y = f(a,\n\n b\n);\nz = 1;")
        assert len(s.body) == 2 and len(s.body[0].value.args) == 2

    def test_row_break_inside_brackets(self):
        e = parse_expression("[a, b\n c, d]")
        assert [len(row) for row in e.rows] == [2, 2]

    def test_bracket_inside_parentheses_still_breaks_rows(self):
        e = parse_expression("f([a\n b])")
        assert [len(row) for row in e.args[0].rows] == [1, 1]

    def test_parentheses_inside_bracket_still_invisible(self):
        e = parse_expression("[f(a,\n b)\n c]")
        assert [len(row) for row in e.rows] == [1, 1]
        assert len(e.rows[0][0].args) == 2

    def test_visible_again_after_the_closing_parenthesis(self):
        s = parse_script("y = (a)\nz = 2")
        assert len(s.body) == 2

    def test_invisible_inside_case_braces(self):
        s = parse_script("switch x\ncase {1,\n 2\n}\n y = 1;\nend")
        assert len(s.body[0].cases[0][0]) == 2

    def test_invisible_inside_function_parameters(self):
        f = parse_function_file("function y = f(a,\n b)\ny = a;")[0]
        assert f.params == ["a", "b"]

    def test_not_invisible_in_multi_assign_targets(self):
        with pytest.raises(ParseError) as err:
            parse_script("[a,\n b] = size(x);")
        assert err.value.message == "unexpected token '\\n' in expression"

    def test_bare_colon_lookahead_does_not_skip_newlines(self):
        with pytest.raises(ParseError) as err:
            parse_expression("a(:\n, 1)")
        assert err.value.message == "unexpected token ':' in expression"


def test_token_stream_helper_calls_per_token():
    """Looking at the current token is a list index: the helper methods
    (peek/at/advance/accept/expect) are entered at most 3 times per token
    over the seven benchmark programs (6.6 ``peek`` calls alone, each with
    three nested calls, before the rewrite)."""
    import sys

    from repro.frontend.lexer import tokenize
    from repro.frontend.parser import Parser
    from tests.corpus import shipped_programs

    streams = [tokenize(src) for label, (src, _m) in shipped_programs().items()
               if label.startswith("e2e/")]
    assert len(streams) == 7
    helpers = {"peek", "at", "advance", "accept", "expect"}
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        code = frame.f_code
        calls += (event == "call" and code.co_name in helpers
                  and code.co_filename.endswith("parser.py"))

    sys.setprofile(profiler)
    try:
        for toks in streams:
            Parser(toks).parse_script()
    finally:
        sys.setprofile(None)
    assert 0 < calls <= 3 * sum(len(toks) for toks in streams)
