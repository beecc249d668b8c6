"""Scanner unit tests."""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexError, ParseError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_script
from repro.frontend.tokens import TokenKind as T
from tests.corpus import all_sources


def kinds(src):
    return [t.kind for t in tokenize(src)][:-1]  # drop EOF


def test_empty_input():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind is T.EOF


def test_simple_assignment():
    assert kinds("x = 3") == [T.IDENT, T.ASSIGN, T.NUMBER]


def test_integer_and_float_literals():
    toks = tokenize("3 3.5 .5 3. 1e3 2.5e-2 7E+2")
    values = [t.value for t in toks if t.kind is T.NUMBER]
    assert values == [3.0, 3.5, 0.5, 3.0, 1000.0, 0.025, 700.0]


def test_imaginary_literals():
    toks = tokenize("3i 2.5j 1e2i")
    assert all(t.kind is T.IMAG_NUMBER for t in toks[:-1])
    assert [t.value for t in toks[:-1]] == [3.0, 2.5, 100.0]


def test_ident_starting_with_i_is_not_imaginary():
    toks = tokenize("3in")  # `3` then ident `in`... lexed as NUMBER, IDENT
    assert toks[0].kind is T.NUMBER
    assert toks[1].kind is T.IDENT and toks[1].text == "in"


def test_malformed_exponent_raises():
    with pytest.raises(LexError):
        tokenize("1e+")


def test_keywords_recognized():
    assert kinds("if else elseif end for while break continue return") == [
        T.IF, T.ELSE, T.ELSEIF, T.END, T.FOR, T.WHILE, T.BREAK,
        T.CONTINUE, T.RETURN]


def test_function_keyword_and_switch():
    assert kinds("function switch case otherwise global") == [
        T.FUNCTION, T.SWITCH, T.CASE, T.OTHERWISE, T.GLOBAL]


def test_keyword_prefix_is_ident():
    toks = tokenize("iffy, ending")
    assert toks[0].kind is T.IDENT and toks[0].text == "iffy"
    assert toks[2].kind is T.IDENT and toks[2].text == "ending"


def test_two_char_operators():
    assert kinds("== ~= <= >= && || .* ./ .^ .'") == [
        T.EQ, T.NE, T.LE, T.GE, T.ANDAND, T.OROR,
        T.DOTSTAR, T.DOTSLASH, T.DOTCARET, T.DOTTRANSPOSE]


def test_dot_backslash():
    assert kinds("a .\\ b") == [T.IDENT, T.DOTBACKSLASH, T.IDENT]


def test_one_char_operators():
    assert kinds("+ - * / \\ ^ < > & | ~ : ; , @") == [
        T.PLUS, T.MINUS, T.STAR, T.SLASH, T.BACKSLASH, T.CARET,
        T.LT, T.GT, T.AND, T.OR, T.NOT, T.COLON, T.SEMI, T.COMMA, T.AT]


class TestQuoteDisambiguation:
    def test_string_after_assign(self):
        toks = tokenize("x = 'hello'")
        assert toks[2].kind is T.STRING and toks[2].value == "hello"

    def test_transpose_after_ident(self):
        assert kinds("x'") == [T.IDENT, T.TRANSPOSE]

    def test_transpose_after_rparen(self):
        assert kinds("(x)'") == [T.LPAREN, T.IDENT, T.RPAREN, T.TRANSPOSE]

    def test_transpose_after_rbracket(self):
        assert kinds("[1]'") == [T.LBRACKET, T.NUMBER, T.RBRACKET,
                                 T.TRANSPOSE]

    def test_transpose_after_number(self):
        assert kinds("3'") == [T.NUMBER, T.TRANSPOSE]

    def test_double_transpose(self):
        assert kinds("x''") == [T.IDENT, T.TRANSPOSE, T.TRANSPOSE]

    def test_string_after_comma(self):
        toks = tokenize("f(x, 'mode')")
        assert toks[4].kind is T.STRING

    def test_string_escaped_quote(self):
        toks = tokenize("x = 'it''s'")
        assert toks[2].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("x = 'oops")

    def test_string_not_across_newline(self):
        with pytest.raises(LexError):
            tokenize("x = 'one\ntwo'")


class TestCommentsAndContinuation:
    def test_comment_to_eol(self):
        assert kinds("x = 1 % comment here\ny = 2") == [
            T.IDENT, T.ASSIGN, T.NUMBER, T.NEWLINE,
            T.IDENT, T.ASSIGN, T.NUMBER]

    def test_comment_only_line(self):
        assert kinds("% nothing\n") == [T.NEWLINE]

    def test_continuation_swallows_newline(self):
        assert kinds("x = 1 + ...\n    2") == [
            T.IDENT, T.ASSIGN, T.NUMBER, T.PLUS, T.NUMBER]

    def test_continuation_with_trailing_comment(self):
        assert kinds("x = 1 + ... this is ignored\n 2") == [
            T.IDENT, T.ASSIGN, T.NUMBER, T.PLUS, T.NUMBER]

    def test_percent_inside_string_is_text(self):
        toks = tokenize("fprintf('100%%')")
        assert toks[2].kind is T.STRING and toks[2].value == "100%%"


class TestNumbersVsOperators:
    def test_number_dot_star_is_op(self):
        # `2.*x` is 2 .* x, not 2. * x ambiguity — both parse the same
        assert kinds("2.*x") == [T.NUMBER, T.DOTSTAR, T.IDENT]

    def test_number_dot_caret(self):
        assert kinds("2.^x") == [T.NUMBER, T.DOTCARET, T.IDENT]

    def test_range_of_numbers(self):
        assert kinds("1:10") == [T.NUMBER, T.COLON, T.NUMBER]


def test_locations_track_lines_and_columns():
    toks = tokenize("x = 1\ny = 2")
    assert toks[0].loc.line == 1 and toks[0].loc.col == 1
    y = [t for t in toks if t.text == "y"][0]
    assert y.loc.line == 2 and y.loc.col == 1


def test_unexpected_character():
    with pytest.raises(LexError):
        tokenize("x = $")


# -------------------------------------------------------------------------- #
# the token stream, pinned (tests/golden/token_streams.json was generated by
# the per-character scanner this one replaced)
# -------------------------------------------------------------------------- #

GOLDEN = json.loads((Path(__file__).parent.parent / "golden"
                     / "token_streams.json").read_text(encoding="utf-8"))
SOURCES = all_sources()


def render(toks):
    return [[t.kind.name, t.text, t.value, t.loc.line, t.loc.col]
            for t in toks]


@pytest.mark.parametrize("case", GOLDEN["tricky"], ids=lambda c: repr(c["src"]))
def test_pinned_token_stream(case):
    if "error" in case:
        with pytest.raises(LexError) as err:
            tokenize(case["src"])
        assert [err.value.message, err.value.loc.line,
                err.value.loc.col] == case["error"]
    else:
        assert render(tokenize(case["src"])) == case["tokens"]


def test_golden_covers_the_listed_cases():
    pinned = {case["src"] for case in GOLDEN["tricky"]}
    assert {"a = b';c='it''s';", "1.^2", "2.'", ".5e-3", "3.e2", "3i", "4.5j",
            "3ij", "2e", "a(end)'", "[1, 2]''", "x = [1, 2 ...% c\n 3];",
            "a = 1;\r\nb = a';\r\n", "x = 1; % done", "'abc", "1...",
            "#"} <= pinned


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_corpus_token_stream_sha(label):
    stream = [tuple(t) for t in render(tokenize(SOURCES[label], label))]
    assert hashlib.sha256(repr(stream).encode()).hexdigest() \
        == GOLDEN["corpus_sha256"][label]


def test_golden_sha_covers_the_corpus():
    assert set(GOLDEN["corpus_sha256"]) == set(SOURCES)


# -------------------------------------------------------------------------- #
# failing closed: LexError or a token list, never anything else
# -------------------------------------------------------------------------- #


def scan_and_parse_fail_closed(src):
    try:
        toks = tokenize(src)
    except LexError as err:
        assert err.loc.line >= 1 and err.loc.col >= 1
        with pytest.raises(LexError):
            parse_script(src)
        return
    assert toks[-1].kind is T.EOF
    assert all(t.kind is not T.EOF for t in toks[:-1])
    try:
        parse_script(src)
    except ParseError:
        pass


@pytest.mark.parametrize("src", [
    "x = ²;",       # str.isdigit() accepts it, float() does not
    "x = 1²;",
    "x = ٣;",       # float() accepts it; the language does not
    "½x = 1;",      # numeric, but neither a digit nor a letter
    "x = 1 \x0b 2;",
    "x = \x00;",
])
def test_non_ascii_digits_and_controls_are_lex_errors(src):
    with pytest.raises(LexError) as err:
        tokenize(src)
    assert "unexpected character" in err.value.message
    assert err.value.loc.line == 1 and err.value.loc.col >= 1


def test_unexpected_character_location():
    with pytest.raises(LexError) as err:
        tokenize("a = 1;\n  b = ²;", "prog.m")
    assert str(err.value) == "prog.m:2:7: unexpected character '²'"


@pytest.mark.parametrize("src, col", [
    ("é = 2;", 1),              # emitted Python NFKC-folds identifiers:
    ("µ = 1; μ = 2;", 1),       # these two were one variable once compiled
    ("x² = 1;", 2),             # str.isalnum() accepts it; no Python
    ("x½ = 1;", 2),             # identifier contains it
    ("3iπ", 3),
])
def test_identifiers_are_ascii(src, col):
    with pytest.raises(LexError) as err:
        tokenize(src)
    assert err.value.message == f"unexpected character {src[col - 1]!r}"
    assert (err.value.loc.line, err.value.loc.col) == (1, col)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_arbitrary_text_fails_closed(src):
    scan_and_parse_fail_closed(src)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_corpus_programs_fail_closed(data):
    src = SOURCES[data.draw(st.sampled_from(sorted(SOURCES)))]
    at = data.draw(st.integers(0, len(src)))
    char = data.draw(st.characters())
    keep = data.draw(st.booleans())     # insert, or replace one character
    scan_and_parse_fail_closed(src[:at] + char + src[at + (not keep):])


#: (opener, closer) pairs that nest: each opener costs the parser frames
_NESTERS = [("(", ")"), ("[", "]"), ("-", ""), ("~", ""), ("abs(", ")"),
            ("v(", ")"), ("2^-", ""), ("(1+", ")"), ("[1, ", "]"),
            ("if 1\n", "\nend"), ("for k = 1:2\n", "\nend"),
            ("while 0\n", "\nend"), ("switch 1\ncase {", "}\nend")]


@st.composite
def deeply_nested(draw):
    """A program nested 0-3000 deep in runs of one or several
    constructs, balanced or cut short anywhere."""
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        layers += [draw(st.sampled_from(_NESTERS))] \
            * draw(st.sampled_from((0, 1, 30, 150, 400, 1000)))
    src = "".join(opener for opener, _ in layers) + "1" \
        + "".join(closer for _, closer in reversed(layers))
    if draw(st.booleans()):
        src = "x = " + src
    return src[:draw(st.integers(0, len(src)))] if draw(st.booleans()) \
        else src


@settings(max_examples=60, deadline=None)
@given(deeply_nested())
def test_deeply_nested_programs_fail_closed(src):
    """Whatever exhausts the recursive descent is a ParseError too."""
    scan_and_parse_fail_closed(src)


def test_no_python_call_per_source_character():
    """A comment-and-blank-only source costs O(lines) Python-level calls
    (one NEWLINE token per line), not O(characters)."""
    lines = 100
    src = ("    % " + "comment text " * 8 + "\n") * lines
    assert len(src) > 10_000
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profiler)
    try:
        toks = tokenize(src)
    finally:
        sys.setprofile(None)
    assert len(toks) == lines + 1
    assert calls <= 4 * lines + 10
