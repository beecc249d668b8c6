"""One-regex MATLAB scanner.

The original Otter used ``lex``; this is the equivalent scanner: one
compiled master pattern matched once per token, so no Python code runs per
source *character*.  Everything context-free lives in the pattern:

* ``%`` starts a comment running to end of line.
* ``...`` is a line continuation: the rest of the line (a comment, usually)
  and the newline are discarded.
* Numbers accept ``3``, ``3.``, ``.5``, ``3.5e-2`` and an ``i``/``j`` suffix
  marking an imaginary literal.  Digits are ``[0-9]`` only — ``\\d`` and
  ``str.isdigit`` accept characters ``float()`` rejects.  A dot followed by
  an operator character stays with the operator (``1.^2``, ``2.'``).
* Identifiers are ``[A-Za-z_][A-Za-z0-9_]*``; keywords are told apart by a
  table lookup.
* Newlines are significant (they terminate statements) and are emitted as
  :data:`TokenKind.NEWLINE` tokens.

The one context-sensitive rule lives outside it, in the loop: ``'`` is
*transpose* when it follows a value-producing token (identifier, number,
``)``, ``]``, ``}``, ``end`` or another transpose) — white space in
between or not — and a *string delimiter* otherwise.  Inside strings,
``''`` is an escaped quote.

Locations are arithmetic: the loop keeps the current line number and the
offset where that line starts, and a token's column is its offset from
there.  Anything the pattern cannot start a token with is a
:class:`LexError` naming the character and its ``file:line:col``.
"""

from __future__ import annotations

import re

from ..errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

# Tokens after which a quote means transpose rather than a string literal.
_TRANSPOSE_CONTEXT = {
    TokenKind.IDENT,
    TokenKind.NUMBER,
    TokenKind.IMAG_NUMBER,
    TokenKind.RPAREN,
    TokenKind.RBRACKET,
    TokenKind.RBRACE,
    TokenKind.TRANSPOSE,
    TokenKind.DOTTRANSPOSE,
    TokenKind.STRING,
    TokenKind.END,  # `end` used as an index: a(end)' is a transpose
}

_OPERATORS = {
    "==": TokenKind.EQ,
    "~=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.ANDAND,
    "||": TokenKind.OROR,
    ".*": TokenKind.DOTSTAR,
    "./": TokenKind.DOTSLASH,
    ".\\": TokenKind.DOTBACKSLASH,
    ".^": TokenKind.DOTCARET,
    ".'": TokenKind.DOTTRANSPOSE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    "=": TokenKind.ASSIGN,
    ":": TokenKind.COLON,
    "@": TokenKind.AT,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "\\": TokenKind.BACKSLASH,
    "^": TokenKind.CARET,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "&": TokenKind.AND,
    "|": TokenKind.OR,
    "~": TokenKind.NOT,
    ".": TokenKind.DOT,
}

# `1.^2` and `2.'` keep the dot with the operator; any other dot after the
# integer part belongs to the number (`3.`, `3.e2`, even the `1.` of `1...`).
# An `e` commits to an exponent: `2e` with no digits is an error, not `2`
# followed by an identifier.
_NUMBER = r"(?:[0-9]+(?:\.(?![*/\\^'])[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?"

# The insignificant prefix (blanks and one comment) never holds a newline,
# so columns stay `offset - line_start`.  Alternatives are ordered so that
# `...` and `.5` are tried before the operator `.`, and the imaginary form
# before the real one (a shorter mantissa is never followed by `i`/`j`, so
# backtracking cannot split a literal).  Identifiers are ASCII, as in MATLAB:
# the emitted Python would NFKC-fold other letters (`µ` and `μ` into one
# variable) and has no identifier `x²` at all.
_MASTER = re.compile(
    r"[ \t\r]*(?:%[^\n]*)?(?:"
    r"([A-Za-z_][A-Za-z0-9_]*)"          # 1 identifier / keyword
    r"|(\.\.\.[^\n]*\n?)"                # 2 continuation
    r"|(" + _NUMBER + r")[ij](?![A-Za-z0-9_])"  # 3 imaginary (sans suffix)
    r"|(" + _NUMBER + r")"                # 4 real literal
    r"|(==|~=|<=|>=|&&|\|\||\.[*/\\^']|[()\[\]{},;=:@+\-*/\\^<>&|~.])"  # 5
    r"|(\n)"                             # 6
    r"|(')"                               # 7 transpose or string opener
    r")?")
_IDENT, _CONTINUATION, _IMAG, _REAL, _OP, _NEWLINE, _QUOTE = range(1, 8)

# Body and closing quote of a string literal, from just after the opener;
# `''` is always an escape, so the closing quote is one not followed by another.
_STRING_REST = re.compile(r"((?:[^'\n]|'')*)'(?!')")


def tokenize(source: str, filename: str = "<script>") -> list[Token]:
    """Tokenize ``source`` and return the full token list ending in EOF."""
    out: list[Token] = []
    match = _MASTER.match
    pos = 0
    line = 1
    line_start = 0      # offset of the first character of `line`
    prev_kind = None
    while True:
        m = match(source, pos)
        group = m.lastindex
        if group is None:       # nothing but blanks / a comment matched
            pos = m.end()
            loc = SourceLocation(filename, line, pos - line_start + 1)
            if pos < len(source):
                raise LexError(f"unexpected character {source[pos]!r}", loc)
            out.append(Token(TokenKind.EOF, "", loc))
            return out
        start, pos = m.span(group)
        if group == _CONTINUATION:
            if source[pos - 1] == "\n":
                line += 1
                line_start = pos
            continue
        text = source[start:pos]
        loc = SourceLocation(filename, line, start - line_start + 1)
        value = None
        if group == _IDENT:
            kind = KEYWORDS.get(text, TokenKind.IDENT)
        elif group == _OP:
            kind = _OPERATORS[text]
        elif group == _REAL or group == _IMAG:
            if text[-1] in "eE+-":
                raise LexError("malformed exponent in numeric literal", loc)
            kind = TokenKind.NUMBER
            value = float(text)
            if group == _IMAG:
                kind = TokenKind.IMAG_NUMBER
                pos += 1        # the suffix is not part of the token text
        elif group == _NEWLINE:
            kind = TokenKind.NEWLINE
            line += 1
            line_start = pos
        elif prev_kind in _TRANSPOSE_CONTEXT:   # _QUOTE from here on
            kind = TokenKind.TRANSPOSE
        else:
            rest = _STRING_REST.match(source, pos)
            if rest is None:
                raise LexError("unterminated string literal", loc)
            kind = TokenKind.STRING
            value = rest.group(1).replace("''", "'")
            text = f"'{value}'"
            pos = rest.end()
        out.append(Token(kind, text, loc, value))
        prev_kind = kind
