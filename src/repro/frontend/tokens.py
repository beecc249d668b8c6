"""Token kinds for the MATLAB scanner.

The token set covers the MATLAB subset the paper's compiler accepts.  As in
the paper, list elements must be comma-delimited: the scanner never treats
white space as an element separator inside ``[ ]`` (Section 3: "we do not
support the use of white space to delimit list elements").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import SourceLocation


class TokenKind(enum.Enum):
    # literals / identifiers
    NUMBER = "number"            # 3, 3.5, 1e-3  (value: float)
    IMAG_NUMBER = "imag_number"  # 3i, 2.5j      (value: float, imaginary part)
    STRING = "string"            # 'hello'       (value: str)
    IDENT = "ident"

    # keywords
    IF = "if"
    ELSEIF = "elseif"
    ELSE = "else"
    END = "end"
    FOR = "for"
    WHILE = "while"
    BREAK = "break"
    CONTINUE = "continue"
    RETURN = "return"
    FUNCTION = "function"
    SWITCH = "switch"
    CASE = "case"
    OTHERWISE = "otherwise"
    GLOBAL = "global"

    # punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMI = ";"
    NEWLINE = "\\n"
    ASSIGN = "="
    COLON = ":"
    AT = "@"

    # operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    BACKSLASH = "\\"
    CARET = "^"
    DOTSTAR = ".*"
    DOTSLASH = "./"
    DOTBACKSLASH = ".\\"
    DOTCARET = ".^"
    TRANSPOSE = "'"    # complex-conjugate transpose
    DOTTRANSPOSE = ".'"
    EQ = "=="
    NE = "~="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND = "&"
    OR = "|"
    ANDAND = "&&"
    OROR = "||"
    NOT = "~"
    DOT = "."

    EOF = "eof"

    # Members are singletons compared by identity; Enum's own __hash__ is a
    # Python-level call on every dict and set lookup the parser makes.
    __hash__ = object.__hash__


KEYWORDS = {
    "if": TokenKind.IF,
    "elseif": TokenKind.ELSEIF,
    "else": TokenKind.ELSE,
    "end": TokenKind.END,
    "for": TokenKind.FOR,
    "while": TokenKind.WHILE,
    "break": TokenKind.BREAK,
    "continue": TokenKind.CONTINUE,
    "return": TokenKind.RETURN,
    "function": TokenKind.FUNCTION,
    "switch": TokenKind.SWITCH,
    "case": TokenKind.CASE,
    "otherwise": TokenKind.OTHERWISE,
    "global": TokenKind.GLOBAL,
}


@dataclass(slots=True)      # not frozen: that costs four
class Token:                # object.__setattr__ calls per token scanned
    kind: TokenKind
    text: str
    loc: SourceLocation = field(compare=False, default_factory=SourceLocation)
    value: object = None  # numeric value for NUMBER / IMAG_NUMBER, str for STRING

    def __repr__(self) -> str:
        if self.value is not None and self.kind is not TokenKind.IDENT:
            return f"Token({self.kind.name}, {self.value!r})"
        return f"Token({self.kind.name}, {self.text!r})"
