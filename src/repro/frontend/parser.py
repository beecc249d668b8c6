"""Recursive-descent statement parser, precedence-climbing expression
parser, for the MATLAB subset (pass 1).

The original Otter used ``yacc``; this is an equivalent hand-written parser
producing the AST in :mod:`repro.frontend.ast_nodes`.  Notable behaviour,
matching the paper:

* List elements (matrix-literal entries, argument lists) must be separated
  by commas — white-space delimiting is rejected (Section 3 of the paper).
* ``x(e)`` parses to an :class:`Apply` node; whether it is indexing or a
  function call is decided by identifier resolution (pass 2).
* Newlines terminate statements at the top level, separate matrix rows
  inside ``[ ]``, and are insignificant inside ``( )`` and ``case { }``:
  there the parser steps over them as it advances, so looking at the
  current token is a plain list index.

Operator precedence (loosest to tightest), as in MATLAB:
``||``  <  ``&&``  <  ``|``  <  ``&``  <  comparisons  <  ``:``  <
``+ -``  <  ``* / \\ .* ./ .\\``  <  unary ``+ - ~``  <  ``^ .^``  <
transpose.  The binary levels of that list are the table
:data:`_BINARY_LEVELS`, which one precedence-climbing loop
(:meth:`Parser._expression`) walks; every level is left-associative except
``:``, which builds a two- or three-part :class:`Range` and does not chain.
"""

from __future__ import annotations

from ..errors import ParseError, SourceLocation
from . import ast_nodes as A
from .lexer import tokenize
from .tokens import Token, TokenKind as T

# Binary operator levels, loosest first: the docstring's list, as data.
_BINARY_LEVELS = (
    (T.OROR,),
    (T.ANDAND,),
    (T.OR,),
    (T.AND,),
    (T.EQ, T.NE, T.LT, T.GT, T.LE, T.GE),
    (T.COLON,),
    (T.PLUS, T.MINUS),
    (T.STAR, T.SLASH, T.BACKSLASH, T.DOTSTAR, T.DOTSLASH, T.DOTBACKSLASH),
)
_LEVEL = {kind: level for level, kinds in enumerate(_BINARY_LEVELS, 1)
          for kind in kinds}
_RANGE_LEVEL = _LEVEL[T.COLON]
_TIGHTEST = len(_BINARY_LEVELS)
_SIGN_OPS = {T.MINUS, T.PLUS, T.NOT}
_POW_OPS = {T.CARET, T.DOTCARET}
_TRANSPOSE_OPS = {T.TRANSPOSE, T.DOTTRANSPOSE}

_BLOCK_ENDERS = {T.END, T.ELSE, T.ELSEIF, T.CASE, T.OTHERWISE, T.FUNCTION, T.EOF}
_JUMPS = {T.BREAK: A.Break, T.CONTINUE: A.Continue, T.RETURN: A.Return}


class Parser:
    def __init__(self, tokens: list[Token], filename: str = "<script>"):
        self.toks = tokens      # ends in EOF, which `advance` never passes
        self.i = 0
        self.filename = filename
        # Are newlines invisible at the current nesting depth (inside
        # `( )` / `case { }`), and the same for the enclosing groups.
        # While they are, `self.i` never rests on a NEWLINE.
        self._invisible = False
        self._enclosing: list[bool] = []

    # ------------------------------------------------------------------ #
    # token-stream helpers
    # ------------------------------------------------------------------ #

    def peek(self, ahead: int) -> Token:
        """The token ``ahead`` past ``self.toks[self.i]`` (EOF beyond the end)."""
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def at(self, *kinds: T) -> bool:
        return self.toks[self.i].kind in kinds

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not T.EOF:
            self.i += 1
            if self._invisible:
                while self.toks[self.i].kind is T.NEWLINE:
                    self.i += 1
        return tok

    def _open(self, newlines_invisible: bool) -> None:
        """Enter a bracketed group, just after its opening token."""
        self._enclosing.append(self._invisible)
        self._invisible = newlines_invisible
        if newlines_invisible:
            while self.toks[self.i].kind is T.NEWLINE:
                self.i += 1

    def _close(self) -> None:
        """Leave the group, just before its closing token is consumed."""
        self._invisible = self._enclosing.pop()

    def accept(self, kind: T) -> Token | None:
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: T, what: str = "") -> Token:
        tok = self.toks[self.i]
        if tok.kind is not kind:
            wanted = what or kind.value
            raise ParseError(f"expected {wanted!r}, found {tok.text!r}", tok.loc)
        return self.advance()

    def error(self, message: str, loc: SourceLocation | None = None) -> ParseError:
        return ParseError(message, loc or self.toks[self.i].loc)

    def _too_deep(self) -> ParseError:
        """What the entry points raise when the recursive descent ran out
        of Python stack (at the token it had reached): a program nested
        that deeply is a syntax error, not a crash."""
        return self.error("expression nested too deeply")

    # ------------------------------------------------------------------ #
    # program units
    # ------------------------------------------------------------------ #

    def parse_script(self, name: str = "script") -> A.Script:
        """Parse a script M-file: a statement list with no function defs."""
        if self._file_is_function():
            raise self.error("expected a script, found a function M-file")
        try:
            body = self._stmt_list(stop={T.EOF})
        except RecursionError:
            raise self._too_deep() from None
        self.expect(T.EOF)
        return A.Script(name=name, body=body)

    def parse_function_file(self) -> list[A.FunctionDef]:
        """Parse a function M-file: a primary function plus subfunctions."""
        self._skip_separators()
        funcs: list[A.FunctionDef] = []
        try:
            while self.at(T.FUNCTION):
                funcs.append(self._function_def())
                self._skip_separators()
        except RecursionError:
            raise self._too_deep() from None
        if not funcs:
            raise self.error("expected 'function'")
        self.expect(T.EOF)
        return funcs

    def parse_unit(self, name: str) -> A.Script | list[A.FunctionDef]:
        """Parse either kind of M-file, dispatching on the first token."""
        if self._file_is_function():
            return self.parse_function_file()
        return self.parse_script(name)

    def _file_is_function(self) -> bool:
        j = self.i
        while j < len(self.toks) and self.toks[j].kind in (T.NEWLINE, T.SEMI):
            j += 1
        return j < len(self.toks) and self.toks[j].kind is T.FUNCTION

    def _function_def(self) -> A.FunctionDef:
        loc = self.expect(T.FUNCTION).loc
        returns: list[str] = []
        # Three header forms:  function name(...)
        #                      function out = name(...)
        #                      function [o1, o2] = name(...)
        if self.at(T.LBRACKET):
            self.advance()
            while not self.at(T.RBRACKET):
                returns.append(self.expect(T.IDENT).text)
                if not self.accept(T.COMMA):
                    break
            self.expect(T.RBRACKET)
            self.expect(T.ASSIGN)
            name = self.expect(T.IDENT).text
        else:
            first = self.expect(T.IDENT).text
            if self.accept(T.ASSIGN):
                returns = [first]
                name = self.expect(T.IDENT).text
            else:
                name = first
        params: list[str] = []
        if self.accept(T.LPAREN):
            self._open(True)
            while not self.at(T.RPAREN):
                params.append(self.expect(T.IDENT).text)
                if not self.accept(T.COMMA):
                    break
            self._close()
            self.expect(T.RPAREN)
        # the body ends at the next function, the end of the file, or
        # the ``end`` that closes the function (an ``end`` that closes a
        # block is consumed by that block's own parser)
        body = self._stmt_list(stop={T.FUNCTION, T.EOF, T.END})
        self.accept(T.END)
        return A.FunctionDef(loc=loc, name=name, params=params, returns=returns, body=body)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _skip_separators(self) -> None:
        while self.at(T.NEWLINE, T.SEMI, T.COMMA):
            self.advance()

    def _stmt_list(self, stop: set[T]) -> list[A.Stmt]:
        body: list[A.Stmt] = []
        self._skip_separators()
        while not self.at(*stop):
            body.append(self._statement())
            self._skip_separators()
        return body

    def _terminator(self) -> bool:
        """Consume a statement terminator; return True if output suppressed."""
        tok = self.toks[self.i]
        if tok.kind is T.SEMI:
            self.advance()
            return True
        if tok.kind in (T.COMMA, T.NEWLINE):
            self.advance()
            return False
        if tok.kind in _BLOCK_ENDERS:
            return False
        raise self.error(f"expected end of statement, found {tok.text!r}")

    def _statement(self) -> A.Stmt:
        tok = self.toks[self.i]
        if tok.kind is T.IF:
            return self._if_stmt()
        if tok.kind is T.FOR:
            return self._for_stmt()
        if tok.kind is T.WHILE:
            return self._while_stmt()
        if tok.kind is T.SWITCH:
            return self._switch_stmt()
        if tok.kind in _JUMPS:
            self.advance()
            self._terminator()
            return _JUMPS[tok.kind](loc=tok.loc)
        if tok.kind is T.GLOBAL:
            self.advance()
            names = [self.expect(T.IDENT).text]
            # `global a, b` declares both, but `global a, b = 1` is a
            # global statement followed by an assignment.
            while (self.at(T.COMMA) and self.peek(1).kind is T.IDENT
                   and self.peek(2).kind is not T.ASSIGN
                   and self.peek(2).kind is not T.LPAREN):
                self.advance()
                names.append(self.expect(T.IDENT).text)
            self._terminator()
            return A.Global(loc=tok.loc, names=names)
        if tok.kind is T.LBRACKET:
            multi = self._try_multi_assign()
            if multi is not None:
                return multi
        return self._simple_stmt()

    def _try_multi_assign(self) -> A.MultiAssign | None:
        """Attempt ``[a, b(i)] = f(...)``; backtrack on failure."""
        save = self.i
        loc = self.toks[self.i].loc
        try:
            self.advance()  # '['
            targets: list[A.LValue] = []
            while True:
                targets.append(self._lvalue())
                if not self.accept(T.COMMA):
                    break
            self.expect(T.RBRACKET)
            self.expect(T.ASSIGN)
        except ParseError:
            self.i = save
            return None
        rhs = self._expression()
        if not isinstance(rhs, A.Apply):
            raise self.error("right-hand side of [..] = must be a function call", loc)
        suppressed = self._terminator()
        return A.MultiAssign(loc=loc, targets=targets, call=rhs, display=not suppressed)

    def _lvalue(self) -> A.LValue:
        tok = self.expect(T.IDENT)
        if self.at(T.LPAREN):
            args = self._apply_args()
            return A.IndexLValue(loc=tok.loc, name=tok.text, args=args)
        return A.NameLValue(loc=tok.loc, name=tok.text)

    def _simple_stmt(self) -> A.Stmt:
        loc = self.toks[self.i].loc
        expr = self._expression()
        if self.at(T.ASSIGN):
            self.advance()
            target = self._expr_to_lvalue(expr)
            value = self._expression()
            suppressed = self._terminator()
            return A.Assign(loc=loc, target=target, value=value, display=not suppressed)
        suppressed = self._terminator()
        return A.ExprStmt(loc=loc, value=expr, display=not suppressed)

    def _expr_to_lvalue(self, expr: A.Expr) -> A.LValue:
        if isinstance(expr, A.Ident):
            return A.NameLValue(loc=expr.loc, name=expr.name)
        if isinstance(expr, A.Apply):
            return A.IndexLValue(loc=expr.loc, name=expr.name, args=expr.args)
        raise self.error("invalid assignment target", expr.loc)

    def _if_stmt(self) -> A.If:
        loc = self.toks[self.i].loc
        branches: list[tuple[A.Expr, list[A.Stmt]]] = []
        while self.accept(T.ELSEIF if branches else T.IF):
            cond = self._expression()
            branches.append((cond, self._stmt_list(stop=_BLOCK_ENDERS)))
        orelse = self._stmt_list(stop=_BLOCK_ENDERS) \
            if self.accept(T.ELSE) else []
        self.expect(T.END)
        return A.If(loc=loc, branches=branches, orelse=orelse)

    def _for_stmt(self) -> A.For:
        loc = self.expect(T.FOR).loc
        var = self.expect(T.IDENT).text
        self.expect(T.ASSIGN)
        iterable = self._expression()
        body = self._stmt_list(stop=_BLOCK_ENDERS)
        self.expect(T.END)
        return A.For(loc=loc, var=var, iterable=iterable, body=body)

    def _while_stmt(self) -> A.While:
        loc = self.expect(T.WHILE).loc
        cond = self._expression()
        body = self._stmt_list(stop=_BLOCK_ENDERS)
        self.expect(T.END)
        return A.While(loc=loc, cond=cond, body=body)

    def _switch_stmt(self) -> A.Switch:
        loc = self.expect(T.SWITCH).loc
        subject = self._expression()
        self._skip_separators()
        cases: list[tuple[list[A.Expr], list[A.Stmt]]] = []
        otherwise: list[A.Stmt] = []
        while self.at(T.CASE):
            self.advance()
            values: list[A.Expr]
            if self.at(T.LBRACE):
                self.advance()
                self._open(True)
                values = [self._expression()]
                while self.accept(T.COMMA):
                    values.append(self._expression())
                self._close()
                self.expect(T.RBRACE)
            else:
                values = [self._expression()]
            body = self._stmt_list(stop=_BLOCK_ENDERS)
            cases.append((values, body))
        if self.accept(T.OTHERWISE):
            otherwise = self._stmt_list(stop=_BLOCK_ENDERS)
        self.expect(T.END)
        return A.Switch(loc=loc, subject=subject, cases=cases, otherwise=otherwise)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #

    def _expression(self, min_level: int = 1) -> A.Expr:
        """Precedence climbing: an operand, then every binary operator of
        level ``min_level`` or tighter, each taking a right operand of
        strictly tighter operators (left associativity)."""
        lhs = self._unary()
        max_level = _TIGHTEST
        while True:
            op = self.toks[self.i]
            level = _LEVEL.get(op.kind, 0)
            if not min_level <= level <= max_level:
                return lhs
            self.advance()
            if level == _RANGE_LEVEL:
                second = self._expression(level + 1)
                if self.toks[self.i].kind is T.COLON:
                    self.advance()
                    lhs = A.Range(loc=op.loc, start=lhs, step=second,
                                  stop=self._expression(level + 1))
                else:
                    lhs = A.Range(loc=op.loc, start=lhs, stop=second, step=None)
                # `a:b:c:d` does not chain: no frame, this one or an outer
                # one holding a looser operator, may take the next `:`
                max_level = level - 1
            else:
                lhs = A.BinOp(loc=op.loc, op=op.text, lhs=lhs,
                              rhs=self._expression(level + 1))
                max_level = level

    def _unary(self) -> A.Expr:
        tok = self.toks[self.i]
        if tok.kind in _SIGN_OPS:
            self.advance()
            operand = self._unary()
            return A.UnaryOp(loc=tok.loc, op=tok.text, operand=operand)
        return self._power()

    def _power(self) -> A.Expr:
        expr = self._postfix()
        # MATLAB's ^ is left-associative; its exponent may carry a unary
        # sign: 2^-3.
        while self.toks[self.i].kind in _POW_OPS:
            op = self.advance()
            expr = A.BinOp(loc=op.loc, op=op.text, lhs=expr,
                           rhs=self._power_operand())
        return expr

    def _power_operand(self) -> A.Expr:
        tok = self.toks[self.i]
        if tok.kind in _SIGN_OPS:
            self.advance()
            return A.UnaryOp(loc=tok.loc, op=tok.text, operand=self._power_operand())
        return self._postfix()

    def _postfix(self) -> A.Expr:
        expr = self._primary()
        while self.toks[self.i].kind in _TRANSPOSE_OPS:
            tok = self.advance()
            expr = A.Transpose(
                loc=tok.loc, operand=expr, conjugate=(tok.kind is T.TRANSPOSE)
            )
        return expr

    def _primary(self) -> A.Expr:
        tok = self.toks[self.i]
        if tok.kind is T.NUMBER:
            self.advance()
            return A.Num(loc=tok.loc, value=float(tok.value))
        if tok.kind is T.IMAG_NUMBER:
            self.advance()
            return A.ImagNum(loc=tok.loc, value=float(tok.value))
        if tok.kind is T.STRING:
            self.advance()
            return A.Str(loc=tok.loc, value=str(tok.value))
        if tok.kind is T.IDENT:
            self.advance()
            if self.toks[self.i].kind is T.LPAREN:
                args = self._apply_args()
                return A.Apply(loc=tok.loc, name=tok.text, args=args)
            return A.Ident(loc=tok.loc, name=tok.text)
        if tok.kind is T.END:
            # Only meaningful inside a subscript; resolution validates that.
            self.advance()
            return A.EndRef(loc=tok.loc)
        if tok.kind is T.LPAREN:
            self.advance()
            self._open(True)
            inner = self._expression()
            self._close()
            self.expect(T.RPAREN)
            return inner
        if tok.kind is T.LBRACKET:
            return self._matrix_literal()
        raise self.error(f"unexpected token {tok.text!r} in expression")

    def _apply_args(self) -> list[A.Expr]:
        self.expect(T.LPAREN)
        self._open(True)
        args: list[A.Expr] = []
        if not self.at(T.RPAREN):
            while True:
                args.append(self._subscript_expr())
                if not self.accept(T.COMMA):
                    break
        self._close()
        self.expect(T.RPAREN)
        return args

    def _subscript_expr(self) -> A.Expr:
        # A bare ':' (whole dimension) is only legal directly as an argument.
        if self.at(T.COLON) and self.peek(1).kind in (T.COMMA, T.RPAREN):
            tok = self.advance()
            return A.Colon(loc=tok.loc)
        return self._expression()

    def _matrix_literal(self) -> A.MatrixLit:
        loc = self.expect(T.LBRACKET).loc
        self._open(False)
        rows: list[list[A.Expr]] = []
        current: list[A.Expr] = []
        # skip leading newlines: `[<newline> 1, 2]`
        while self.at(T.NEWLINE):
            self.advance()
        while not self.at(T.RBRACKET):
            current.append(self._expression())
            if self.accept(T.COMMA):
                continue
            if self.at(T.SEMI, T.NEWLINE):
                while self.at(T.SEMI, T.NEWLINE):
                    self.advance()
                if current:
                    rows.append(current)
                    current = []
                continue
            if self.at(T.RBRACKET):
                break
            # Anything else is the unsupported white-space delimiter form.
            raise self.error(
                "list elements must be comma-delimited "
                "(white-space delimiting is not supported)"
            )
        if current:
            rows.append(current)
        self._close()
        self.expect(T.RBRACKET)
        return A.MatrixLit(loc=loc, rows=rows)


# ---------------------------------------------------------------------- #
# public helpers
# ---------------------------------------------------------------------- #


def parse_script(source: str, name: str = "script",
                 tokens: list[Token] | None = None) -> A.Script:
    """Parse MATLAB script source text into a :class:`Script`.
    ``tokens`` is ``tokenize(source, name)`` when the caller has scanned
    it already (the compile cache keys the program by its tokens)."""
    if tokens is None:
        tokens = tokenize(source, name)
    return Parser(tokens, name).parse_script(name)


def parse_function_file(source: str, name: str = "<mfile>",
                        tokens: list[Token] | None = None
                        ) -> list[A.FunctionDef]:
    """Parse a function M-file into its function definitions
    (``tokens``: as for :func:`parse_script`)."""
    if tokens is None:
        tokens = tokenize(source, name)
    return Parser(tokens, name).parse_function_file()


def parse_expression(source: str) -> A.Expr:
    """Parse a single expression (used heavily by tests)."""
    parser = Parser(tokenize(source, "<expr>"), "<expr>")
    try:
        expr = parser._expression()
    except RecursionError:
        raise parser._too_deep() from None
    parser._skip_separators()
    parser.expect(T.EOF)
    return expr
