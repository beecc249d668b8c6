"""Human-readable IR dump (for tests, debugging, and `--dump-ir`)."""

from __future__ import annotations

from .nodes import (
    LAST,
    LIVE,
    CallUser,
    Copy,
    Display,
    Elementwise,
    EwGroup,
    IndexAssign,
    IRBreak,
    IRContinue,
    IRFor,
    IRGlobal,
    IRIf,
    IRProgram,
    IRReturn,
    IRStmt,
    IRWhile,
    RTCall,
    SetElement,
)


def _fmt_stmt(stmt: IRStmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, IRIf):
        for k, (cond_stmts, cond, branch) in enumerate(stmt.branches):
            for s in cond_stmts:
                _fmt_stmt(s, indent, out)
            head = "if" if k == 0 else "elseif"
            out.append(f"{pad}{head} {cond!r}:")
            for s in branch:
                _fmt_stmt(s, indent + 1, out)
        if stmt.orelse:
            out.append(f"{pad}else:")
            for s in stmt.orelse:
                _fmt_stmt(s, indent + 1, out)
        out.append(f"{pad}end")
    elif isinstance(stmt, IRFor):
        for s in stmt.iter_stmts:
            _fmt_stmt(s, indent, out)
        if stmt.range_triple:
            start, step, stop = stmt.range_triple
            out.append(f"{pad}for {stmt.var!r} = "
                       f"{start!r}:{step!r}:{stop!r}:")
        else:
            out.append(f"{pad}for {stmt.var!r} in {stmt.iter_operand!r}:")
        for s in stmt.body:
            _fmt_stmt(s, indent + 1, out)
        out.append(f"{pad}end")
    elif isinstance(stmt, IRWhile):
        out.append(f"{pad}while:")
        for s in stmt.cond_stmts:
            _fmt_stmt(s, indent + 1, out)
        out.append(f"{pad}  cond {stmt.cond!r}")
        for s in stmt.body:
            _fmt_stmt(s, indent + 1, out)
        out.append(f"{pad}end")
    elif isinstance(stmt, EwGroup):
        out.append(f"{pad}group:")
        for k, s in enumerate(stmt.members):
            _fmt_stmt(s, indent + 1, out)
            if stmt.live is not None and stmt.live[k] != LIVE:
                out[-1] += "  [last iteration]" if stmt.live[k] == LAST \
                    else "  [no array]"
        out.append(f"{pad}end")
    elif isinstance(stmt, IRBreak):
        out.append(f"{pad}break")
    elif isinstance(stmt, IRContinue):
        out.append(f"{pad}continue")
    elif isinstance(stmt, IRReturn):
        out.append(f"{pad}return")
    elif isinstance(stmt, IRGlobal):
        out.append(f"{pad}global {', '.join(stmt.names)}")
    elif isinstance(stmt, Display):
        out.append(f"{pad}display {stmt.name}")
    elif isinstance(stmt, (RTCall, Elementwise, Copy, SetElement,
                           IndexAssign, CallUser)):
        out.append(f"{pad}{stmt!r}")
    else:
        out.append(f"{pad}<{type(stmt).__name__}>")


def pretty_ir(ir: IRProgram) -> str:
    out: list[str] = [f"program {ir.script_name}:"]
    for stmt in ir.body:
        _fmt_stmt(stmt, 1, out)
    for func in ir.functions.values():
        rets = ", ".join(func.returns)
        params = ", ".join(func.params)
        out.append(f"function [{rets}] = {func.name}({params}):")
        for stmt in func.body:
            _fmt_stmt(stmt, 1, out)
    return "\n".join(out)
