"""Control-flow graph over a program unit's statement list.

The CFG is the substrate for SSA construction (pass 3).  Blocks hold
*events* rather than raw AST statements so that control-flow constructs can
contribute their variable effects at the right program point:

* :class:`StmtEvent` — a simple statement (assignment, call, ...)
* :class:`CondEvent` — evaluation of a branch/loop condition (uses only)
* :class:`LoopIndexEvent` — the ``for`` header, defining the loop variable
  from the iterable each trip

Every event reports the variables it *uses* (as AST nodes, so SSA renaming
can annotate each use site) and the variables it *defines*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast_nodes as A


def _expr_uses(expr: A.Expr | None, uses: list[A.Node] | None = None) -> list[A.Node]:
    """Collect variable-use sites in an expression (appending to ``uses``
    when given), in pre-order: Ident reads, EndRef."""
    if uses is None:
        uses = []
    kind = type(expr)
    if kind is A.Ident or kind is A.EndRef:
        uses.append(expr)
    elif kind is A.BinOp:       # the common shapes, without the generic walk
        _expr_uses(expr.lhs, uses)
        _expr_uses(expr.rhs, uses)
    elif kind is A.Apply:
        for arg in expr.args:
            _expr_uses(arg, uses)
    elif expr is not None and kind is not A.Num:
        for child in expr.children():
            _expr_uses(child, uses)
    return uses


def _use_name(node: A.Node) -> str:
    kind = type(node)
    if kind is A.Ident:
        return node.name
    if kind is A.EndRef:
        return node.var
    raise TypeError(kind.__name__)


class Event:
    """One def/use point inside a basic block."""

    def uses(self) -> list[A.Node]:
        raise NotImplementedError

    def implicit_uses(self) -> list[str]:
        """Variables read without a dedicated AST node (e.g. the target of
        an indexed assignment, which is a read-modify-write)."""
        return []

    def defs(self) -> list[str]:
        raise NotImplementedError


@dataclass
class StmtEvent(Event):
    stmt: A.Stmt

    def uses(self) -> list[A.Node]:
        s = self.stmt
        kind = type(s)
        if kind is A.Assign:
            nodes = _expr_uses(s.value)
            if type(s.target) is A.IndexLValue:
                for arg in s.target.args:
                    _expr_uses(arg, nodes)
            return nodes
        if kind is A.MultiAssign:
            nodes = _expr_uses(s.call)
            for target in s.targets:
                if type(target) is A.IndexLValue:
                    for arg in target.args:
                        _expr_uses(arg, nodes)
            return nodes
        if kind is A.ExprStmt:
            return _expr_uses(s.value)
        if kind is A.Global:
            return []
        raise TypeError(f"not a simple statement: {kind.__name__}")

    def implicit_uses(self) -> list[str]:
        s = self.stmt
        kind = type(s)
        names: list[str] = []
        if kind is A.Assign:
            if type(s.target) is A.IndexLValue:
                names.append(s.target.name)
        elif kind is A.MultiAssign:
            for target in s.targets:
                if type(target) is A.IndexLValue:
                    names.append(target.name)
        return names

    def defs(self) -> list[str]:
        s = self.stmt
        kind = type(s)
        if kind is A.Assign:
            return [s.target.name]
        if kind is A.MultiAssign:
            return [t.name for t in s.targets]
        if kind is A.ExprStmt:
            if _produces_value(s.value):
                return ["ans"]
            return []
        if kind is A.Global:
            return list(s.names)
        raise TypeError(f"not a simple statement: {kind.__name__}")


@dataclass
class CondEvent(Event):
    expr: A.Expr

    def uses(self) -> list[A.Node]:
        return _expr_uses(self.expr)

    def defs(self) -> list[str]:
        return []


@dataclass
class LoopIndexEvent(Event):
    stmt: A.For

    def uses(self) -> list[A.Node]:
        return _expr_uses(self.stmt.iterable)

    def defs(self) -> list[str]:
        return [self.stmt.var]


def _produces_value(expr: A.Expr) -> bool:
    """False for calls to void builtins (disp, fprintf, ...)."""
    if type(expr) is A.Apply and expr.resolved == "builtin":
        from .builtin_sigs import get_sig

        sig = get_sig(expr.name)
        return sig is None or sig.nargout > 0
    return True


@dataclass
class BasicBlock:
    id: int
    events: list[Event] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def __repr__(self) -> str:
        return (f"B{self.id}(events={len(self.events)}, "
                f"succs={self.succs})")


class CFG:
    """A control-flow graph with a unique entry and a unique exit block."""

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.entry = self._new_block().id
        self.exit: int = -1  # set by the builder

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
        if src not in self.blocks[dst].preds:
            self.blocks[dst].preds.append(src)

    def reachable_order(self) -> list[int]:
        """Reverse postorder from the entry block (reachable blocks only)."""
        seen: set[int] = set()
        post: list[int] = []

        def dfs(b: int) -> None:
            stack = [(b, iter(self.blocks[b].succs))]
            seen.add(b)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    post.append(node)
                    stack.pop()

        dfs(self.entry)
        return list(reversed(post))

    def all_events(self) -> list[tuple[int, Event]]:
        out = []
        for block in self.blocks:
            for event in block.events:
                out.append((block.id, event))
        return out


class _LoopCtx:
    def __init__(self, continue_target: int):
        self.continue_target = continue_target
        self.break_sources: list[int] = []


class CFGBuilder:
    """Translate structured control flow into a CFG."""

    def __init__(self) -> None:
        self.cfg = CFG()
        self.current: int | None = self.cfg.entry
        self._loops: list[_LoopCtx] = []
        self._return_sources: list[int] = []

    def build(self, body: list[A.Stmt]) -> CFG:
        self._body(body)
        exit_block = self.cfg._new_block()
        self.cfg.exit = exit_block.id
        if self.current is not None:
            self.cfg.add_edge(self.current, exit_block.id)
        for src in self._return_sources:
            self.cfg.add_edge(src, exit_block.id)
        return self.cfg

    # -- helpers --------------------------------------------------------- #

    def _emit(self, event: Event) -> None:
        if self.current is None:  # unreachable code after break/return
            self.current = self.cfg._new_block().id
        self.cfg.blocks[self.current].events.append(event)

    def _fresh_after(self, *preds: int | None) -> int:
        block = self.cfg._new_block()
        for pred in preds:
            if pred is not None:
                self.cfg.add_edge(pred, block.id)
        return block.id

    # -- statement dispatch ----------------------------------------------- #

    def _body(self, body: list[A.Stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: A.Stmt) -> None:
        kind = type(stmt)
        if kind is A.Assign or kind is A.ExprStmt or kind is A.MultiAssign \
                or kind is A.Global:
            self._emit(StmtEvent(stmt))
        elif kind is A.If:
            self._if(stmt)
        elif kind is A.For:
            self._for(stmt)
        elif kind is A.While:
            self._while(stmt)
        elif kind is A.Switch:
            self._switch(stmt)
        elif kind is A.Break:
            if self._loops and self.current is not None:
                self._loops[-1].break_sources.append(self.current)
            self.current = None
        elif kind is A.Continue:
            if self._loops and self.current is not None:
                self.cfg.add_edge(self.current, self._loops[-1].continue_target)
            self.current = None
        elif kind is A.Return:
            if self.current is not None:
                self._return_sources.append(self.current)
            self.current = None
        else:
            raise TypeError(f"unhandled statement {kind.__name__}")

    def _if(self, stmt: A.If) -> None:
        join_sources: list[int] = []
        for cond, branch in stmt.branches:
            self._emit(CondEvent(cond))
            cond_block = self.current
            assert cond_block is not None
            # then-branch
            self.current = self._fresh_after(cond_block)
            self._body(branch)
            if self.current is not None:
                join_sources.append(self.current)
            # else continues from the condition block
            self.current = self._fresh_after(cond_block)
        self._body(stmt.orelse)
        if self.current is not None:
            join_sources.append(self.current)
        if join_sources:
            join = self.cfg._new_block().id
            for src in join_sources:
                self.cfg.add_edge(src, join)
            self.current = join
        else:
            self.current = None

    def _for(self, stmt: A.For) -> None:
        pre = self.current
        header = self.cfg._new_block().id
        if pre is not None:
            self.cfg.add_edge(pre, header)
        self.cfg.blocks[header].events.append(LoopIndexEvent(stmt))
        ctx = _LoopCtx(continue_target=header)
        self._loops.append(ctx)
        self.current = self._fresh_after(header)  # loop body
        self._body(stmt.body)
        if self.current is not None:
            self.cfg.add_edge(self.current, header)
        self._loops.pop()
        after = self._fresh_after(header)
        for src in ctx.break_sources:
            self.cfg.add_edge(src, after)
        self.current = after

    def _while(self, stmt: A.While) -> None:
        pre = self.current
        header = self.cfg._new_block().id
        if pre is not None:
            self.cfg.add_edge(pre, header)
        self.cfg.blocks[header].events.append(CondEvent(stmt.cond))
        ctx = _LoopCtx(continue_target=header)
        self._loops.append(ctx)
        self.current = self._fresh_after(header)
        self._body(stmt.body)
        if self.current is not None:
            self.cfg.add_edge(self.current, header)
        self._loops.pop()
        after = self._fresh_after(header)
        for src in ctx.break_sources:
            self.cfg.add_edge(src, after)
        self.current = after

    def _switch(self, stmt: A.Switch) -> None:
        self._emit(CondEvent(stmt.subject))
        subject_block = self.current
        assert subject_block is not None
        join_sources: list[int] = []
        for values, branch in stmt.cases:
            self.current = self._fresh_after(subject_block)
            for value in values:
                self._emit(CondEvent(value))
            self._body(branch)
            if self.current is not None:
                join_sources.append(self.current)
        self.current = self._fresh_after(subject_block)
        self._body(stmt.otherwise)
        if self.current is not None:
            join_sources.append(self.current)
        if join_sources:
            join = self.cfg._new_block().id
            for src in join_sources:
                self.cfg.add_edge(src, join)
            self.current = join
        else:
            self.current = None


def build_cfg(body: list[A.Stmt]) -> CFG:
    """Build the CFG of a statement list."""
    return CFGBuilder().build(body)
