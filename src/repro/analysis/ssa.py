"""Static single assignment construction (pass 3 substrate).

MATLAB lets a variable's type, rank, and shape change mid-program; the
paper solves this by transforming each unit into SSA form (citing Cytron
et al.) so that every *SSA value* has exactly one defining site, giving the
inference engine a sound place to hang one type per value.

We do not rewrite the AST.  Instead, SSA is computed as an *annotation
layer*: every use site (an ``Ident``/``EndRef`` node) maps to the
:class:`SSAValue` it reads, every event maps to the values it defines, and
phi nodes live in :class:`SSAInfo.phis`.  The original Otter emits code
from the (typed) AST the same way; SSA exists to make inference precise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast_nodes as A
from .cfg import CFG, Event, build_cfg, _use_name
from .dominance import DominatorInfo, compute_dominance


@dataclass(frozen=True)
class SSAValue:
    """One SSA version of a program variable."""

    var: str
    index: int
    vid: int  # globally unique, dense — handy as an array index

    def __repr__(self) -> str:
        return f"{self.var}_{self.index}"


@dataclass
class Phi:
    """A phi node at the head of ``block`` merging one value per pred."""

    block: int
    var: str
    result: SSAValue
    args: dict[int, SSAValue] = field(default_factory=dict)  # pred block -> value

    def __repr__(self) -> str:
        joined = ", ".join(f"B{b}:{v!r}" for b, v in sorted(self.args.items()))
        return f"{self.result!r} = phi({joined})"


class SSAInfo:
    """The full SSA annotation for one program unit."""

    def __init__(self, cfg: CFG, dom: DominatorInfo):
        self.cfg = cfg
        self.dom = dom
        self.values: list[SSAValue] = []
        self._versions: dict[str, list[SSAValue]] = {}  # var -> its values
        # id(ast node) -> value read there
        self.use_of: dict[int, SSAValue] = {}
        # (id(event), var) -> value of the *previous* version read implicitly
        # (indexed-assignment targets)
        self.implicit_use_of: dict[tuple[int, str], SSAValue] = {}
        # id(event) -> values defined by the event, in event.defs() order
        self.defs_of: dict[int, list[SSAValue]] = {}
        self.phis: dict[int, list[Phi]] = {}  # block id -> phis
        # entry versions (version 0): variables with no definition yet;
        # for functions, parameters are *defined* at entry.
        self.entry_values: dict[str, SSAValue] = {}
        self.param_values: dict[str, SSAValue] = {}

    def new_value(self, var: str, index: int) -> SSAValue:
        value = SSAValue(var, index, len(self.values))
        self.values.append(value)
        self._versions.setdefault(var, []).append(value)
        return value

    def all_phis(self) -> list[Phi]:
        return [phi for phis in self.phis.values() for phi in phis]

    def versions_of(self, var: str) -> list[SSAValue]:
        return self._versions.get(var, [])


class SSABuilder:
    def __init__(self, body: list[A.Stmt], params: list[str] | None = None):
        self.cfg = build_cfg(body)
        self.dom = compute_dominance(self.cfg)
        self.info = SSAInfo(self.cfg, self.dom)
        self.params = list(params or [])
        self._counters: dict[str, int] = {}
        self._stacks: dict[str, list[SSAValue]] = {}
        #: id(event) -> (event.defs(), event.implicit_uses(),
        #: event.uses()), each asked once per build
        self._names: dict[int, tuple] = {}

    # ------------------------------------------------------------------ #

    def build(self) -> SSAInfo:
        variables = self._all_variables()
        def_blocks = self._definition_blocks(variables)
        self._place_phis(variables, def_blocks)
        # Version 0 for every variable at entry (the "maybe undefined"
        # value); parameters are genuinely defined at entry.
        for var in sorted(variables):
            value = self._fresh(var)
            self.info.entry_values[var] = value
            if var in self.params:
                self.info.param_values[var] = value
            self._stacks[var] = [value]
        self._rename(self.cfg.entry)
        return self.info

    # ------------------------------------------------------------------ #

    def _all_variables(self) -> set[str]:
        names: set[str] = set(self.params)
        for _bid, event in self.cfg.all_events():
            defs, implicit, uses = self._names[id(event)] = (
                event.defs(), event.implicit_uses(), event.uses())
            names.update(defs)
            names.update(implicit)
            for node in uses:
                names.add(_use_name(node))
        return names

    def _definition_blocks(self, variables: set[str]) -> dict[str, set[int]]:
        blocks: dict[str, set[int]] = {v: set() for v in variables}
        for bid, event in self.cfg.all_events():
            for var in self._names[id(event)][0]:
                blocks[var].add(bid)
        for var in self.params:
            blocks[var].add(self.cfg.entry)
        return blocks

    def _place_phis(self, variables: set[str],
                    def_blocks: dict[str, set[int]]) -> None:
        reachable = set(self.dom.rpo)
        for var in sorted(variables):
            work = sorted(b for b in def_blocks[var] if b in reachable)
            placed: set[int] = set()
            queue = list(work)
            while queue:
                block = queue.pop()
                for front in self.dom.frontier.get(block, ()):
                    if front in placed:
                        continue
                    placed.add(front)
                    phi = Phi(front, var, self._fresh(var))
                    self.info.phis.setdefault(front, []).append(phi)
                    # a phi is itself a definition
                    if front not in def_blocks[var]:
                        def_blocks[var].add(front)
                        queue.append(front)

    def _fresh(self, var: str) -> SSAValue:
        index = self._counters.get(var, 0)
        self._counters[var] = index + 1
        return self.info.new_value(var, index)

    # ------------------------------------------------------------------ #
    # renaming (iterative dominator-tree walk)
    # ------------------------------------------------------------------ #

    def _rename(self, entry: int) -> None:
        # Each stack frame: (block, phase) where phase 0 = on entry,
        # phase 1 = after children (pop pushed names).
        pushed: dict[int, list[str]] = {}
        stack: list[tuple[int, int]] = [(entry, 0)]
        while stack:
            block, phase = stack.pop()
            if phase == 1:
                for var in reversed(pushed.pop(block, [])):
                    self._stacks[var].pop()
                continue
            pushed[block] = self._rename_block(block)
            stack.append((block, 1))
            for child in sorted(self.dom.children.get(block, []), reverse=True):
                stack.append((child, 0))

    def _rename_block(self, block: int) -> list[str]:
        pushed: list[str] = []
        # phi results become current at block head
        for phi in self.info.phis.get(block, []):
            self._stacks[phi.var].append(phi.result)
            pushed.append(phi.var)
        for event in self.cfg.blocks[block].events:
            defs, implicit, uses = self._names[id(event)]
            for node in uses:
                var = _use_name(node)
                self.info.use_of[id(node)] = self._stacks[var][-1]
            for var in implicit:
                self.info.implicit_use_of[(id(event), var)] = self._stacks[var][-1]
            defined: list[SSAValue] = []
            for var in defs:
                value = self._fresh(var)
                self._stacks[var].append(value)
                pushed.append(var)
                defined.append(value)
            if defined:
                self.info.defs_of[id(event)] = defined
        # fill phi args in successors
        for succ in self.cfg.blocks[block].succs:
            for phi in self.info.phis.get(succ, []):
                phi.args[block] = self._stacks[phi.var][-1]
        return pushed


def build_ssa(body: list[A.Stmt], params: list[str] | None = None) -> SSAInfo:
    """Build SSA annotations for a unit body."""
    return SSABuilder(body, params).build()
