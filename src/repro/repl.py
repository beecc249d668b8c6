"""An interactive MATLAB prompt over the reference interpreter.

``python -m repro repl`` gives the edit–run loop the paper's scientists
worked in: a persistent workspace, immediate display of unsuppressed
results, M-file functions resolved from the current directory, and a few
workspace directives:

* ``whos``  — list variables with size/type
* ``clear`` / ``clear x y`` — drop variables
* ``profile on`` / ``profile report`` — the line profiler
* ``run <file.m> [nprocs]`` — compile the file through the process-wide
  compile cache (docs/SERVICE.md) and execute it on the simulated
  parallel machine; repeat runs are warm cache hits
* ``quit`` / ``exit``

The REPL feeds each input through the real pipeline (parse → resolve with
the workspace's names predefined → interpret against the persistent
environment), so its behaviour is exactly the test suite's semantics.
Multi-line constructs (``for``/``if``/...) are accepted by continuing the
prompt until the block closes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from .analysis.resolve import resolve_program
from .errors import OtterError
from .frontend.mfile import EMPTY_PROVIDER, MFileProvider
from .frontend.parser import parse_script
from .interp.costmodel import CostMeter
from .interp.interpreter import Interpreter
from .interp.profiler import LineProfiler
from .mpi.machine import MEIKO_CS2

_OPENERS = ("if", "for", "while", "switch", "function")


def _block_delta(line: str) -> int:
    """Net block depth of one input line (crude but effective)."""
    depth = 0
    code = line.split("%", 1)[0]
    in_str = False
    tokens = []
    word = ""
    for ch in code:
        if ch == "'":
            in_str = not in_str
        if in_str:
            word = ""
            continue
        if ch.isalnum() or ch == "_":
            word += ch
        else:
            if word:
                tokens.append(word)
            word = ""
    if word:
        tokens.append(word)
    for tok in tokens:
        if tok in _OPENERS:
            depth += 1
        elif tok == "end":
            depth -= 1
    return depth


class Repl:
    """A scriptable REPL (tests drive it with an input list)."""

    def __init__(self, provider: MFileProvider | None = None,
                 out: Optional[Callable[[str], None]] = None,
                 seed: int = 0):
        self.provider = provider or EMPTY_PROVIDER
        self.output: list[str] = []
        self._out = out or self.output.append
        self.seed = seed
        self.profiler: LineProfiler | None = None
        self.meter = CostMeter(MEIKO_CS2.cpu.interpreter_params())
        self._interp = self._fresh_interpreter()
        self._history: list[str] = []

    def _fresh_interpreter(self) -> Interpreter:
        program = resolve_program(parse_script("", "repl"), self.provider)
        interp = Interpreter(program, out=self._out, meter=self.meter,
                             seed=self.seed, profiler=self.profiler)
        return interp

    # ------------------------------------------------------------------ #

    @property
    def workspace(self) -> dict:
        return self._interp.workspace

    def submit(self, source: str) -> bool:
        """Execute one (possibly multi-line) input.  Returns False when
        the session should end."""
        stripped = source.strip()
        if not stripped:
            return True
        if self._directive(stripped):
            return stripped not in ("quit", "exit")
        self._history.append(source)
        try:
            program = resolve_program(
                parse_script(source, "repl"), self.provider,
                predefined=set(self.workspace))
        except OtterError as exc:
            self._out(f"??? {exc}\n")
            return True
        interp = Interpreter(program, out=self._out, meter=self.meter,
                             seed=self.seed, profiler=self.profiler)
        interp.workspace = self._interp.workspace
        interp.globals = self._interp.globals
        interp.rng = self._interp.rng
        try:
            interp.run()
        except OtterError as exc:
            self._out(f"??? {exc}\n")
        self._interp = interp
        return True

    # ------------------------------------------------------------------ #
    # directives
    # ------------------------------------------------------------------ #

    def _directive(self, line: str) -> bool:
        parts = line.replace(";", "").split()
        if not parts:
            return False
        head = parts[0]
        if head in ("quit", "exit"):
            return True
        if head == "whos":
            self._out(self._whos())
            return True
        if head == "clear":
            if len(parts) == 1:
                self.workspace.clear()
            else:
                for name in parts[1:]:
                    self.workspace.pop(name, None)
            return True
        if head == "profile":
            mode = parts[1] if len(parts) > 1 else "report"
            if mode == "on":
                self.profiler = LineProfiler()
                self._interp.profiler = self.profiler
            elif mode == "off":
                self.profiler = None
                self._interp.profiler = None
            elif mode == "report":
                if self.profiler is None:
                    self._out("profiling is off (use 'profile on')\n")
                else:
                    self._out(self.profiler.report() + "\n")
            return True
        if head == "run" and len(parts) > 1:
            self._run_file(parts[1:])
            return True
        if head == "help":
            self._out("directives: whos, clear [names], profile on|off|"
                      "report, run <file.m> [nprocs], quit\n")
            return True
        return False

    def _run_file(self, argv: list[str]) -> None:
        """``run <file.m> [nprocs]``: compile through the shared compile
        cache and execute on the simulated parallel machine.  The REPL
        workspace is untouched — the script runs in its own context."""
        import os

        from .service.cache import get_compile_cache

        machine = MEIKO_CS2
        path = argv[0]
        try:
            nprocs = int(argv[1]) if len(argv) > 1 else 1
        except ValueError:
            self._out(f"run: nprocs must be an integer (got {argv[1]!r})\n")
            return
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            self._out(f"run: {exc}\n")
            return
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            outcome = get_compile_cache().get_or_compile(
                source, name=name, provider=self.provider)
            result = outcome.program.run(nprocs=nprocs, machine=machine,
                                         seed=self.seed)
        except OtterError as exc:
            self._out(f"??? {exc}\n")
            return
        self._out(result.output)
        self._out(f"[run] {nprocs} rank(s) of {machine.name}: "
                  f"{result.elapsed * 1e3:.3f} ms modeled; "
                  f"cache {outcome.describe()}\n")

    def _whos(self) -> str:
        if not self.workspace:
            return "(empty workspace)\n"
        lines = [f"  {'Name':10s} {'Size':>9s}  {'Bytes':>8s}  Class"]
        for name in sorted(self.workspace):
            value = self.workspace[name]
            if isinstance(value, str):
                cls, nbytes = "char", len(value)
                size = f"1x{len(value)}"
            else:
                arr = np.atleast_2d(np.asarray(value))
                cls = "complex" if np.iscomplexobj(arr) else "double"
                nbytes = arr.nbytes
                size = f"{arr.shape[0]}x{arr.shape[1]}"
            lines.append(f"  {name:10s} {size:>9s}  {nbytes:>8d}  {cls}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # line-oriented driving (interactive or scripted)
    # ------------------------------------------------------------------ #

    def run_lines(self, lines: Iterable[str]) -> None:
        """Feed prompt lines, buffering multi-line blocks."""
        buffer: list[str] = []
        depth = 0
        for line in lines:
            buffer.append(line)
            depth += _block_delta(line)
            if depth > 0:
                continue
            depth = 0
            source = "\n".join(buffer)
            buffer = []
            if not self.submit(source):
                return

    def interact(self) -> None:  # pragma: no cover - needs a tty
        print("Otter MATLAB REPL — 'help' for directives, 'quit' to leave.")
        buffer: list[str] = []
        depth = 0
        while True:
            try:
                prompt = ">> " if depth == 0 else ".. "
                line = input(prompt)
            except (EOFError, KeyboardInterrupt):
                print()
                return
            buffer.append(line)
            depth += _block_delta(line)
            if depth > 0:
                continue
            depth = 0
            source = "\n".join(buffer)
            buffer = []
            if not self.submit(source):
                return
            for chunk in self.output:
                print(chunk, end="")
            self.output.clear()


def main(provider: MFileProvider | None = None) -> int:  # pragma: no cover
    Repl(provider).interact()
    return 0
