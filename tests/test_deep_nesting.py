"""Failing closed on deep nesting: a program nested deeper than the
Python stack (or CPython's own compiler) allows ends in the failing
pass's diagnostic — one ``error:`` line from the CLI, a structured error
from the server — never in a ``RecursionError`` traceback."""

import pytest

from repro.cli import main
from repro.compiler import compile_source
from repro.errors import (
    CodegenError,
    DiagnosticError,
    InferenceError,
    LoweringError,
    OtterError,
    ParseError,
    ResolutionError,
)
from repro.frontend.mfile import DictProvider
from repro.frontend.parser import parse_expression, parse_script
from repro.interp.interpreter import run_source
from repro.service import ServiceError, ServiceServer
from repro.service.cache import CompileCache


def nested(opener, closer, depth, core="1"):
    return f"x = {opener * depth}{core}{closer * depth};\n"


def nested_blocks(head, depth):
    return "x = 1;\n" + head * depth + "x = 2;\n" + "end\n" * depth


PARENS_400 = nested("(", ")", 400)
SHAPES = {
    "parens": lambda d: nested("(", ")", d),
    "brackets": lambda d: nested("[", "]", d),
    "subscripts": lambda d: "v = 1:4;\n" + nested("v(", ")", d),
    "calls": lambda d: nested("abs(", ")", d),
    "matrix calls":
        lambda d: "v = ones(2, 2);\n" + nested("abs(", ")", d, "v"),
    "right operands": lambda d: nested("(1+", ")", d),
    "signs": lambda d: nested("-", "", d),
    "transposes": lambda d: "v = ones(2, 2);\n" + nested("", "'", d, "v"),
    "sum chain": lambda d: "x = " + "+".join(["1"] * (d + 1)) + ";\n",
    "matrix sum chain":
        lambda d: "v = ones(2, 2);\nx = " + "+".join(["v"] * (d + 1)) + ";\n",
    "if": lambda d: nested_blocks("if x\n", d),
    "for": lambda d: nested_blocks("for k = 1:1\n", d),
    "while": lambda d: nested_blocks("while x < 2\n", d),
    "switch": lambda d: nested_blocks("switch x\ncase 1\n", d),
}


# -- the parser ------------------------------------------------------------ #


@pytest.mark.parametrize("source", [
    PARENS_400, nested("(", ")", 5000), nested("[", "]", 400),
    nested("[", "]", 5000), nested("-", "", 5000), nested("abs(", ")", 2000),
    nested("(", "", 5000),                      # never closed
], ids=["paren400", "paren5000", "bracket400", "bracket5000", "sign5000",
        "call2000", "unclosed5000"])
def test_deep_expressions_are_parse_errors_at_a_token(source):
    with pytest.raises(ParseError) as err:
        parse_script(source, "deep.m")
    assert err.value.message == "expression nested too deeply"
    # the token the descent had reached: inside the nest, on line 1
    assert err.value.loc.filename == "deep.m" and err.value.loc.line == 1
    assert 5 < err.value.loc.col <= len(source)


def test_deep_expression_through_the_expression_and_function_entries():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expression("(" * 3000 + "1" + ")" * 3000)
    with pytest.raises(ParseError, match="nested too deeply"):
        compile_source("y = f(1);", provider=DictProvider({
            "f": "function x = f(a)\n" + nested("(", ")", 3000)}))


def test_nested_blocks_fail_closed_where_the_stack_ends():
    """300 nested ``if``: whichever pass runs out of stack first (the
    parser under a deep caller, the emitter otherwise) says so."""
    for head in ("if x\n", "switch x\ncase 1\n"):
        with pytest.raises(DiagnosticError, match="nested too deeply"):
            compile_source(nested_blocks(head, 300)).run(nprocs=1)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_script(nested_blocks("if x\n", 5000))


# -- the later passes ------------------------------------------------------ #


def test_long_operator_chain_is_a_resolution_error():
    """``1+1+...`` parses in a loop — the left-leaning tree is as deep
    as the chain is long, and pass 2 is the first to walk it."""
    source = SHAPES["sum chain"](5000)
    for run in (compile_source, run_source):
        with pytest.raises(ResolutionError) as err:
            run(source)
        assert err.value.message == "program nested too deeply"


@pytest.mark.parametrize("target, error", [
    ("repro.analysis.resolve.Resolver.resolve", ResolutionError),
    ("repro.analysis.infer.InferenceEngine.run", InferenceError),
    ("repro.ir.lower.Lowerer.lower", LoweringError),
    ("repro.codegen.py_emitter.PyEmitter.emit", CodegenError),
])
def test_each_pass_reports_an_exhausted_stack_as_its_own_error(
        monkeypatch, target, error):
    def overflow(*_args, **_kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(target, overflow)
    with pytest.raises(error) as err:
        compile_source("x = 1;")
    assert type(err.value) is error
    assert err.value.message == "program nested too deeply"


def test_cpythons_own_nesting_limits_are_codegen_errors():
    """21 nested loops are legal MATLAB and more statically nested
    blocks than CPython compiles; 100 nested ``if`` exceed its
    indentation limit."""
    for source in (nested_blocks("for k = 1:1\n", 21),
                   nested_blocks("if x\n", 100)):
        program = compile_source(source)
        with pytest.raises(CodegenError, match="nested too deeply for the "
                                               "Python backend"):
            program.run(nprocs=1)
    assert compile_source(nested_blocks("for k = 1:1\n", 19)) \
        .run(nprocs=1).workspace["x"] == 2.0


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_depth_of_every_shape_fails_closed(shape):
    """Compiled and interpreted, at depths on both sides of every limit:
    the program runs, or an :class:`OtterError` names the problem."""
    outcomes = set()
    for depth in (3, 18, 22, 45, 97, 101, 140, 175, 230, 320, 480, 950,
                  1400, 3000):
        source = SHAPES[shape](depth)
        for run in (lambda: compile_source(source).run(nprocs=2),
                    lambda: run_source(source)):
            try:
                run()
                outcomes.add("ran")
            except OtterError as exc:
                # loops nested past inference's round budget "diverge"
                assert "nested too deeply" in str(exc) or (
                    shape in ("for", "while") and depth > 60
                    and "inference diverged" in str(exc)), (shape, depth, exc)
                outcomes.add(type(exc).__name__)
    assert "ran" in outcomes and len(outcomes) > 1, outcomes


def test_nested_calls_compile_in_linear_time():
    """``abs(abs(...))`` used to type each argument twice per level:
    2^depth evaluations, a 40-deep request pinned a server thread."""
    program = compile_source(nested("abs(", ")", 60, "-3"))
    assert program.run(nprocs=1).workspace["x"] == 3.0


# -- the surfaces ---------------------------------------------------------- #


DEEP_PROGRAMS = {
    "parens": (PARENS_400, "deep:1:"),
    "chain": (SHAPES["sum chain"](5000), "program nested too deeply"),
    "ifs": (nested_blocks("if x\n", 300), "nested too deeply"),
}


@pytest.mark.parametrize("command, program", [
    (command, program) for command in ("run", "interp", "compile")
    for program in DEEP_PROGRAMS
    if (command, program) != ("interp", "ifs")  # it walks 300 blocks fine
])
def test_cli_prints_one_error_line(tmp_path, capsys, command, program):
    source, said = DEEP_PROGRAMS[program]
    path = tmp_path / "deep.m"
    path.write_text(source)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and said in captured.err
    assert "nested too deeply" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_server_answers_a_structured_error_and_the_session_survives():
    server = ServiceServer(cache=CompileCache(disk_root=False))
    with server.loopback() as client:
        for source, kind in ((PARENS_400, "ParseError"),
                             (nested("[", "]", 5000), "ParseError"),
                             (SHAPES["sum chain"](5000), "ResolutionError")):
            for request in (client.compile, client.run):
                with pytest.raises(ServiceError) as err:
                    request(source, nprocs=2)
                assert err.value.kind == kind
                assert "nested too deeply" in str(err.value)
        reply = client.run("x = ((((1))));\ndisp(x);\n", nprocs=2)
        assert reply["output"].strip() == "1"
    assert server.cache.stats()["compiles"] == 1    # failures never cached
