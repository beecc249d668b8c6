"""A function M-file may close each function with ``end``.

The closing ``end`` used to be parsed as an expression statement of the
function body: ``repro interp`` failed with ``undefined variable ''`` and
``repro run`` with ``name 'v_' is not defined``.
"""

import pytest

from repro.cli import main
from repro.frontend.parser import parse_function_file

TWICE = "function r = twice(x)\nr = 2 * x;\nend\n"


@pytest.fixture
def script(tmp_path):
    (tmp_path / "twice.m").write_text(TWICE)
    path = tmp_path / "main.m"
    path.write_text("y = twice(3); disp(y)\n")
    return tmp_path, str(path)


@pytest.mark.parametrize("argv", [
    ["interp"],
    ["run", "--backend", "fused"],
    ["run", "--backend", "lockstep"],
], ids=["interp", "run-fused", "run-lockstep"])
def test_a_function_closed_by_end_runs(script, capsys, argv):
    directory, path = script
    assert main([*argv, "--path", str(directory), path]) == 0
    assert capsys.readouterr().out.split() == ["6"]


def test_closed_and_open_functions_parse_alike():
    closed = parse_function_file(
        "function r = f(x)\nif x > 0\n  r = x;\nelse\n  r = -x;\nend\nend\n"
        "\nfunction g()\ndisp(1)\nend\n")
    open_ = parse_function_file(
        "function r = f(x)\nif x > 0\n  r = x;\nelse\n  r = -x;\nend\n"
        "\nfunction g()\ndisp(1)\n")
    assert [(f.name, len(f.body)) for f in closed] \
        == [(f.name, len(f.body)) for f in open_] == [("f", 1), ("g", 1)]
