"""Scriptable-REPL tests."""

import os

import numpy as np
import pytest

from repro.frontend.mfile import DictProvider, DirectoryProvider
from repro.repl import Repl, _block_delta


def drive(lines, provider=None):
    repl = Repl(provider=provider)
    repl.run_lines(lines)
    return repl


class TestBasics:
    def test_workspace_persists_across_inputs(self):
        repl = drive(["x = 2;", "y = x + 3;"])
        assert repl.workspace["y"] == 5.0

    def test_unsuppressed_display(self):
        repl = drive(["z = 7"])
        assert "z =" in "".join(repl.output)

    def test_ans_chain(self):
        repl = drive(["3 + 4;", "w = ans * 2;"])
        assert repl.workspace["w"] == 14.0

    def test_error_reported_not_fatal(self):
        repl = drive(["x = undefined_thing;", "y = 1;"])
        out = "".join(repl.output)
        assert "???" in out
        assert repl.workspace["y"] == 1.0

    def test_runtime_error_keeps_session(self):
        repl = drive(["a = ones(2, 2);", "b = a(5, 5);", "c = 3;"])
        assert "???" in "".join(repl.output)
        assert repl.workspace["c"] == 3.0

    def test_rng_state_persists(self):
        repl = drive(["rand('seed', 9);", "a = rand(2, 2);",
                      "b = rand(2, 2);"])
        assert not np.array_equal(np.asarray(repl.workspace["a"]),
                                  np.asarray(repl.workspace["b"]))


class TestMultiline:
    def test_for_block_buffered(self):
        repl = drive(["s = 0;", "for i = 1:4", "    s = s + i;", "end"])
        assert repl.workspace["s"] == 10.0

    def test_nested_blocks(self):
        repl = drive([
            "t = 0;",
            "for i = 1:3",
            "    if i > 1",
            "        t = t + i;",
            "    end",
            "end",
        ])
        assert repl.workspace["t"] == 5.0

    def test_block_delta_counts(self):
        assert _block_delta("for i = 1:3") == 1
        assert _block_delta("end") == -1
        assert _block_delta("if a, x = 1; end") == 0
        assert _block_delta("x = 'for ever'") == 0  # inside a string
        assert _block_delta("% for comment") == 0

    def test_block_delta_reads_tokens(self):
        """A transpose is not a string quote, a subscript's ``end``
        closes no block, and a ``%`` inside a string is no comment."""
        assert _block_delta("x = [1, 2]'; for i = 1:2") == 1
        assert _block_delta("y = x'; z = y'; while 0") == 1
        assert _block_delta("a(end) = a(end - 1) + numel(b{end});") == 0
        assert _block_delta("s = '50%'; if 1") == 1
        assert _block_delta("t = 'it''s end'; switch k") == 1

    def test_block_after_a_transpose_runs_once_closed(self):
        repl = drive(["x = [1, 2]'; for i = 1:2", "y(i) = x(end) * i;",
                      "end"])
        assert "expected" not in "".join(repl.output)
        assert repl.workspace["y"].tolist() == [[2.0, 4.0]]


class TestDirectives:
    def test_whos_lists_variables(self):
        repl = drive(["abc = ones(3, 4);", "whos"])
        out = "".join(repl.output)
        assert "abc" in out and "3x4" in out and "double" in out

    def test_clear_all(self):
        repl = drive(["x = 1;", "clear", "whos"])
        assert "(empty workspace)" in "".join(repl.output)
        assert not repl.workspace

    def test_clear_named(self):
        repl = drive(["x = 1;", "y = 2;", "clear x"])
        assert "y" in repl.workspace and "x" not in repl.workspace

    def test_quit_stops_processing(self):
        repl = drive(["x = 1;", "quit", "y = 2;"])
        assert "y" not in repl.workspace

    def test_profile_cycle(self):
        repl = drive(["profile on", "a = rand(16, 16);", "b = a * a;",
                      "profile report"])
        out = "".join(repl.output)
        assert "time(ms)" in out

    def test_help(self):
        repl = drive(["help"])
        assert "directives" in "".join(repl.output)


class TestMFiles:
    def test_functions_resolved_from_provider(self):
        provider = DictProvider({
            "twice": "function y = twice(x)\ny = 2 * x;"})
        repl = drive(["z = twice(21);"], provider=provider)
        assert repl.workspace["z"] == 42.0

    def test_variable_shadows_function_between_inputs(self):
        provider = DictProvider({
            "f": "function y = f(x)\ny = x + 100;"})
        repl = drive(["a = f(1);", "f = [10, 20, 30];", "b = f(2);"],
                     provider=provider)
        assert repl.workspace["a"] == 101.0
        assert repl.workspace["b"] == 20.0  # now indexing the variable

    def test_an_edited_mfile_is_read_again(self, tmp_path):
        helper = tmp_path / "triple.m"
        helper.write_text("function y = triple(x)\ny = x * 3;\n",
                          encoding="utf-8")
        repl = Repl(provider=DirectoryProvider([str(tmp_path)]))
        repl.run_lines(["a = triple(7); disp(a);"])
        assert "".join(repl.output).split() == ["21"]
        # the same size: the modification time tells the edit apart
        stamp = helper.stat().st_mtime_ns
        helper.write_text("function y = triple(x)\ny = x * 4;\n",
                          encoding="utf-8")
        os.utime(helper, ns=(stamp + 10**9, stamp + 10**9))
        repl.run_lines(["a = triple(7); disp(a);"])
        assert "".join(repl.output).split() == ["21", "28"]
