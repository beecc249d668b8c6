"""M-file provider tests (dict, directory, chain)."""

import os

import numpy as np
import pytest

from repro.frontend.lexer import token_key, tokenize
from repro.frontend.mfile import (
    ChainProvider,
    DictProvider,
    DirectoryProvider,
)


class TestDictProvider:
    def test_lookup_parses_and_caches(self):
        p = DictProvider({"f": "function y = f(x)\ny = x;"})
        first = p.lookup("f")
        assert first is not None and first[0].name == "f"
        assert p.lookup("f") is first  # cached
        assert p.source_key("f") == token_key(
            tokenize("function y = f(x)\ny = x;"))

    def test_missing_returns_none(self):
        assert DictProvider({}).lookup("nope") is None
        assert DictProvider({}).source_key("nope") is None

    def test_data_files(self):
        data = np.ones((2, 2))
        p = DictProvider({}, {"d.dat": data})
        assert p.load_data_file("d.dat") is data
        assert p.load_data_file("other") is None


class TestDirectoryProvider:
    def test_finds_m_file(self, tmp_path):
        (tmp_path / "g.m").write_text("function y = g(x)\ny = x + 1;\n")
        p = DirectoryProvider([str(tmp_path)])
        funcs = p.lookup("g")
        assert funcs is not None and funcs[0].name == "g"
        assert p.source_key("g") == token_key(
            tokenize("function y = g(x)\ny = x + 1;\n"))
        assert p.source_key("absent") is None

    def test_first_directory_wins(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        (d1 / "f.m").write_text("function y = f\ny = 1;\n")
        (d2 / "f.m").write_text("function y = f\ny = 2;\n")
        p = DirectoryProvider([str(d1), str(d2)])
        funcs = p.lookup("f")
        # the body from d1: y = 1
        from repro.frontend import ast_nodes as A

        assign = funcs[0].body[0]
        assert isinstance(assign, A.Assign)
        assert assign.value.value == 1.0

    def test_parses_again_only_when_the_file_changes(self, tmp_path):
        path = tmp_path / "g.m"
        path.write_text("function y = g(x)\ny = x + 1;\n")
        p = DirectoryProvider([str(tmp_path)])
        first = p.lookup("g")
        assert p.lookup("g") is first
        stamp = path.stat().st_mtime_ns
        path.write_text("function y = g(x)\ny = x + 2;\n")
        os.utime(path, ns=(stamp + 10**9, stamp + 10**9))
        again = p.lookup("g")
        assert again is not first and p.lookup("g") is again
        assert again[0].body[0].value.rhs.value == 2.0
        path.unlink()
        assert p.lookup("g") is None and p.source_key("g") is None

    def test_missing_cached_as_none(self, tmp_path):
        p = DirectoryProvider([str(tmp_path)])
        assert p.lookup("absent") is None
        assert p.lookup("absent") is None

    def test_loads_data_file(self, tmp_path):
        np.savetxt(tmp_path / "grid.dat", np.arange(6.0).reshape(2, 3))
        p = DirectoryProvider([str(tmp_path)])
        data = p.load_data_file("grid")
        np.testing.assert_array_equal(data, np.arange(6.0).reshape(2, 3))
        data2 = p.load_data_file("grid.dat")
        np.testing.assert_array_equal(data2, data)

    def test_end_to_end_compile_from_directory(self, tmp_path):
        from repro.compiler import OtterCompiler

        (tmp_path / "tw.m").write_text("function y = tw(x)\ny = 2 * x;\n")
        compiler = OtterCompiler(provider=DirectoryProvider([str(tmp_path)]))
        result = compiler.compile("z = tw(10) + tw(11);").run(nprocs=2)
        assert result.workspace["z"] == 42.0


class TestChainProvider:
    def test_first_hit_wins(self):
        p1 = DictProvider({"f": "function y = f\ny = 1;"})
        p2 = DictProvider({"f": "function y = f\ny = 2;",
                           "g": "function y = g\ny = 3;"})
        chain = ChainProvider([p1, p2])
        assert chain.lookup("f")[0].body[0].value.value == 1.0
        assert chain.lookup("g") is not None
        assert chain.lookup("h") is None
        assert chain.source_key("f") == p1.source_key("f") \
            != p2.source_key("f")
        assert chain.source_key("g") == p2.source_key("g")
        assert chain.source_key("h") is None

    def test_data_file_chain(self):
        chain = ChainProvider([
            DictProvider({}, {}),
            DictProvider({}, {"d": np.zeros(3)}),
        ])
        assert chain.load_data_file("d") is not None
        assert chain.load_data_file("x") is None
