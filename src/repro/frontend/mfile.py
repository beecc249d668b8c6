"""M-file lookup.

A MATLAB *program* is a script plus every user M-file function reachable
from it.  Identifier resolution (pass 2) asks an :class:`MFileProvider` for
the source of a candidate function name; providers can serve from an
in-memory mapping (tests, generated workloads) or from ``.m`` files on disk.
"""

from __future__ import annotations

import os
from typing import Mapping

from . import ast_nodes as A
from .lexer import token_key, tokenize
from .parser import parse_function_file


def _parse_mfile(source: str, filename: str) -> tuple[list[A.FunctionDef], str]:
    """The functions of an M-file and its :func:`~.lexer.token_key`."""
    tokens = tokenize(source, filename)
    return parse_function_file(source, filename, tokens), token_key(tokens)


class MFileProvider:
    """Resolve a function name to parsed :class:`FunctionDef` objects."""

    def lookup(self, name: str) -> list[A.FunctionDef] | None:
        raise NotImplementedError

    def source_key(self, name: str) -> str | None:
        """The :func:`~.lexer.token_key` of the file ``lookup(name)``
        parsed (what the compile cache's disk tier checks a dependency
        by), or None when this provider cannot say."""
        return None

    def load_data_file(self, name: str):  # pragma: no cover - interface
        """Return the contents of a data file (for `load`), or None."""
        return None


class DictProvider(MFileProvider):
    """Serve M-files from an in-memory ``{name: source}`` mapping."""

    def __init__(self, sources: Mapping[str, str] | None = None,
                 data_files: Mapping[str, object] | None = None):
        self.sources = dict(sources or {})
        self.data_files = dict(data_files or {})
        self._cache: dict[str, list[A.FunctionDef]] = {}
        self._keys: dict[str, str] = {}

    def lookup(self, name: str) -> list[A.FunctionDef] | None:
        if name in self._cache:
            return self._cache[name]
        src = self.sources.get(name)
        if src is None:
            return None
        funcs, self._keys[name] = _parse_mfile(src, f"{name}.m")
        self._cache[name] = funcs
        return funcs

    def source_key(self, name: str) -> str | None:
        self.lookup(name)
        return self._keys.get(name)

    def load_data_file(self, name: str):
        return self.data_files.get(name)


class DirectoryProvider(MFileProvider):
    """Serve ``name.m`` files from one or more directories, first hit wins."""

    def __init__(self, paths: list[str]):
        self.paths = list(paths)
        self._cache: dict[str, list[A.FunctionDef] | None] = {}
        self._keys: dict[str, str] = {}

    def lookup(self, name: str) -> list[A.FunctionDef] | None:
        if name in self._cache:
            return self._cache[name]
        result = None
        for directory in self.paths:
            candidate = os.path.join(directory, f"{name}.m")
            if os.path.isfile(candidate):
                with open(candidate, "r", encoding="utf-8") as fh:
                    result, self._keys[name] = _parse_mfile(fh.read(),
                                                            candidate)
                break
        self._cache[name] = result
        return result

    def source_key(self, name: str) -> str | None:
        self.lookup(name)
        return self._keys.get(name)

    def load_data_file(self, name: str):
        import numpy as np

        for directory in self.paths:
            for candidate in (
                os.path.join(directory, name),
                os.path.join(directory, f"{name}.dat"),
            ):
                if os.path.isfile(candidate):
                    return np.loadtxt(candidate)
        return None


class ChainProvider(MFileProvider):
    """Try a sequence of providers in order."""

    def __init__(self, providers: list[MFileProvider]):
        self.providers = list(providers)

    def lookup(self, name: str) -> list[A.FunctionDef] | None:
        for provider in self.providers:
            hit = provider.lookup(name)
            if hit is not None:
                return hit
        return None

    def source_key(self, name: str) -> str | None:
        for provider in self.providers:
            if provider.lookup(name) is not None:
                return provider.source_key(name)
        return None

    def load_data_file(self, name: str):
        for provider in self.providers:
            hit = provider.load_data_file(name)
            if hit is not None:
                return hit
        return None


EMPTY_PROVIDER = DictProvider({})
