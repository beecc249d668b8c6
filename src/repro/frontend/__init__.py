"""MATLAB frontend: scanner, parser, AST, and M-file lookup (pass 1)."""

from . import ast_nodes
from .ast_nodes import Program, Script, FunctionDef, walk
from .lexer import tokenize
from .mfile import ChainProvider, DictProvider, DirectoryProvider, MFileProvider
from .parser import Parser, parse_expression, parse_function_file, parse_script
from .tokens import Token, TokenKind

__all__ = [
    "ast_nodes",
    "Program",
    "Script",
    "FunctionDef",
    "walk",
    "tokenize",
    "Parser",
    "parse_expression",
    "parse_function_file",
    "parse_script",
    "Token",
    "TokenKind",
    "MFileProvider",
    "DictProvider",
    "DirectoryProvider",
    "ChainProvider",
]
