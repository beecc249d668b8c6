"""Consistency between the C emitter and otter_runtime.h: every ML_*
identifier the backend can emit must be declared in the shipped header."""

import os
import re

import pytest

from repro.compiler import compile_source
from repro.frontend.mfile import DictProvider
from repro.tuning import FUSION_REWRITES, Plan

HEADER_PATH = os.path.join(os.path.dirname(__import__(
    "repro.codegen", fromlist=["codegen"]).__file__), "otter_runtime.h")

#: a corpus that exercises every emitter path
CORPUS = [
    "a = rand(4, 4); b = rand(4, 4); c = a * b + a(1, 2);",
    "a = rand(4, 4); i = 2; a(i, i) = a(i, i) / 2;",
    "v = 1:10; s = sum(v); m = mean(v); t = trapz(v);",
    "v = rand(8, 1); w = v' * v; x = sort(v); c = cumsum(v);",
    "a = rand(4, 4); b = a'; c = a \\ ones(4, 1); d = ones(1, 4) / a;",
    "a = rand(3, 3) ^ 2; d = diag(a); t = tril(a); u = triu(a, 1);",
    "z = sqrt(-1) + 2i; r = real(z); g = angle(z);",
    "a = rand(2, 6); b = reshape(a, 3, 4); c = repmat(b, 2, 2);",
    "v = rand(1, 9); w = circshift(v, 2); f = fliplr(v); g = flipud(v');",
    "x = 1; while x < 5\n x = x + 1;\nend\nif x > 2\n disp(x);\nend",
    "for i = 1:3\n fprintf('%d\\n', i);\nend",
    "a = rand(3, 3)\ns = 5\ndisp('hi');",
    "a = [1, 2; 3, 4]; b = a(:, 1); c = a(1, :); e = a(end);",
    "[r, c] = size(ones(2, 3)); [m, k] = max([3, 1, 4]);",
    "n = numel(ones(2, 2)); l = length(1:5); e = isempty([]);",
    "s = std(rand(10, 1)); v = var(rand(10, 1)); md = median(1:5);",
    "ix = find([0, 1, 0, 2]);",
    "a = mod(7, 3) + atan2(1, 2) + hypot(3, 4) + power(2, 5);",
    "x = pi + eps; y = floor(2.5) + ceil(2.5) + round(2.5) + fix(-2.5);",
    "m = 2; switch m\ncase 1\n x = 1;\notherwise\n x = 0;\nend",
    "t = 0; for col = rand(3, 3)\n t = t + sum(col);\nend",
    "A = rand(6, 4); B = rand(6, 3); C = A' * B;",
    "A = rand(6, 4); B = circshift(A, [1, 0]); s = sum(sum(B));",
]

#: a plan that runs every pass-6 rewrite, for the calls the default
#: plan's schedule never prints
FULL_CORPUS = [
    "x = rand(6, 1); y = rand(6, 1); a = max(x); b = max(y);",
]

MFILE_CORPUS = [
    ("y = helper(3);", {"helper": "function y = helper(x)\ny = x * 2;"}),
]


def emitted_ml_identifiers():
    names = set()
    for src in CORPUS:
        c = compile_source(src).c_source
        names.update(re.findall(r"\bML_[A-Za-z_0-9]+\b", c))
    for src in FULL_CORPUS:
        c = compile_source(src, plan=Plan(fusion=FUSION_REWRITES)).c_source
        names.update(re.findall(r"\bML_[A-Za-z_0-9]+\b", c))
    for src, mfiles in MFILE_CORPUS:
        c = compile_source(src, provider=DictProvider(mfiles)).c_source
        names.update(re.findall(r"\bML_[A-Za-z_0-9]+\b", c))
    # drop generated locals: temporaries, loop counters, immediates,
    # out-params
    return {n for n in names
            if not re.match(r"ML_(tmp|i|imm)\d+$", n)
            and not n.startswith("ML_out_")}


def header_identifiers():
    with open(HEADER_PATH, encoding="utf-8") as fh:
        text = fh.read()
    return set(re.findall(r"\bML_[A-Za-z_0-9]+\b", text))


def test_header_exists_next_to_emitter():
    assert os.path.isfile(HEADER_PATH)


def test_every_emitted_identifier_is_declared():
    emitted = emitted_ml_identifiers()
    declared = header_identifiers()
    missing = emitted - declared
    assert not missing, f"emitter produces undeclared names: {sorted(missing)}"


def test_emitted_corpus_is_substantial():
    # the corpus must actually exercise the backend broadly
    emitted = emitted_ml_identifiers()
    assert len(emitted) > 40, sorted(emitted)


def test_header_has_paper_struct_fields():
    with open(HEADER_PATH, encoding="utf-8") as fh:
        text = fh.read()
    for field in ("type", "rows", "cols", "local_els", "realbase"):
        assert field in text
    assert "typedef struct MATRIX" in text
