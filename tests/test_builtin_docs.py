"""docs/BUILTINS.md must match the registry (regenerate with
``python -m repro.tools.builtin_table``)."""

import os

from repro.tools.builtin_table import generate

DOC = os.path.join(os.path.dirname(__file__), "..", "docs", "BUILTINS.md")


def test_builtin_doc_is_fresh():
    with open(DOC, encoding="utf-8") as fh:
        checked_in = fh.read()
    assert checked_in == generate(), (
        "docs/BUILTINS.md is stale; run python -m repro.tools.builtin_table")


def test_doc_mentions_every_builtin():
    from repro.analysis.builtin_sigs import REGISTRY

    with open(DOC, encoding="utf-8") as fh:
        text = fh.read()
    for name in REGISTRY:
        assert f"`{name}`" in text, name


def test_native_doc_lists_the_op_rows():
    """docs/NATIVE.md's admission list, class by class, is the table."""
    import re

    from repro.ewops import OPS

    path = os.path.join(os.path.dirname(DOC), "NATIVE.md")
    with open(path, encoding="utf-8") as fh:
        listed = {m.group(1): re.findall(r"`([^`]+)`", m.group(2))
                  for m in re.finditer(r"^ *\* \*\*(\w+)\*\* — (.*)$",
                                       fh.read(), re.M)}
    for kind in ("exact", "probed"):
        assert listed[kind] == [op for op, row in OPS.items()
                                if row.kind == kind], kind
    assert listed["guarded"] == [op for op, row in OPS.items() if row.guard]
