"""The package namespace: every export resolves and every import is exported."""

import ast
from pathlib import Path

import gevreylab


def test_all_lists_exactly_the_public_imports():
    tree = ast.parse(Path(gevreylab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = gevreylab.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(gevreylab, name)] == []
    assert {name for name in imported if not name.startswith("_")} <= set(exported)
