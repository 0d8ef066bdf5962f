"""The demos still import: every name they take from the package exists.

Running the demos is too slow for this suite (the canonical-instances demo
builds critical instances for about 16 s), so their imports are checked
statically instead.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from schemaforge[.x] import name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module is not None
        and (node.module == "schemaforge" or node.module.startswith("schemaforge."))
        for alias in node.names
    ]


def test_there_are_demos_importing_the_package():
    assert DEMOS and all(_package_imports(path) for path in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_exist(path):
    missing = [
        f"{module}.{name}"
        for module, name in _package_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
