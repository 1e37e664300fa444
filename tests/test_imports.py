"""Every module-level import of the package is used or re-exported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "modalkit"


def _bound(node) -> list[str]:
    """The names a module-level import binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names]


def _exported(tree) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - _exported(tree)) == []
