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


def _private_defs(node) -> list[str]:
    """The private names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node) -> set[str]:
    """The names a statement reads, as names, attributes or imports."""
    out = set()
    for x in ast.walk(node):
        if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load):
            out.add(x.id)
        elif isinstance(x, ast.Attribute):
            out.add(x.attr)
        elif isinstance(x, ast.alias):
            out.add(x.name)
    return out


def test_private_names_are_referenced():
    """Every module-level private function, class or constant is read
    somewhere in the package outside its own definition."""
    statements = [node for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    refs = [_references(node) for node in statements]
    unread = [name for i, node in enumerate(statements)
              for name in _private_defs(node)
              if not any(name in r for j, r in enumerate(refs) if j != i)]
    assert unread == []
