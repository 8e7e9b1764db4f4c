"""Every name a module of hga imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hga"


def unused_imports(source):
    """Names bound by an import statement anywhere in source that no name
    expression reads and ``__all__`` does not list, sorted."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_scan_finds_unused_imports():
    source = ("import os\nimport os.path as osp\nfrom math import inf, pi\n"
              "__all__ = ['pi']\n\ndef f():\n    import sys\n    return inf\n")
    assert unused_imports(source) == ["os", "osp", "sys"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
