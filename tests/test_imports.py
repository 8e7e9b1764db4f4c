"""Every name a module of hga imports is used in that module, every
module-level private def of hga is read somewhere in hga, hga needs
nothing but the standard library to run, and no verdict of hga rests on
a random draw."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hga"


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


def private_defs_never_read(sources):
    """Names of the module-level functions and classes named _private in
    sources that no code of sources reads by name outside their own body,
    sorted.  An attribute read (module._name) counts as a read."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            owner = getattr(node, "name", None)
            if owner and owner.startswith("_") and not owner.startswith("__"):
                defined.add(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return sorted(defined - read)


def test_scan_finds_private_defs_never_read():
    first = ("def _used():\n    return 1\n\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n\n"
             "class _Dead:\n    pass\n\n"
             "def public():\n    return other._helper() + _used()\n")
    second = "def _helper():\n    return 2\n\ndef _orphan():\n    return 3\n"
    assert private_defs_never_read([first, second]) == [
        "_Dead", "_orphan", "_recursive"]


def test_every_private_def_is_read():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))]
    assert private_defs_never_read(sources) == []


def outside_imports(source):
    """Top-level names of the modules source imports, anywhere in it, that
    are neither relative imports nor in the standard library, sorted."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names))


def test_scan_finds_outside_imports():
    source = ("import os.path\nfrom . import linalg\nfrom .memo import memo\n"
              "from hga import reps\nimport numpy as np\n\n"
              "def f():\n    import sympy\n    from fractions import Fraction\n")
    assert outside_imports(source) == ["hga", "numpy", "sympy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert outside_imports(path.read_text(encoding="utf-8")) == []


def test_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r"^dependencies\s*=\s*(\[[^\]]*\])", text, re.M)
    assert found and ast.literal_eval(found.group(1)) == []


def random_uses(source):
    """Where source names the random module: "<module>" for a plain
    ``import random`` at module level, else the name of the top-level def
    or class holding the import or read; a ``from random import`` anywhere
    is reported as "from random import", since the names it binds are not
    followed.  Sorted, without repeats."""
    found = set()
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            if isinstance(sub, ast.ImportFrom) and sub.module and \
                    sub.module.split(".")[0] == "random":
                found.add("from random import")
            elif isinstance(sub, ast.Import) and any(
                    a.name.split(".")[0] == "random" for a in sub.names) or \
                    isinstance(sub, ast.Name) and sub.id == "random":
                found.add(owner)
    return sorted(found)


def test_scan_finds_random_uses():
    source = ("import random\n\ndef seeded(s):\n    return random.Random(s)\n"
              "\nclass Guess:\n    def f(self):\n        import random\n"
              "\ndef g():\n    from random import randint\n")
    assert random_uses(source) == ["<module>", "Guess", "from random import",
                                   "seeded"]


def test_random_only_orders_the_reduction_search():
    # every search whose miss is a verdict is exact; a seed only orders
    # reduce_to_gentle's depth-first walk
    uses = {path.name: random_uses(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}
    assert {name: u for name, u in uses.items() if u} == {
        "reduction.py": ["<module>", "reduce_to_gentle"]}
