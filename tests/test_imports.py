"""Every package module uses every name it imports (``__init__`` re-exports
its imports, so it is left out)."""

import ast
from pathlib import Path

import pytest

import ccndecomp

MODULES = sorted(p for p in Path(ccndecomp.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("import math\nimport random\nfrom .monoid import WeightMonoid, sample_dyadic\n"
              "def f(m: WeightMonoid):\n    return math.pi\n")
    assert unused_imports(source) == ["random", "sample_dyadic"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
