"""No module of the package imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

_MODULES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "mtt").glob("*.py")
                  if p.name != "__init__.py")  # __init__ imports to re-export


def _unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and no other line of it reads: a name
    read in an expression or annotation, or as the base of an attribute, is used."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("import math\nimport numpy as np\nfrom .gaussians import ValueEq, _frozen_matrix\n"
              "x: np.ndarray = math.pi\nclass A(ValueEq): pass\n")
    assert _unused_imports(source) == ["line 3: _frozen_matrix"]
