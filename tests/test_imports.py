"""The package may import only the standard library and its declared
dependency, numpy (pyproject.toml); anything else installed on a developer's
machine, such as scipy, is not there for users."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gztower"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gztower"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_stdlib_and_numpy(path):
    outside = {name for name in _imported_modules(path) if name.split(".")[0] not in ALLOWED}
    assert not outside, f"{path.name} imports undeclared {sorted(outside)}"


def test_the_check_sees_an_undeclared_import(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text("import numpy as np\nfrom scipy.linalg import eig\n")
    assert list(_imported_modules(module)) == ["numpy", "scipy.linalg"]
    assert "scipy" not in ALLOWED
