"""Every module-level import in the package is used in its module."""

import ast
from pathlib import Path

import pytest

import finpolylog

PACKAGE_DIR = Path(finpolylog.__file__).parent
MODULES = sorted(
    path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
