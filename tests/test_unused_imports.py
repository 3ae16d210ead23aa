"""Every module-level import in the package is used in its module, and every
function, class and method it defines is named somewhere else."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import finpolylog

PACKAGE_DIR = Path(finpolylog.__file__).parent
MODULES = sorted(
    path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"
)
REPO_DIR = Path(__file__).resolve().parent.parent
SEARCHED_DIRS = ("src", "tests", "perfbench")


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


def defined_names(source: str) -> list:
    """Module-level functions and classes, and the non-dunder methods of
    those classes."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return names


def unreferenced(definitions: Counter, texts) -> list:
    """Defined names that occur in ``texts`` only as often as they are
    defined, that is, nowhere but in their own definitions."""
    words = Counter()
    for text in texts:
        words.update(re.findall(r"\w+", text))
    return sorted(name for name, count in definitions.items() if words[name] <= count)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unreferenced_scan_finds_dead_definitions():
    source = (
        "def used():\n    pass\n\n"
        "def dead():\n    pass\n\n"
        "class Box:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def open(self):\n        return used()\n\n"
        "    def shut(self):\n        pass\n"
    )
    defined = Counter(defined_names(source))
    assert sorted(defined) == ["Box", "dead", "open", "shut", "used"]
    assert unreferenced(defined, [source, "Box().open()\n"]) == ["dead", "shut"]


def test_every_package_definition_is_referenced():
    definitions = Counter()
    for path in PACKAGE_DIR.glob("*.py"):
        definitions.update(defined_names(path.read_text()))
    texts = [
        path.read_text()
        for folder in SEARCHED_DIRS
        for path in sorted((REPO_DIR / folder).rglob("*.py"))
    ]
    assert unreferenced(definitions, texts) == []
