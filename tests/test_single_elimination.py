"""The solver has one GF(p) elimination: only ``solver._absorb`` runs
``_gauss_jordan``, and only ``solver._rref`` runs ``_absorb``, so every
reduction goes through the one blocked loop of ``_rref``."""

import ast
from pathlib import Path

import pytest

import finpolylog

PACKAGE_DIR = Path(finpolylog.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
# name -> the one function, as (module, function), that may use it
ALLOWED = {
    "_gauss_jordan": ("solver", "_absorb"),
    "_absorb": ("solver", "_rref"),
}


def uses(source: str, module: str) -> list:
    """(name, (module, function)) for every read of a name of ``ALLOWED``
    in ``source``, by itself or as an attribute; the function is the
    innermost one around the read, dotted from the outermost, or None at
    module level."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_ClassDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def record(self, name):
            if name in ALLOWED:
                found.append((name, (module, ".".join(self.stack) or None)))

        def visit_Name(self, node):
            self.record(node.id)

        def visit_Attribute(self, node):
            self.record(node.attr)
            self.generic_visit(node)

        def visit_alias(self, node):
            self.record(node.name)

    Visitor().visit(ast.parse(source))
    return found


def test_scan_finds_every_use():
    source = (
        "from .solver import _absorb\n"
        "def _rref(m):\n"
        "    return solver._gauss_jordan(m)\n"
        "def other(m):\n"
        "    def inner():\n"
        "        return _absorb\n"
        "    return inner\n"
    )
    assert uses(source, "cli") == [
        ("_absorb", ("cli", None)),
        ("_gauss_jordan", ("cli", "_rref")),
        ("_absorb", ("cli", "other.inner")),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_one_elimination_loop(path):
    for name, where in uses(path.read_text(), path.stem):
        assert where == ALLOWED[name], f"{name} used in {where}"


def test_the_allowed_uses_are_there():
    found = uses((PACKAGE_DIR / "solver.py").read_text(), "solver")
    assert sorted(set(found)) == sorted(ALLOWED.items())
