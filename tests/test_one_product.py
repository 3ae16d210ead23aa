"""The package has one GF(p) matrix product, ``solver._mul_mod``: every
``@`` and every ``np.float64`` lies inside it, but for two that take no
product mod p, the key packing of ``poly._Kronecker.pack`` and the float64
cell count of ``poly._dense_mul``."""

import ast
from pathlib import Path

import pytest

import finpolylog

PACKAGE_DIR = Path(finpolylog.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
# "@" stands for a matrix product (ast.MatMult); each maps to the
# functions, as (module, function), that may use it
ALLOWED = {
    "@": {("solver", "_mul_mod"), ("poly", "_Kronecker.pack")},
    "float64": {("solver", "_mul_mod"), ("poly", "_dense_mul")},
}


def uses(source: str, module: str) -> list:
    """(kind, (module, function)) for every ``@`` or ``@=`` and every
    read of ``float64`` (a name, an attribute, an import or the dtype
    string) in ``source``; the function is the innermost one around it,
    dotted from the outermost, or None at module level."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def record(self, kind):
            found.append((kind, (module, ".".join(self.stack) or None)))

        def visit_BinOp(self, node):
            if isinstance(node.op, ast.MatMult):
                self.record("@")
            self.generic_visit(node)

        visit_AugAssign = visit_BinOp

        def visit_Attribute(self, node):
            if node.attr == "float64":
                self.record("float64")
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id == "float64":
                self.record("float64")

        def visit_alias(self, node):
            if node.name == "float64":
                self.record("float64")

        def visit_Constant(self, node):
            if node.value == "float64":
                self.record("float64")

    Visitor().visit(ast.parse(source))
    return found


def test_scan_finds_every_use():
    source = (
        "from numpy import float64\n"
        "def _mul_mod(a, b):\n"
        "    return a.astype(np.float64) @ b\n"
        "def other(a, b):\n"
        "    def inner():\n"
        "        a @= b\n"
        "    return a @ b, a.astype('float64')\n"
    )
    assert uses(source, "solver") == [
        ("float64", ("solver", None)),
        ("@", ("solver", "_mul_mod")),
        ("float64", ("solver", "_mul_mod")),
        ("@", ("solver", "other.inner")),
        ("@", ("solver", "other")),
        ("float64", ("solver", "other")),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_one_product(path):
    for kind, where in uses(path.read_text(), path.stem):
        assert where in ALLOWED[kind], f"{kind} used in {where}"


def test_the_allowed_uses_are_there():
    found = set()
    for module in ("solver", "poly"):
        found.update(uses((PACKAGE_DIR / f"{module}.py").read_text(), module))
    assert found == {(kind, where) for kind, places in ALLOWED.items() for where in places}
