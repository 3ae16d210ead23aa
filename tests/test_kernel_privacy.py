"""The packed GF(p) format is private to ``poly``: no other module of the
package names its helpers."""

import ast
from pathlib import Path

import pytest

import finpolylog

PACKAGE_DIR = Path(finpolylog.__file__).parent
MODULES = sorted(
    path for path in PACKAGE_DIR.glob("*.py") if path.name != "poly.py"
)
PRIVATE = {
    "_Kronecker",
    "_packed_mul",
    "_dense_mul",
    "_packed_add",
    "_packed_merge",
    "_term_arrays",
    "_degree_bound",
    "_grouped_sum",
    "_stack",
    "_binomial_powers",
    "_factorials",
    "_residue_powers",
    "_power_of",
    "_pair_products",
}


def private_names(source: str) -> list:
    """Packed-format helpers that ``source`` imports, reads or looks up as
    attributes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found.append(node.name)
        elif isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
    return sorted(set(found) & PRIVATE)


def test_scan_finds_private_names():
    source = (
        "from .poly import _packed_mul, SparsePoly\n"
        "from . import poly\n"
        "k = poly._Kronecker([2])\n"
    )
    assert private_names(source) == ["_Kronecker", "_packed_mul"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_packed_format_stays_in_poly(path):
    assert private_names(path.read_text()) == []
