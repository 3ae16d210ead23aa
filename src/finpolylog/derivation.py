"""Transport of classical functional equations to finite-field ones.

A derivation D = sum_j g_j d/dt_j sends a classical equation
sum n_i [x_i] (weight w) to the sum with each term rewritten as
n_i * (D(x_i)/(x_i(1-x_i))) [x_i].  The resulting sum is a functional
equation for the polylogarithm one weight lower, which is what the
twisted evaluator checks.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass

from .catalog import verify_strong, verify_weak
from .errors import BadParams, DegenerateArgument, SizeExceeded
from .formal import FormalSum, normalize_mod_inversion
from .poly import RatFunc


@dataclass(frozen=True)
class Derivation:
    """A derivation given by its action on the variables."""

    coeffs: tuple  # tuple of (variable, RatFunc)

    @classmethod
    def from_map(cls, mapping: dict) -> "Derivation":
        return cls(tuple(sorted(mapping.items())))

    def as_map(self) -> dict:
        return dict(self.coeffs)

    def __call__(self, f: RatFunc) -> RatFunc:
        return apply_derivation(self, f)


def standard_derivation(variables, p: int) -> Derivation:
    """D = sum_t t(1-t) d/dt over the given variables."""
    from .catalog import _gens

    dom, one, xs = _gens(tuple(variables), p)
    return Derivation.from_map(
        {v: xs[v] * (one - xs[v]) for v in variables}
    )


def apply_derivation(d: Derivation, f: RatFunc) -> RatFunc:
    """sum_j g_j * df/dt_j."""
    acc = None
    for var, g in d.coeffs:
        piece = g * f.derivative(var)
        acc = piece if acc is None else acc + piece
    if acc is None:
        raise BadParams("empty derivation")
    return acc


def derive(s: FormalSum, d: Derivation):
    """Apply the termwise rewrite [x] -> (D(x)/(x(1-x)))[x].

    Constant-argument terms are dropped (their image is zero); the
    returned notices list records each dropped term.  The output's weight
    is one lower than the input's: that is the index at which the twisted
    evaluator is expected to vanish on the derived sum.
    """
    one = RatFunc.const(s.variables, s.domain, 1)
    notices = []
    terms = []
    for coeff, arg in s.terms:
        if arg.is_constant():
            notices.append(
                f"dropped constant-argument term ({coeff.serialize()})"
                f"[{arg.serialize()}]"
            )
            continue
        denom = arg * (one - arg)
        if denom.is_zero():
            raise DegenerateArgument(
                f"argument {arg.serialize()} is identically 0 or 1"
            )
        new_coeff = coeff * (apply_derivation(d, arg) / denom)
        terms.append((new_coeff, arg))
    derived = FormalSum(
        s.weight - 1, tuple(terms), s.variables, label=s.label
    ).merged()
    return derived, notices


def derived_equals(s1: FormalSum, s2: FormalSum):
    """Compare two sums modulo inversion rewrites, up to a global scalar.

    Returns (equal, scalar, chain): ``equal`` is true when
    normalize_mod_inversion(s1 - scalar*s2) merges to the empty sum; the
    scalar (a RatFunc, 1 when none is needed) is reported, and ``chain``
    describes the normalization steps taken.
    """
    if s1.weight != s2.weight:
        return False, None, ["weight mismatch"]
    one = RatFunc.const(s1.variables, s1.domain, 1)
    chain = ["normalize_mod_inversion on both sums", "merge"]
    n1 = normalize_mod_inversion(s1)
    n2 = normalize_mod_inversion(s2)
    if len(normalize_mod_inversion((s1 - s2).merged())) == 0:
        return True, one, chain
    # look for a scalar via matching canonical arguments
    index2 = {arg.canonical_key(): coeff for coeff, arg in n2.terms}
    scalar = None
    for coeff, arg in n1.terms:
        other = index2.get(arg.canonical_key())
        if other is not None and not other.is_zero():
            scalar = coeff / other
            break
    if scalar is None:
        return False, None, chain + ["no matching argument found"]
    diff = normalize_mod_inversion((s1 - s2.scale(scalar)).merged())
    chain.append(f"scalar {scalar.serialize()}")
    return len(diff) == 0, scalar, chain


def verify_derived(s: FormalSum, fld, weight: int | None = None, **kw):
    """Weak verification of a derived sum, with the strong status attempted
    and reported alongside."""
    weak = verify_weak(s, fld, weight=weight, **kw)
    strong = verify_strong(s, weight=weight if weight is not None else s.weight)
    return {"weak": weak, "strong": strong}


# Largest |exponent| that parse_rational_expression expands: a power is
# expanded in full, and (a*b+a+2)**256 over GF(1009) already takes seconds.
MAX_PARSED_EXPONENT = 64

_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: None,
}


def parse_rational_expression(text: str, variables, p: int) -> RatFunc:
    """Parse arithmetic over the given variables into a RatFunc.

    Supports +, -, *, /, ** (integer exponents of absolute value at most
    ``MAX_PARSED_EXPONENT``, else SizeExceeded), parentheses, integer
    literals, and the variable names.
    """
    from .catalog import _gens

    dom, one, xs = _gens(tuple(variables), p)

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp):
            op = type(node.op)
            if op not in _ALLOWED_BINOPS:
                raise BadParams(f"operator {op.__name__} not allowed")
            if op is ast.Pow:
                if not (
                    isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int)
                ):
                    raise BadParams("exponent must be an integer literal")
                if abs(node.right.value) > MAX_PARSED_EXPONENT:
                    raise SizeExceeded(
                        f"exponent {node.right.value} exceeds {MAX_PARSED_EXPONENT}"
                    )
                return ev(node.left) ** node.right.value
            return _ALLOWED_BINOPS[op](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -ev(node.operand)
            if isinstance(node.op, ast.UAdd):
                return ev(node.operand)
            raise BadParams("unary operator not allowed")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return RatFunc.const(tuple(variables), dom, dom.coerce(node.value))
            raise BadParams(f"literal {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            if node.id not in xs:
                raise BadParams(f"unknown variable {node.id!r}")
            return xs[node.id]
        raise BadParams(f"syntax {type(node).__name__} not allowed")

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise BadParams(f"cannot parse expression {text!r}: {exc}") from exc
    return ev(tree)


def parse_derivation(spec: str, variables, p: int) -> Derivation:
    """Parse 'var:expr;var:expr' into a Derivation over the variables."""
    mapping = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise BadParams(f"malformed derivation component {chunk!r}")
        var, expr = chunk.split(":", 1)
        var = var.strip()
        if var not in variables:
            raise BadParams(f"unknown variable {var!r}")
        mapping[var] = parse_rational_expression(expr, variables, p)
    zero = RatFunc.const(
        tuple(variables), mapping[next(iter(mapping))].num.domain, 0
    ) if mapping else None
    for v in variables:
        if v not in mapping:
            if zero is None:
                raise BadParams("empty derivation specification")
            mapping[v] = zero
    return Derivation.from_map(mapping)
