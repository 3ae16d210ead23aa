"""Catalog of functional-equation formal sums and their verifiers.

Each catalog entry builds a :class:`~finpolylog.formal.FormalSum` whose
arguments and coefficients are rational functions in a fixed set of
indeterminates.  An entry "holds strongly" at weight m when the twisted
evaluation of the sum is the zero rational function, and "holds weakly"
over a finite field when every admissible specialization of the
indeterminates evaluates to zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParams, SizeExceeded, UnknownId
from .fields import MAX_ENUMERATED, FieldDescriptor, _prime_divisors
from .formal import FormalSum
from .finlog import _grid_field, lhat_apply, lhat_eval, lhat_eval_grid
from .poly import PrimeDomain, RationalDomain, RatFunc

DEFAULT_WEAK_BUDGET = 10**6
# Points per batch of a weak check: a few int64 arrays of this length
# per polynomial stay in the tens of kilobytes.
_WEAK_CHUNK = 4096


def _domain(p):
    if p == 0:
        return RationalDomain()
    return PrimeDomain(p)


def _gens(variables, p):
    dom = _domain(p)
    one = RatFunc.const(variables, dom, 1)
    xs = {v: RatFunc.variable(v, variables, dom) for v in variables}
    return dom, one, xs


def _primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of GF(p)."""
    factors = _prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise BadParams(f"no primitive root found for p={p}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _b_two_term(p):
    dom, one, xs = _gens(("x",), p)
    x = xs["x"]
    return FormalSum(1, ((one, x), (-one, one - x)), ("x",))


def _b_inversion(p, n=1):
    if n < 1:
        raise BadParams("inversion requires weight n >= 1")
    dom, one, xs = _gens(("T",), p)
    t = xs["T"]
    sign = one if n % 2 == 0 else -one
    return FormalSum(n, ((one, t), (-(sign * t), one / t)), ("T",))


def _b_distribution(p, n=1, m=2):
    if n < 1:
        raise BadParams("distribution requires weight n >= 1")
    dom, one, xs = _gens(("T",), p)
    t = xs["T"]
    if m == -1:
        sign = one if n % 2 == 0 else -one
        return FormalSum(n, ((one, one / t), (-(sign / t), t)), ("T",))
    if m < 2:
        raise BadParams(f"unsupported distribution order m={m}")
    if m == 2:
        zetas = [1, -1]
    else:
        if p == 0:
            raise BadParams("orders m > 2 need a prime field with m | p-1")
        if (p - 1) % m != 0:
            raise BadParams(f"m={m} does not divide p-1={p - 1}")
        g = _primitive_root(p)
        z0 = pow(g, (p - 1) // m, p)
        zetas = [pow(z0, j, p) for j in range(m)]
    scalar = RatFunc.const(("T",), dom, dom.coerce(m) if p == 0 else (m % p))
    scalar = scalar ** (n - 1)
    tm = t**m
    terms = [(one, tm)]
    for z in zetas:
        zc = RatFunc.const(("T",), dom, z)
        coeff = -(scalar * ((one - tm) / (one - zc * t)))
        terms.append((coeff, zc * t))
    return FormalSum(n, tuple(terms), ("T",))


def _b_feit(p):
    dom, one, xs = _gens(("a", "b"), p)
    a, b = xs["a"], xs["b"]
    terms = (
        (one, a),
        (-one, b),
        (a, b / a),
        (one - a, (one - b) / (one - a)),
    )
    return FormalSum(1, terms, ("a", "b"))


def _b_feit_generalized(p):
    dom, one, xs = _gens(("x", "y", "s"), p)
    x, y, s = xs["x"], xs["y"], xs["s"]

    def half(u, v):
        return [
            (one - v, (u - s) / (one - v)),
            (v, s / v),
            (one, v),
        ]

    terms = half(x, y) + [(-c, arg) for c, arg in half(y, x)]
    return FormalSum(1, tuple(terms), ("x", "y", "s"))


def _five_term_pieces(p):
    names = ("x1", "x2", "x3", "x4", "x5")
    dom, one, xs = _gens(names, p)
    pieces = []
    for i in range(5):
        a, b, c, d = [xs[names[j]] for j in range(5) if j != i]
        cr = ((a - c) / (a - d)) * ((b - d) / (b - c))
        den = (a - d) * (b - c)
        sign = -one if (i + 1) % 2 else one
        pieces.append((sign, den, cr, xs[names[i]]))
    return names, one, pieces


def _b_five_term_v1(p):
    names, one, pieces = _five_term_pieces(p)
    terms = tuple((sign * den, cr) for sign, den, cr, _xi in pieces)
    return FormalSum(1, terms, names)


def _b_five_term_v2(p):
    names, one, pieces = _five_term_pieces(p)
    terms = tuple((sign * xi * den, cr) for sign, den, cr, xi in pieces)
    return FormalSum(1, terms, names)


def _b_five_term_family(p):
    dom, one, xs = _gens(("a", "b", "t"), p)
    a, b, t = xs["a"], xs["b"], xs["t"]
    terms = (
        (b + t, a),
        (-(a + t), b),
        ((one + t) * a, b / a),
        (t * (one - a), (one - b) / (one - a)),
        (b * (one - a), (a / b) * ((one - b) / (one - a))),
    )
    return FormalSum(1, terms, ("a", "b", "t"))


def _b_four_term_alt(p):
    dom, one, xs = _gens(("a", "b"), p)
    a, b = xs["a"], xs["b"]
    terms = (
        (b, a),
        (-a, b),
        (a, b / a),
        (b * (one - a), (a / b) * ((one - b) / (one - a))),
    )
    return FormalSum(1, terms, ("a", "b"))


def _b_kontsevich_B(p):
    dom, one, xs = _gens(("x", "y"), p)
    x, y = xs["x"], xs["y"]
    terms = (
        (one, x + y),
        (-one, y),
        (-(one - y), x / (one - y)),
        (-y, -(x / y)),
    )
    return FormalSum(1, terms, ("x", "y"))


def _b_three_term(p):
    dom, one, xs = _gens(("x",), p)
    x = xs["x"]
    terms = (
        (one, one - x),
        (-one, x),
        (x, (x - one) / x),
    )
    return FormalSum(2, terms, ("x",))


def _b_kummer_spence(p):
    dom, one, xs = _gens(("x", "y"), p)
    x, y = xs["x"], xs["y"]
    terms = (
        (one, x * y),
        (y, x / y),
        (-(one - y), y * (one - x) / (y - one)),
        (one - y, (one - x) / (one - y)),
        (-(x * (one - y)), (y / x) * ((one - x) / (one - y))),
        (x * (one - y), (x - one) / (x * (one - y))),
        (-(one + y), x),
        (-(one + x), y),
    )
    return FormalSum(2, terms, ("x", "y"))


def _b_kummer_spence_v1(p):
    dom, one, xs = _gens(("a", "b"), p)
    a, b = xs["a"], xs["b"]
    k = one - b - a
    terms = (
        ((one - b) * b / k, (one - a) * a / (b * (one - b))),
        ((one - b) * (one - a) / k, a * b / ((one - b) * (one - a))),
        (one - b, (one - a) / (one - b)),
        (-(one - b), b / (b - one)),
        (-(one - a), a / (a - one)),
        (-a, b / a),
        ((a - b - one) * (one - b) / k, a / (one - b)),
        (-((a - b + one) * b / k), (one - a) / b),
    )
    return FormalSum(2, terms, ("a", "b"))


# Every specialization substitutes into the same 22-term sum; sums are
# never mutated, so the built sum is shared.
@lru_cache(maxsize=4)
def _b_cathelineau_J(p):
    dom, one, xs = _gens(("a", "b", "c"), p)
    a, b, c = xs["a"], xs["b"], xs["c"]
    terms = (
        (c, a),
        (-c, b),
        (a - b + one, c),
        (one - c, one - a),
        (-(one - c), one - b),
        (b - a, one - c),
        (-a, c / a),
        (b, c / b),
        (c * a, b / a),
        (-(one - a), (one - c) / (one - a)),
        (one - b, (one - c) / (one - b)),
        (c * (one - a), (one - b) / (one - a)),
        (c * (one - a), (a / c) * ((one - c) / (one - a))),
        (-(c * (one - b)), (b / c) * ((one - c) / (one - b))),
        (-b, c * a / b),
        (-(one - b), c * (one - a) / (one - b)),
        ((one - c) * a, (a - b) / a),
        ((one - c) * (one - a), (b - a) / (one - a)),
        (-(a - b), (one - c) * a / (a - b)),
        (-(b - a), (one - c) * (one - a) / (b - a)),
        (c * (a - b), ((one - c) / c) * (b / (a - b))),
        (c * (b - a), ((one - c) / c) * ((one - b) / (b - a))),
    )
    return FormalSum(2, terms, ("a", "b", "c"))


J_SPECIALIZATION_KEYS = ("a", "b", "a/b", "(1-a)/(1-b)")


def _b_j_specialization(p, c="a"):
    if c not in J_SPECIALIZATION_KEYS:
        raise BadParams(f"unknown specialization {c!r}")
    full = _b_cathelineau_J(p)
    dom, one, xs = _gens(("a", "b"), p)
    a, b = xs["a"], xs["b"]
    value = {
        "a": a,
        "b": b,
        "a/b": a / b,
        "(1-a)/(1-b)": (one - a) / (one - b),
    }[c]
    spec = full.substitute({"a": a, "b": b, "c": value})
    spec, _dropped = drop_trivial_arguments(spec)
    return spec


def _phi(a, b, c, one):
    """Six-term block entering the derived 22-term weight-2 equation."""
    return [
        (one, a),
        (
            -((b - one) * (a - one) / (a * b - one)),
            -(b * (a - one) / (b - one)),
        ),
        (
            -((b - one) * (a - one) / (a * b - one)),
            -(a * (b - one) / (a - one)),
        ),
        (
            (c * c * b + c * b * b - one * 3 * c * b + one) / (c * b - one),
            (a - one) / (a * b * c - one),
        ),
        (
            -((a * b * c - a - b - c + one * 2) / (c * b - one)),
            c * b * (a - one) / (a * b * c - one),
        ),
        (-((a + b - one * 2) / (a * b - one)), a * b),
        (
            -(
                (a * a * b * c - one * 2 * a * b * c + b + c - one)
                * (a - one)
                / ((a * c - one) * (a * b - one))
            ),
            -(a * (c - one) * (b - one) / ((a - one) * (a * b * c - one))),
        ),
    ]


def _b_derived_goncharov(p):
    dom, one, xs = _gens(("a", "b", "c"), p)
    a, b, c = xs["a"], xs["b"], xs["c"]
    terms = []
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        terms.extend(_phi(u, v, w, one))
    terms.append(((a + b + c - one * 3) / (a * b * c - one), a * b * c))
    return FormalSum(2, tuple(terms), ("a", "b", "c")).merged()


# --- classical (untwisted) entries, used as derivation-map inputs ----------


def _b_two_term_classical(p):
    dom, one, xs = _gens(("x",), p)
    x = xs["x"]
    return FormalSum(2, ((one, x), (one, one - x)), ("x",))


def _b_five_term_classical(p):
    dom, one, xs = _gens(("a", "b"), p)
    a, b = xs["a"], xs["b"]
    terms = (
        (one, a),
        (-one, b),
        (one, b / a),
        (-one, (one - b) / (one - a)),
        (one, (a / b) * ((one - b) / (one - a))),
    )
    return FormalSum(2, terms, ("a", "b"))


def _b_five_term_cocycle(p):
    names, one, pieces = _five_term_pieces(p)
    terms = tuple((sign, cr) for sign, _den, cr, _xi in pieces)
    return FormalSum(2, terms, names)


def _b_three_term_classical(p):
    dom, one, xs = _gens(("x",), p)
    x = xs["x"]
    terms = (
        (one, one - x),
        (one, x),
        (one, (x - one) / x),
        (-one, one),
    )
    return FormalSum(3, terms, ("x",))


def _b_kummer_spence_classical(p):
    dom, one, xs = _gens(("a", "b"), p)
    a, b = xs["a"], xs["b"]
    two = one + one
    terms = (
        (one, (a / b) * ((one - b) / (one - a))),
        (one, (one - a) * a / (b * (one - b))),
        (one, a * b / ((one - b) * (one - a))),
        (-two, (one - a) / (one - b)),
        (-two, b / (b - one)),
        (-two, a / (a - one)),
        (-two, b / a),
        (-two, a / (one - b)),
        (-two, (one - a) / b),
        (two, one),
    )
    return FormalSum(3, terms, ("a", "b"))


def _goncharov_f(a, b, c, one):
    return [
        (one, a),
        (one, b * (one - a) / (b - one)),
        (one, a * (one - b) / (a - one)),
        (one, (one - a) / (one - a * b * c)),
        (one, c * b * (one - a) / (one - a * b * c)),
        (-one, a * b),
        (
            -one,
            -(a * (one - b) * (one - c) / ((one - a) * (one - a * b * c))),
        ),
    ]


def _b_goncharov_classical(p):
    dom, one, xs = _gens(("a", "b", "c"), p)
    a, b, c = xs["a"], xs["b"], xs["c"]
    terms = []
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        terms.extend(_goncharov_f(u, v, w, one))
    terms.append((one, a * b * c))
    terms.append((-(one + one + one), one))
    return FormalSum(3, tuple(terms), ("a", "b", "c"))


def _b_distribution_classical(p, n=2, m=2):
    if m != 2:
        raise BadParams("classical distribution is realized for m=2")
    dom, one, xs = _gens(("T",), p)
    t = xs["T"]
    scalar = RatFunc.const(("T",), dom, dom.coerce(m) if p == 0 else (m % p))
    scalar = scalar ** (n - 1)
    terms = ((one, t * t), (-scalar, t), (-scalar, -t))
    return FormalSum(n, terms, ("T",))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_PARAM_DEFAULTS = {
    "inversion": {"n": 1},
    "distribution": {"n": 1, "m": 2},
    "j_specialization": {"c": "a"},
    "distribution_classical": {"n": 2, "m": 2},
}

CATALOG = {
    "two_term": {"builder": _b_two_term, "weight": 1, "variables": ("x",)},
    "inversion": {"builder": _b_inversion, "weight": None, "variables": ("T",)},
    "distribution": {
        "builder": _b_distribution,
        "weight": None,
        "variables": ("T",),
    },
    "feit": {"builder": _b_feit, "weight": 1, "variables": ("a", "b")},
    "feit_generalized": {
        "builder": _b_feit_generalized,
        "weight": 1,
        "variables": ("x", "y", "s"),
    },
    "five_term_v1": {
        "builder": _b_five_term_v1,
        "weight": 1,
        "variables": ("x1", "x2", "x3", "x4", "x5"),
    },
    "five_term_v2": {
        "builder": _b_five_term_v2,
        "weight": 1,
        "variables": ("x1", "x2", "x3", "x4", "x5"),
    },
    "five_term_family": {
        "builder": _b_five_term_family,
        "weight": 1,
        "variables": ("a", "b", "t"),
    },
    "four_term_alt": {
        "builder": _b_four_term_alt,
        "weight": 1,
        "variables": ("a", "b"),
    },
    "kontsevich_B": {
        "builder": _b_kontsevich_B,
        "weight": 1,
        "variables": ("x", "y"),
    },
    "three_term": {"builder": _b_three_term, "weight": 2, "variables": ("x",)},
    "kummer_spence": {
        "builder": _b_kummer_spence,
        "weight": 2,
        "variables": ("x", "y"),
    },
    "kummer_spence_v1": {
        "builder": _b_kummer_spence_v1,
        "weight": 2,
        "variables": ("a", "b"),
    },
    "cathelineau_J": {
        "builder": _b_cathelineau_J,
        "weight": 2,
        "variables": ("a", "b", "c"),
    },
    "j_specialization": {
        "builder": _b_j_specialization,
        "weight": 2,
        "variables": ("a", "b"),
    },
    "derived_goncharov": {
        "builder": _b_derived_goncharov,
        "weight": 2,
        "variables": ("a", "b", "c"),
    },
    "two_term_classical": {
        "builder": _b_two_term_classical,
        "weight": 2,
        "variables": ("x",),
        "classical": True,
    },
    "five_term_classical": {
        "builder": _b_five_term_classical,
        "weight": 2,
        "variables": ("a", "b"),
        "classical": True,
    },
    "five_term_cocycle": {
        "builder": _b_five_term_cocycle,
        "weight": 2,
        "variables": ("x1", "x2", "x3", "x4", "x5"),
        "classical": True,
    },
    "three_term_classical": {
        "builder": _b_three_term_classical,
        "weight": 3,
        "variables": ("x",),
        "classical": True,
    },
    "kummer_spence_classical": {
        "builder": _b_kummer_spence_classical,
        "weight": 3,
        "variables": ("a", "b"),
        "classical": True,
    },
    "goncharov_classical": {
        "builder": _b_goncharov_classical,
        "weight": 3,
        "variables": ("a", "b", "c"),
        "classical": True,
    },
    "distribution_classical": {
        "builder": _b_distribution_classical,
        "weight": None,
        "variables": ("T",),
        "classical": True,
    },
}

# Display labels from the standard numbering of these identities, mapped to
# catalog ids, so that every display has a named realization.
DISPLAY_MAP = {
    "3.1": "two_term_classical",
    "3.2": "five_term_cocycle",
    "3.3": "five_term_classical",
    "3.4": "three_term_classical",
    "3.5": "kummer_spence_classical",
    "3.6": "kummer_spence_classical",
    "3.7": "goncharov_classical",
    "3.8": "goncharov_classical",
    "3.9": "inversion",
    "3.10": "distribution",
    "3.11": "two_term",
    "3.12": "feit_generalized",
    "3.13": "feit",
    "3.14": "feit",
    "3.15": "five_term_v1",
    "3.16": "five_term_v2",
    "3.17": "five_term_family",
    "3.18": "four_term_alt",
    "3.19": "three_term",
    "3.20": "kummer_spence_v1",
    "3.21": "kummer_spence",
    "3.22": "cathelineau_J",
    "4.2": "feit",
    "4.3": "three_term",
    "4.4": "three_term",
    "4.5": "distribution",
    "A": "two_term",
    "B": "kontsevich_B",
    "C": "inversion",
}

# Finite-field entries exercised by the strong verification suite with their
# default weights.
STRONG_SUITE = (
    ("two_term", {}),
    ("inversion", {"n": 1}),
    ("inversion", {"n": 2}),
    ("inversion", {"n": 3}),
    ("inversion", {"n": 4}),
    ("feit", {}),
    ("feit_generalized", {}),
    ("five_term_v1", {}),
    ("five_term_v2", {}),
    ("five_term_family", {}),
    ("four_term_alt", {}),
    ("three_term", {}),
    ("kummer_spence", {}),
    ("kummer_spence_v1", {}),
    ("cathelineau_J", {}),
    ("j_specialization", {"c": "a"}),
    ("j_specialization", {"c": "b"}),
    ("j_specialization", {"c": "a/b"}),
    ("j_specialization", {"c": "(1-a)/(1-b)"}),
)


def catalog_ids():
    return sorted(CATALOG)


def entry_info(eq_id: str) -> dict:
    if eq_id not in CATALOG:
        raise UnknownId(f"unknown catalog id {eq_id!r}")
    info = CATALOG[eq_id]
    return {
        "id": eq_id,
        "weight": info["weight"],
        "variables": info["variables"],
        "classical": info.get("classical", False),
        "params": dict(_PARAM_DEFAULTS.get(eq_id, {})),
    }


def weight_fits(eq_id: str, p: int) -> bool:
    """Whether the entry's polylogarithms keep their weight over GF(p).

    Over GF(p), k^(p-1) = 1, so L_m with m >= p-1 is not a polylogarithm
    of weight m, and an equation tied to one weight need not hold there.
    Entries whose weight is a parameter (inversion, distribution) hold
    at every weight.  A classical entry is checked through its
    derivative, one weight lower.
    """
    info = CATALOG[eq_id]
    weight = info["weight"]
    if p == 0 or weight is None:
        return True
    if info.get("classical", False):
        weight -= 1
    return weight < p - 1


def build(eq_id: str, p: int, **params) -> FormalSum:
    """Build the catalog entry over GF(p) (or over Q when p == 0)."""
    if eq_id not in CATALOG:
        raise UnknownId(f"unknown catalog id {eq_id!r}")
    if p != 0 and p < 3:
        raise BadParams(f"p={p} must be an odd prime or 0")
    if not weight_fits(eq_id, p):
        raise BadParams(
            f"{eq_id} is not defined over GF({p}): its polylogarithms would "
            "have weight >= p-1"
        )
    info = CATALOG[eq_id]
    defaults = dict(_PARAM_DEFAULTS.get(eq_id, {}))
    extra = set(params) - set(defaults)
    if extra:
        raise BadParams(f"unexpected parameters {sorted(extra)} for {eq_id}")
    for key, value in params.items():
        if isinstance(defaults[key], int) and not isinstance(value, int):
            raise BadParams(f"parameter {key} of {eq_id} must be an integer")
    defaults.update(params)
    return info["builder"](p, **defaults)


def drop_trivial_arguments(s: FormalSum):
    """Remove terms whose argument is the constant 0 or 1.

    Returns the cleaned sum and the number of dropped terms.
    """
    one = RatFunc.const(s.variables, s.domain, 1)
    kept = []
    dropped = 0
    for coeff, arg in s.terms:
        if arg.is_constant():
            v = arg.constant_value()
            if v == one.constant_value() or arg.is_zero():
                dropped += 1
                continue
        kept.append((coeff, arg))
    return FormalSum(s.weight, tuple(kept), s.variables, s.label).merged(), dropped


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of a strong or weak verification run."""

    holds: bool
    mode: str
    weight: int
    residual_terms: int = 0
    residual: str = ""
    counterexample: dict | None = None
    points_checked: int = 0
    points_skipped: int = 0
    # weak only: whether every point of the q^nvars grid was enumerated
    # (else a sample of the budget), and q^nvars
    exhaustive: bool = False
    grid_size: int = 0

    def as_dict(self) -> dict:
        out = {
            "holds": self.holds,
            "mode": self.mode,
            "weight": self.weight,
        }
        if self.mode == "strong":
            out["residual_terms"] = self.residual_terms
            if self.residual:
                out["residual"] = self.residual
        else:
            out["points_checked"] = self.points_checked
            out["points_skipped"] = self.points_skipped
            out["exhaustive"] = self.exhaustive
            out["grid_size"] = self.grid_size
            if self.counterexample is not None:
                out["counterexample"] = self.counterexample
        return out


def verify_strong(s: FormalSum, weight: int | None = None) -> Verdict:
    """Check that the twisted evaluation of ``s`` is the zero polynomial."""
    m = s.weight if weight is None else weight
    image = lhat_apply(m, s)
    holds = image.num.is_zero()
    residual = ""
    nterms = len(image.num.terms)
    if not holds and nterms <= 40:
        residual = image.num.serialize()
    return Verdict(holds=holds, mode="strong", weight=m, residual_terms=nterms, residual=residual)


def _iter_grid_chunks(nvars: int, fld: FieldDescriptor, budget: int, seed: int):
    """The points of a weak check, in order, as int64 coordinate arrays of
    shape (nvars, e, k) with k <= _WEAK_CHUNK.

    When the q^nvars grid fits ``budget`` it is enumerated in
    ``itertools.product`` order over the field elements by index (the last
    variable runs fastest; the element of index sum_t c_t p^t has
    coordinates c).  Otherwise ``budget`` points are drawn by
    ``random.Random(seed).randrange(p)``, one draw per coordinate, point by
    point and variable by variable.
    """
    p, e, q = fld.p, fld.e, fld.q
    total = q**nvars
    if total <= budget:
        if q > MAX_ENUMERATED:
            raise SizeExceeded("field too large to enumerate")
        for start in range(0, total, _WEAK_CHUNK):
            index = np.arange(start, min(start + _WEAK_CHUNK, total), dtype=np.int64)
            cols = np.empty((nvars, e, index.size), dtype=np.int64)
            for i in range(nvars - 1, -1, -1):  # the last variable runs fastest
                index, elem = np.divmod(index, q)
                for t in range(e):
                    elem, cols[i, t] = np.divmod(elem, p)
            yield cols
        return
    rng = random.Random(seed)
    for start in range(0, budget, _WEAK_CHUNK):
        k = min(_WEAK_CHUNK, budget - start)
        draws = [rng.randrange(p) for _ in range(k * nvars * e)]
        yield np.array(draws, dtype=np.int64).reshape(k, nvars, e).transpose(1, 2, 0)


def _weak_verdict(m, grid_size, budget, checked, skipped, counterexample=None) -> Verdict:
    return Verdict(
        holds=counterexample is None and checked > 0,
        mode="weak",
        weight=m,
        counterexample=counterexample,
        points_checked=checked,
        points_skipped=skipped,
        exhaustive=grid_size <= budget,
        grid_size=grid_size,
    )


def verify_weak(
    s: FormalSum,
    fld,
    weight: int | None = None,
    budget: int = DEFAULT_WEAK_BUDGET,
    seed: int = 0,
) -> Verdict:
    """Evaluate ``s`` under the twisted evaluator at every admissible point.

    ``fld`` is a :class:`FieldDescriptor` or a prime, with p < 2^31, and
    every term of ``s`` must be over GF(p) (DomainMismatch otherwise).
    Points where some coefficient or argument has a vanishing denominator
    are skipped.  When the full point grid exceeds ``budget``, a
    deterministic sample of ``budget`` points is used instead.  A run that
    checks no point at all verifies nothing, so its verdict is
    ``holds=False`` without a counterexample.

    Points come in a fixed order (see :func:`_iter_grid_chunks`): the grid
    in ``itertools.product`` order over the elements by index, or the
    sample drawn by ``random.Random(seed).randrange(p)``, one coordinate
    per draw.  They go to :func:`~finpolylog.finlog.lhat_eval_grid` in
    chunks of ``_WEAK_CHUNK``, over GF(p) and GF(p^e) alike, with the
    number of points of the whole run, so that a run of fewer than p
    points never builds the table of all p polylog values.  The run stops
    at the first admissible point with a nonzero value, which is the
    counterexample (an int per variable over GF(p), a coordinate list over
    GF(p^e)), re-checked by :func:`~finpolylog.finlog.lhat_eval`;
    ``points_checked`` and ``points_skipped`` count the points up to and
    including it.  The verdict reports the grid's size q^nvars and whether
    it was ``exhaustive`` (enumerated whole) or sampled.
    """
    if budget <= 0:
        raise BadParams(f"weak check budget must be positive, got {budget}")
    fld = _grid_field(fld)
    m = s.weight if weight is None else weight
    checked = 0
    skipped = 0
    grid_size = fld.q ** len(s.variables)
    points = min(grid_size, budget)
    for cols in _iter_grid_chunks(len(s.variables), fld, budget, seed):
        mask, values = lhat_eval_grid(m, s, cols, fld, points)
        failing = np.flatnonzero(values.any(axis=0))
        if failing.size:
            j = int(failing[0])
            before = int(np.count_nonzero(mask[:j]))
            coords = cols[:, :, j].tolist()
            point = dict(zip(s.variables, map(fld.element, coords)))
            if lhat_eval(m, s, point).is_zero():
                raise RuntimeError(f"lhat_eval_grid and lhat_eval disagree at {point}")
            counterexample = {
                v: c[0] if fld.e == 1 else c for v, c in zip(s.variables, coords)
            }
            return _weak_verdict(
                m, grid_size, budget, checked + before + 1, skipped + j - before, counterexample
            )
        admissible = int(np.count_nonzero(mask))
        checked += admissible
        skipped += mask.size - admissible
    return _weak_verdict(m, grid_size, budget, checked, skipped)


def admissible_points(s: FormalSum, fld, budget: int = DEFAULT_WEAK_BUDGET):
    """Count and list the points where every coefficient and argument of
    ``s`` is defined, as dicts of :class:`FieldElement` in grid order.

    The grid goes to :func:`~finpolylog.finlog.lhat_eval_grid` in chunks,
    as in :func:`verify_weak`, and its mask selects the points.  Raises
    :class:`SizeExceeded` beyond ``budget``."""
    fld = _grid_field(fld)
    total = fld.q ** len(s.variables)
    if total > budget:
        raise SizeExceeded(f"{total} points exceed budget {budget}")
    points = []
    for cols in _iter_grid_chunks(len(s.variables), fld, budget, 0):
        mask, _values = lhat_eval_grid(s.weight, s, cols, fld, total)
        for coords in cols[:, :, mask].transpose(2, 0, 1).tolist():
            points.append(dict(zip(s.variables, map(fld.element, coords))))
    return len(points), iter(points)
