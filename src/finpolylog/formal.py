"""Formal sums of weighted polylog arguments.

A FormalSum is a finite list of (coefficient, argument) pairs, both rational
functions over a common variable universe, together with a weight.  The
coefficients are stored untwisted: the evaluator is responsible for raising
them to the p-th power before pairing them with a polylog value, so the same
sum can be read both as a pointwise identity and as a polynomial identity.
"""

from dataclasses import dataclass

from .errors import BadParams, DomainMismatch
from .poly import RatFunc


@dataclass(frozen=True)
class FormalSum:
    """Weighted formal sum sum_i c_i [x_i]."""

    weight: int
    terms: tuple  # tuple[(RatFunc coeff, RatFunc arg), ...]
    variables: tuple
    label: str = ""

    def __post_init__(self):
        for c, x in self.terms:
            if not isinstance(c, RatFunc) or not isinstance(x, RatFunc):
                raise BadParams("terms must be (RatFunc, RatFunc) pairs")
            if c.num.vars != self.variables or x.num.vars != self.variables:
                raise DomainMismatch("term over a different variable universe")
            if c.num.domain != x.num.domain:
                raise DomainMismatch("coefficient and argument domains differ")

    @property
    def domain(self):
        if not self.terms:
            raise BadParams("empty sum has no domain")
        return self.terms[0][0].num.domain

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        if other.weight != self.weight:
            raise BadParams("cannot add sums of different weights")
        if other.variables != self.variables:
            raise DomainMismatch("sums over different variable universes")
        return FormalSum(
            self.weight,
            self.terms + other.terms,
            self.variables,
            label=self.label,
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, value) -> "FormalSum":
        return FormalSum(
            self.weight,
            tuple((c * value, x) for c, x in self.terms),
            self.variables,
            label=self.label,
        )

    def merged(self) -> "FormalSum":
        """Combine terms with equal arguments and drop zero coefficients.

        Each argument joins the first earlier group whose argument equals
        it; only groups with the same leading signature are compared, as
        equal arguments have equal signatures."""
        groups = []  # list of [arg, coeff], in order of first appearance
        buckets = {}  # leading signature -> its groups, in the same order
        for c, x in self.terms:
            bucket = buckets.setdefault(x.leading_signature(), [])
            for g in bucket:
                if g[0] == x:
                    g[1] = g[1] + c
                    break
            else:
                bucket.append([x, c])
                groups.append(bucket[-1])
        new_terms = tuple(
            (c, x) for x, c in groups if not c.is_zero()
        )
        return FormalSum(self.weight, new_terms, self.variables, label=self.label)

    def substitute(self, assignments: dict) -> "FormalSum":
        """Substitute rational functions for variables in every term."""
        new_terms = []
        tvars = None
        for c, x in self.terms:
            nc = c.substitute(assignments)
            nx = x.substitute(assignments)
            tvars = nc.num.vars
            new_terms.append((nc, nx))
        if tvars is None:
            raise BadParams("cannot substitute into an empty sum")
        return FormalSum(
            self.weight, tuple(new_terms), tvars, label=self.label
        ).merged()

    def serialize(self) -> str:
        parts = [
            f"({c.serialize()})[{x.serialize()}]" for c, x in self.terms
        ]
        return f"w{self.weight}: " + " + ".join(parts) if parts else f"w{self.weight}: 0"


def normalize_mod_inversion(s: FormalSum) -> FormalSum:
    """Rewrite every term so that its argument is the canonical member of
    the pair {x, 1/x}, using c[x] -> (-1)^w (c*x)[1/x] (weight w), then merge.

    The rewrite is exactly the one that leaves the twisted evaluation
    unchanged: under the evaluator the coefficient is raised to the p-th
    power and L_w(1/x) = (-1)^w x^(-p) L_w(x).
    """
    sign = 1 if s.weight % 2 == 0 else -1
    new_terms = []
    for c, x in s.terms:
        if x.is_zero() or x.is_constant():
            new_terms.append((c, x))
            continue
        inv = x.inverse()
        if _canon_order(inv) < _canon_order(x):
            rewritten = c * x
            if sign < 0:
                rewritten = -rewritten
            new_terms.append((rewritten, inv))
        else:
            new_terms.append((c, x))
    return FormalSum(s.weight, tuple(new_terms), s.variables, label=s.label).merged()


def _canon_order(rf: RatFunc):
    return rf.canonical_key()
