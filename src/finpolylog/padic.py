"""Symbolic differential ring for clean polylogarithm families.

The ring Q[z, L, P1..PN] carries the derivation d/dz acting by
dL/dz = 1/z, dP1/dz = 1/(1-z), dPk/dz = P_{k-1}/z (k >= 2).  The
composite operator big_D = z(1-z) d/dz maps the polynomial subring to
itself, which makes the level-linking identities between consecutive
combinations F_n = sum a_k L^k P_{n-k} checkable by exact expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import BadParams, DepthExceeded, SingularChoice
from .poly import RationalDomain, SparsePoly

DEFAULT_DEPTH = 12


class DiffRing:
    """Polynomials in z, L, P1..PN over Q with the polylog derivation."""

    __slots__ = ("depth", "vars", "domain")

    def __init__(self, depth: int = DEFAULT_DEPTH):
        if depth < 2:
            raise BadParams("depth must be at least 2")
        self.depth = depth
        self.vars = ("z", "L") + tuple(f"P{k}" for k in range(1, depth + 1))
        self.domain = RationalDomain()

    def gen(self, name: str) -> SparsePoly:
        return SparsePoly.variable(name, self.vars, self.domain)

    def const(self, value) -> SparsePoly:
        return SparsePoly.const(self.vars, self.domain, value)

    def big_D(self, f: SparsePoly) -> SparsePoly:
        """z(1-z) d/dz, which preserves the polynomial subring."""
        z = self.gen("z")
        one = self.const(1)
        out = z * (one - z) * f.derivative("z")
        out = out + (one - z) * f.derivative("L")
        out = out + z * f.derivative("P1")
        for k in range(2, self.depth + 1):
            dk = f.derivative(f"P{k}")
            if not dk.is_zero():
                out = out + (one - z) * self.gen(f"P{k-1}") * dk
        return out


def besser_coefficients(n: int):
    """Coefficient vector a_k = ((-1)^k / k!)(k - n), k = 0..n-1."""
    if n < 2:
        raise BadParams("defined for n >= 2")
    return tuple(
        Fraction((-1) ** k, factorial(k)) * (k - n) for k in range(n)
    )


def clean_check(coeffs, n: int) -> bool:
    """sum_k a_k / (n-k)! == 0 exactly."""
    if len(coeffs) != n:
        raise BadParams(f"expected {n} coefficients, got {len(coeffs)}")
    return sum(Fraction(c) / factorial(n - k) for k, c in enumerate(coeffs)) == 0


def build_Fn(ring: DiffRing, coeffs, n: int) -> SparsePoly:
    """F_n = sum_{k=0}^{n-1} a_k L^k P_{n-k}."""
    if n > ring.depth:
        raise DepthExceeded(f"level {n} exceeds ring depth {ring.depth}")
    if len(coeffs) != n:
        raise BadParams(f"expected {n} coefficients")
    L = ring.gen("L")
    acc = ring.const(0)
    lk = ring.const(1)
    for k, a in enumerate(coeffs):
        acc = acc + (lk * ring.gen(f"P{n-k}")).scale(Fraction(a))
        lk = lk * L
    return acc


def verify_recursion(n: int, ring: DiffRing | None = None, coeffs=None) -> bool:
    """(n-1) big_D(F_n) == (1-z) F_{n-1} - L big_D(F_{n-1})."""
    if n < 3:
        raise BadParams("the recursion starts at n = 3")
    if ring is None:
        ring = DiffRing(max(DEFAULT_DEPTH, n))
    cn = besser_coefficients(n) if coeffs is None else tuple(coeffs)
    cprev = besser_coefficients(n - 1)
    fn = build_Fn(ring, cn, n)
    fprev = build_Fn(ring, cprev, n - 1)
    z = ring.gen("z")
    one = ring.const(1)
    L = ring.gen("L")
    lhs = ring.big_D(fn).scale(n - 1)
    rhs = (one - z) * fprev - L * ring.big_D(fprev)
    return (lhs - rhs).is_zero()


def verify_reformulated(n: int, ring: DiffRing | None = None) -> bool:
    """With Phi_n = (n-1)! F_n: big_D(Phi_n) == big_D(L) Phi_{n-1} - L big_D(Phi_{n-1})."""
    if n < 3:
        raise BadParams("the recursion starts at n = 3")
    if ring is None:
        ring = DiffRing(max(DEFAULT_DEPTH, n))
    phi_n = build_Fn(ring, besser_coefficients(n), n).scale(factorial(n - 1))
    phi_prev = build_Fn(ring, besser_coefficients(n - 1), n - 1).scale(
        factorial(n - 2)
    )
    L = ring.gen("L")
    lhs = ring.big_D(phi_n)
    rhs = ring.big_D(L) * phi_prev - L * ring.big_D(phi_prev)
    return (lhs - rhs).is_zero()


@dataclass
class CleanFamily:
    """An inductively constructed family of clean combinations."""

    levels: dict = field(default_factory=dict)  # n -> coefficient tuple
    lambdas: dict = field(default_factory=dict)
    mus: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "levels": {
                n: [str(c) for c in cs] for n, cs in self.levels.items()
            },
            "lambdas": {n: str(v) for n, v in self.lambdas.items()},
            "mus": {n: str(v) for n, v in self.mus.items()},
            "constraints": list(self.constraints),
        }


def _solve_exact(rows):
    """Gaussian elimination over Q.  rows: (coeff list, rhs).

    Returns the unique solution vector or None when the system is
    inconsistent or underdetermined.
    """
    if not rows:
        return None
    width = len(rows[0][0])
    aug = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(aug)):
            if aug[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][width] != 0:
            return None  # inconsistent
    if len(pivots) < width:
        return None  # underdetermined
    sol = [Fraction(0)] * width
    for i, c in enumerate(pivots):
        sol[c] = aug[i][width]
    return sol


def construct_family(n_max: int, lambda_choices: dict) -> CleanFamily:
    """Build clean combinations level by level.

    Level 2 is the unique clean combination (-2, 1).  At level n >= 3,
    given lambda_n, the identity

        big_D(F_n) = lambda_n (1-z) F_{n-1} + mu_n L big_D(F_{n-1})

    together with a_{0,n} = -n and the clean condition determines
    (a_{1,n}..a_{n-1,n}, mu_n) by exact linear algebra.  Raises
    SingularChoice when the system has no unique solution.
    """
    if n_max < 2:
        raise BadParams("n_max must be at least 2")
    ring = DiffRing(max(DEFAULT_DEPTH, n_max))
    fam = CleanFamily()
    fam.levels[2] = (Fraction(-2), Fraction(1))
    prev = fam.levels[2]
    for n in range(3, n_max + 1):
        if n not in lambda_choices:
            raise BadParams(f"missing lambda for level {n}")
        lam = Fraction(lambda_choices[n])
        fprev = build_Fn(ring, prev, n - 1)
        z = ring.gen("z")
        one = ring.const(1)
        L = ring.gen("L")
        # affine decomposition of the defect in the unknowns
        # u = (a_1..a_{n-1}, mu)
        base = ring.big_D(
            (ring.const(1) * ring.gen(f"P{n}")).scale(Fraction(-n))
        ) - ((one - z) * fprev).scale(lam)
        pieces = []
        lk = L
        for k in range(1, n):
            pieces.append(ring.big_D(lk * ring.gen(f"P{n-k}")))
            lk = lk * L
        pieces.append((L * ring.big_D(fprev)).scale(Fraction(-1)))
        monomials = set(base.terms)
        for piece in pieces:
            monomials.update(piece.terms)
        rows = []
        for mono in sorted(monomials):
            coeffs = [Fraction(piece.terms.get(mono, 0)) for piece in pieces]
            rows.append((coeffs, -Fraction(base.terms.get(mono, 0))))
        clean_row = [
            Fraction(1, factorial(n - k)) for k in range(1, n)
        ] + [Fraction(0)]
        rows.append((clean_row, Fraction(n, factorial(n))))
        sol = _solve_exact(rows)
        if sol is None:
            raise SingularChoice(
                f"lambda choices make level {n} unsolvable or non-unique"
            )
        coeffs = (Fraction(-n),) + tuple(sol[: n - 1])
        mu = sol[n - 1]
        if not clean_check(coeffs, n):
            raise SingularChoice(f"level {n} violates the clean condition")
        fam.levels[n] = coeffs
        fam.lambdas[n] = lam
        fam.mus[n] = mu
        fam.constraints.append(
            f"level {n}: lambda={lam} forced mu={mu}"
        )
        prev = coeffs
    return fam
