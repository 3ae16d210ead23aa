"""Additive 2-cocycle on GF(p), its extension group, and entropy mod p.

H(x) = sum_{k=1}^{p-1} x^k/k plays the role of an entropy function on
GF(p).  The symmetric function phi(x, y) = (x+y) H(x/(x+y)) is a
2-cocycle for the additive group, is not a coboundary, and defines a
central extension of the affine group of the line.  The same H computes
the entropy of rational probability distributions reduced mod p.

The extension group's axioms are checked exactly without listing its
p^2 (p-1) elements: identity and inverse reduce to t[b, 0] = t[0, b] =
t[b, -b] = 0 on the table t of phi, and associativity to
t[b1, a1 b2] + t[b1 + a1 b2, a1 c] = a1 t[b2, c] + t[b1, a1 b2 + a1 c]
over b1, b2, c in GF(p) and a1 != 0 (see :func:`group_check`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import solver
from .catalog import build, verify_weak
from .errors import (
    BadParams,
    BudgetExceeded,
    NoAdmissibleOrdering,
    ZeroInverse,
)
from .poly import PrimeDomain

EXHAUSTIVE_COCYCLE_LIMIT = 101
DEFAULT_PERMUTATION_BUDGET = 5040


def H(x: int, p: int) -> int:
    """H(x) = sum_{k=1}^{p-1} x^k / k, the weight-1 finite polylog.

    Computed in O(log p) through the Witt form H(x) = (1 - x^p - (1-x)^p)/p
    mod p: that numerator is an integer multiple of p, so its residue mod
    p^2, divided by p, is H(x).
    """
    m = p * p
    x %= p
    return (1 - pow(x, p, m) - pow(1 - x, p, m)) % m // p


def phi(x: int, y: int, p: int) -> int:
    """phi(x, y) = (x+y) H(x/(x+y)) when x+y != 0, else 0."""
    s = (x + y) % p
    if s == 0:
        return 0
    return (s * H(x * pow(s, p - 2, p), p)) % p


@lru_cache(maxsize=4)
def phi_table(p: int) -> np.ndarray:
    """The p x p table of phi over GF(p), read-only and built once per p.

    H is read off the Witt form once per residue (:func:`H`), and the
    table t[x, y] = s H(x/s), s = x + y, in one array step; t = 0 where
    s = 0.  Every int64 product is below p^2.
    """
    idx = np.arange(p, dtype=np.int64)
    h = np.array([H(x, p) for x in range(p)], dtype=np.int64)
    inv = np.array([pow(v, p - 2, p) for v in range(p)], dtype=np.int64)
    s = (idx[:, None] + idx) % p
    table = s * h[idx[:, None] * inv[s] % p] % p
    table.flags.writeable = False
    return table


@dataclass
class CheckResult:
    """Outcome of an appendix check."""

    holds: bool
    checked: int
    counterexample: tuple | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        out = {"holds": self.holds, "checked": self.checked}
        if self.counterexample is not None:
            out["counterexample"] = list(self.counterexample)
        if self.detail:
            out["detail"] = self.detail
        return out


def check_cocycle(p: int, table: np.ndarray | None = None) -> CheckResult:
    """Exhaustive cocycle condition and symmetry over all of GF(p)^3."""
    if p > EXHAUSTIVE_COCYCLE_LIMIT:
        raise BudgetExceeded(f"exhaustive check capped at p <= {EXHAUSTIVE_COCYCLE_LIMIT}")
    t = phi_table(p) if table is None else table
    if not np.array_equal(t, t.T):
        bad = np.argwhere(t != t.T)[0]
        return CheckResult(False, p * p, (int(bad[0]), int(bad[1])), "symmetry")
    idx = np.arange(p, dtype=np.int64)
    x = idx[:, None, None]
    y = idx[None, :, None]
    z = idx[None, None, :]
    # cocycle: phi(x,y) + phi(x+y,z) == phi(y,z) + phi(x,y+z)
    left = (t[x % p, y % p] + t[(x + y) % p, z % p]) % p
    right = (t[y % p, z % p] + t[x % p, (y + z) % p]) % p
    diff = (left - right) % p
    if np.any(diff):
        bad = np.argwhere(diff)[0]
        return CheckResult(
            False, p**3, tuple(int(v) for v in bad), "cocycle condition"
        )
    return CheckResult(True, p**3)


def check_homogeneity(p: int) -> CheckResult:
    """phi(lam*x, lam*y) = lam*phi(x, y) for every lam != 0; capped, as
    the other table checks, at p <= ``EXHAUSTIVE_COCYCLE_LIMIT``."""
    if p > EXHAUSTIVE_COCYCLE_LIMIT:
        raise BudgetExceeded(f"homogeneity check capped at p <= {EXHAUSTIVE_COCYCLE_LIMIT}")
    t = phi_table(p)
    idx = np.arange(p, dtype=np.int64)
    for lam in range(1, p):
        scaled = t[(lam * idx[:, None]) % p, (lam * idx[None, :]) % p]
        if np.any((scaled - lam * t) % p):
            bad = np.argwhere((scaled - lam * t) % p)[0]
            return CheckResult(
                False, p * p * (p - 1), (lam, int(bad[0]), int(bad[1]))
            )
    return CheckResult(True, p * p * (p - 1))


def _weak_check(s, budget: int) -> CheckResult:
    """The catalog's weak verdict on ``s`` over GF(p), as a CheckResult."""
    v = verify_weak(s, s.domain.p, budget=budget)
    point = None if v.counterexample is None else tuple(v.counterexample.values())
    return CheckResult(v.holds, v.points_checked, point)


def check_equation_B(p: int) -> CheckResult:
    """H(x+y) = H(y) + (1-y)H(x/(1-y)) + yH(-x/y) for y not in {0,1}: the
    weak check of the catalog entry ``kontsevich_B`` over all of GF(p)^2."""
    return _weak_check(build("kontsevich_B", p), p * p)


def check_equation_C(p: int) -> CheckResult:
    """x H(1/x) = -H(x) for x != 0: the weak check of the catalog entry
    ``inversion`` (n=1) over all of GF(p)."""
    return _weak_check(build("inversion", p, n=1), p)


# ---------------------------------------------------------------------------
# coboundary analysis
# ---------------------------------------------------------------------------


def coboundary_solve(p: int, table: np.ndarray | None = None) -> dict:
    """Solve phi(x,y) = psi(x) + psi(y) - psi(x+y) for psi over GF(p).

    Returns a dict with "consistent" plus either a solution vector or an
    inconsistency certificate: a combination of equation rows (indexed by
    their (x, y) pairs) whose left side cancels while the right side does
    not.

    A^T goes through :func:`~finpolylog.solver._rref` once: its pivot
    columns are the earliest independent rows of A, and column r of the
    RREF writes row r as a combination of the pivot rows before it.  The
    first row whose right-hand side differs from that combination's gives
    the certificate (multiplier 1 on it, the only such combination);
    otherwise psi comes from the RREF of the pivot rows, free variables 0.
    """
    if p > EXHAUSTIVE_COCYCLE_LIMIT:
        raise BudgetExceeded(f"coboundary system capped at p <= {EXHAUSTIVE_COCYCLE_LIMIT}")
    t = phi_table(p) if table is None else table
    pairs = [(x, y) for x in range(p) for y in range(p)]
    a = np.zeros((len(pairs), p), dtype=np.int64)
    rhs = np.zeros(len(pairs), dtype=np.int64)
    for r, (x, y) in enumerate(pairs):
        a[r, x] += 1
        a[r, y] += 1
        a[r, (x + y) % p] -= 1
        rhs[r] = t[x, y]
    rows, combos = solver._rref(a.T, p)
    residual = (rhs - rhs[rows] @ combos) % p
    bad = np.flatnonzero(residual)
    if bad.size:
        r = int(bad[0])
        used = [(i, int(c)) for i, c in zip(rows, combos[:, r]) if c]
        return {
            "consistent": False,
            "certificate": {
                "rows": [pairs[i] for i, _c in used] + [pairs[r]],
                "multipliers": [(-c) % p for _i, c in used] + [1],
                "rhs_value": int(residual[r]),
            },
        }
    cols, reduced = solver._rref(np.column_stack([a[rows], rhs[rows]]), p)
    psi = np.zeros(p, dtype=np.int64)
    for c, row in zip(cols, reduced):
        psi[c] = row[p]
    return {"consistent": True, "psi": [int(v) for v in psi]}


def verify_certificate(p: int, certificate: dict, table: np.ndarray | None = None) -> bool:
    """Independently re-check an inconsistency certificate."""
    t = phi_table(p) if table is None else table
    lhs = np.zeros(p, dtype=np.int64)
    rhs = 0
    for (x, y), m in zip(certificate["rows"], certificate["multipliers"]):
        lhs[x] += m
        lhs[y] += m
        lhs[(x + y) % p] -= m
        rhs = (rhs + m * int(t[x, y])) % p
    return not np.any(lhs % p) and rhs % p != 0


# ---------------------------------------------------------------------------
# the extension group
# ---------------------------------------------------------------------------


def group_mul(g1, g2, p: int, table: np.ndarray | None = None):
    """(u1,b1,a1)*(u2,b2,a2) = (u1 + a1 u2 + phi(b1, a1 b2), b1 + a1 b2, a1 a2)."""
    t = phi_table(p) if table is None else table
    u1, b1, a1 = g1
    u2, b2, a2 = g2
    ab = (a1 * b2) % p
    return (
        (u1 + a1 * u2 + int(t[b1 % p, ab])) % p,
        (b1 + ab) % p,
        (a1 * a2) % p,
    )


def group_inverse(g, p: int):
    u, b, a = g
    if a % p == 0:
        raise ZeroInverse("scaling component must be nonzero")
    ainv = pow(a, p - 2, p)
    return ((-ainv * u) % p, (-ainv * b) % p, ainv)


def group_check(p: int, table: np.ndarray | None = None) -> CheckResult:
    """Identity, inverse and associativity axioms for the extension group.

    Exact, and no group element is listed: each axiom reduces to an
    identity on the table t of phi, read off :func:`group_mul`.

    - Identity: g e and e g differ from g only by t[b, 0] and t[0, b].
    - Inverse: g g^-1 and g^-1 g reduce to t[b, -b] and t[c, -c], with
      c = -b/a.
    - Associativity: (g1 g2) g3 and g1 (g2 g3) always agree in b and a.
      In u the u-terms and a3 cancel, and a2 enters only through
      c = a2 b3, a bijection in b3.  So the axiom holds iff
      t[b1, a1 b2] + t[b1 + a1 b2, a1 c] = a1 t[b2, c] + t[b1, a1 b2 + a1 c]
      for all b1, b2, c in GF(p) and a1 != 0: p^3 (p-1) tuples, each
      standing for the p^3 (p-1)^2 triples with those b1, a1, b2, c.

    The axioms are checked in that order.  An identity or inverse failure
    reports the element (0, b, 1) of the first b that breaks either, with
    ``checked`` 0.  Associativity is evaluated one b1 at a time over
    (a1, b2, c) arrays; ``checked`` is the 1-based position of the first
    failing tuple in lexicographic (b1, a1, b2, c) order, p^3 (p-1) on a
    pass, and the counterexample is the triple ((0, b1, a1), (0, b2, 1),
    (0, c, 1)).
    """
    if p > EXHAUSTIVE_COCYCLE_LIMIT:
        raise BudgetExceeded(f"group check capped at p <= {EXHAUSTIVE_COCYCLE_LIMIT}")
    t = (phi_table(p) if table is None else table) % p
    idx = np.arange(p, dtype=np.int64)
    neg = -idx % p
    identity_bad = (t[:, 0] != 0) | (t[0, :] != 0)
    bad = np.flatnonzero(identity_bad | (t[idx, neg] != 0) | (t[neg, idx] != 0))
    if bad.size:
        b = int(bad[0])
        detail = "identity axiom" if identity_bad[b] else "inverse axiom"
        return CheckResult(False, 0, (0, b, 1), detail)

    a1 = idx[1:, None, None]
    ab2 = a1 * idx[None, :, None] % p
    ac = a1 * idx[None, None, :] % p
    scaled = a1 * t[None, :, :]
    right_sum = (ab2 + ac) % p
    block = (p - 1) * p * p
    for b1 in range(p):
        row = t[b1]
        diff = (row[ab2] + t[(b1 + ab2) % p, ac] - scaled - row[right_sum]) % p
        if diff.any():
            i = int(np.flatnonzero(diff)[0])
            k, b2, c = (int(v) for v in np.unravel_index(i, diff.shape))
            return CheckResult(
                False,
                b1 * block + i + 1,
                ((0, b1, k + 1), (0, b2, 1), (0, c, 1)),
                "associativity",
            )
    return CheckResult(True, p * block)


# ---------------------------------------------------------------------------
# entropy of rational distributions
# ---------------------------------------------------------------------------


def reduce_distribution(probs, p: int):
    """Validate and reduce a rational distribution mod p.

    Probabilities must be exact rationals with p-unit denominators and
    sum exactly 1.  Exact zeros are dropped.  Returns residues mod p.
    """
    try:
        fracs = [Fraction(q) for q in probs]
    except (ValueError, TypeError, ZeroDivisionError):
        raise BadParams(f"probabilities must be rationals, got {list(probs)}") from None
    if sum(fracs) != 1:
        raise BadParams("probabilities must sum to exactly 1")
    dom = PrimeDomain(p)
    out = []
    for q in fracs:
        if q == 0:
            continue
        if q.denominator % p == 0:
            raise BadParams(f"denominator of {q} is divisible by {p}")
        out.append(dom.coerce(q))
    return out


def _entropy_of_residues(values, p: int) -> int | None:
    """Recursive splitting; None if a partial sum hits 1 mod p."""
    total = 0  # running sum of consumed probabilities mod p
    acc = 0
    weight = 1  # product of (1 - partial sums), the renormalization factor
    vals = list(values)
    while len(vals) > 1:
        q = vals[0]
        rem = (1 - total) % p
        # entropy of the two-valued split (q/rem, 1 - q/rem), scaled back
        acc = (acc + weight * H(q * pow(rem, p - 2, p), p)) % p
        total = (total + q) % p
        new_rem = (1 - total) % p
        if len(vals) > 2 and new_rem == 0:
            return None
        weight = (weight * new_rem * pow(rem, p - 2, p)) % p if new_rem else 0
        vals = vals[1:]
    return acc % p


def entropy_mod_p(
    probs,
    p: int,
    permutation_budget: int = DEFAULT_PERMUTATION_BUDGET,
) -> int:
    """Entropy of a rational distribution reduced mod p.

    Splits off outcomes one at a time: H(p1..pk) = H(p1) + (1-p1) *
    H(renormalized tail).  The given order is tried first, then
    lexicographic permutations, until one avoids partial sums equal to 1
    mod p.  Raises NoAdmissibleOrdering when the budget is exhausted.
    """
    values = reduce_distribution(probs, p)
    if len(values) <= 1:
        return 0
    first = _entropy_of_residues(values, p)
    if first is not None:
        return first
    tried = 1
    for perm in itertools.permutations(sorted(values)):
        if tried >= permutation_budget:
            break
        tried += 1
        res = _entropy_of_residues(list(perm), p)
        if res is not None:
            return res
    raise NoAdmissibleOrdering(
        f"no ordering of {values} admits the entropy recursion mod {p}"
    )


def all_ordering_values(probs, p: int):
    """Entropy values over every admissible ordering (for small k)."""
    values = reduce_distribution(probs, p)
    out = set()
    for perm in itertools.permutations(values):
        res = _entropy_of_residues(list(perm), p)
        if res is not None:
            out.add(res)
    return out


def main_identity_check(coarse, refinement, p: int) -> CheckResult:
    """H(fine) = H(coarse) + sum_i coarse_i * H(group_i / coarse_i)."""
    coarse = [Fraction(q) for q in coarse]
    if len(refinement) != len(coarse):
        raise BadParams("refinement must have one group per coarse entry")
    fine = []
    for ci, group in zip(coarse, refinement):
        group = [Fraction(q) for q in group]
        if sum(group) != ci:
            raise BadParams("refinement group does not sum to its entry")
        fine.extend(group)
    lhs = entropy_mod_p(fine, p)
    rhs = entropy_mod_p(coarse, p)
    for ci, group in zip(coarse, refinement):
        if ci == 0:
            continue
        if ci.denominator % p == 0 or ci.numerator % p == 0:
            raise BadParams(f"coarse probability {ci} not invertible mod {p}")
        conditional = [Fraction(q) / ci for q in group]
        rhs = (rhs + PrimeDomain(p).coerce(ci) * entropy_mod_p(conditional, p)) % p
    return CheckResult(lhs == rhs % p, 1, None if lhs == rhs % p else (lhs, rhs % p))
