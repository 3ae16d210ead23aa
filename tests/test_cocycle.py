import random
from fractions import Fraction

import numpy as np
import pytest

from finpolylog import (
    BadParams,
    BudgetExceeded,
    NoAdmissibleOrdering,
    all_ordering_values,
    check_cocycle,
    check_equation_B,
    check_equation_C,
    check_homogeneity,
    coboundary_solve,
    entropy_mod_p,
    finite_polylog,
    group_check,
    group_inverse,
    group_mul,
    l1_via_witt,
    main_identity_check,
    phi,
    phi_table,
    reduce_distribution,
    verify_certificate,
)
from finpolylog import cocycle
from finpolylog.cocycle import H
from finpolylog.fields import FieldDescriptor


class TestEntropyFunction:
    def test_pinned_values(self):
        assert H(3, 5) == 3
        assert phi(1, 1, 5) == 1

    @pytest.mark.parametrize("p", (5, 7, 11, 97))
    def test_matches_weight_one_polylog(self, p):
        # l1_via_witt builds the weight-1 polylog from binomial coefficients,
        # independently of the table that H reads
        f = FieldDescriptor(p)
        witt = l1_via_witt(p)
        for x in range(p):
            assert H(x, p) == int(witt.evaluate({"T": f.element(x)}))

    @pytest.mark.parametrize("p", (5, 7, 11, 97))
    def test_matches_the_defining_sum(self, p):
        # finite_polylog(1, p) is sum_k T^k / k, coefficient by coefficient
        f = FieldDescriptor(p)
        poly = finite_polylog(1, p)
        for x in range(p):
            assert H(x, p) == int(poly.evaluate({"T": f.element(x)}))


class TestPhiTable:
    """The table is built in array steps from H on each residue; each entry
    must be phi's, computed on its own."""

    def test_matches_phi_entry_by_entry(self):
        for p in (q for q in range(2, 102) if all(q % d for d in range(2, q))):
            want = [[phi(x, y, p) for y in range(p)] for x in range(p)]
            assert phi_table(p).tolist() == want, p

    def test_built_once_per_prime_and_read_only(self):
        table = phi_table(11)
        assert phi_table(11) is table and phi_table(13) is not table
        with pytest.raises(ValueError):
            table[1, 2] = 0


class TestCocycle:
    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_cocycle_and_symmetry(self, p):
        assert check_cocycle(p).holds

    @pytest.mark.parametrize("p", (5, 7, 11))
    def test_homogeneity(self, p):
        assert check_homogeneity(p).holds

    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_equation_B_pointwise(self, p):
        assert check_equation_B(p).holds

    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_equation_C_pointwise(self, p):
        assert check_equation_C(p).holds

    def test_perturbed_table_fails(self):
        t = phi_table(7).copy()
        t[2, 3] = (t[2, 3] + 1) % 7
        t[3, 2] = t[2, 3]
        r = check_cocycle(7, table=t)
        assert not r.holds and r.counterexample is not None


class TestCoboundary:
    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_inconsistent_with_verified_certificate(self, p):
        res = coboundary_solve(p)
        assert not res["consistent"]
        assert verify_certificate(p, res["certificate"])

    def test_no_square_identity_matrix(self, peak_of):
        # a p^2 x p^2 int64 matrix of row combinations takes (p^2)^2 * 8 bytes
        p = 31
        table = phi_table(p)
        res, peak = peak_of(lambda: coboundary_solve(p, table=table))
        assert peak < (p * p) ** 2 * 8 // 4
        assert not res["consistent"]
        assert verify_certificate(p, res["certificate"], table)

    def test_zero_cocycle_is_a_coboundary(self):
        res = coboundary_solve(5, table=np.zeros((5, 5), dtype=np.int64))
        assert res["consistent"]

    def test_actual_coboundary_is_consistent(self):
        # phi(x,y) = psi(x) + psi(y) - psi(x+y) for psi(x) = x^2
        p = 7
        t = np.zeros((p, p), dtype=np.int64)
        for x in range(p):
            for y in range(p):
                t[x, y] = (x * x + y * y - (x + y) ** 2) % p
        res = coboundary_solve(p, table=t)
        assert res["consistent"]
        psi = res["psi"]
        for x in range(p):
            for y in range(p):
                assert (psi[x] + psi[y] - psi[(x + y) % p]) % p == t[x, y]



def coboundary_oracle(p, t):
    """Row-by-row elimination of phi(x,y) = psi(x) + psi(y) - psi(x+y):
    each equation row is reduced against the pivot rows taken before it,
    carrying the combination of original rows that produced it."""
    pairs = [(x, y) for x in range(p) for y in range(p)]
    pivots = {}
    for r, (x, y) in enumerate(pairs):
        row = np.zeros(p, dtype=np.int64)
        row[x] += 1
        row[y] += 1
        row[(x + y) % p] -= 1
        row %= p
        crow = np.zeros(len(pairs), dtype=np.int64)
        crow[r] = 1
        rr = int(t[x, y])
        while row.any():
            c = int(np.flatnonzero(row)[0])
            if c not in pivots:
                inv = pow(int(row[c]), p - 2, p)
                pivots[c] = ((row * inv) % p, (crow * inv) % p, (rr * inv) % p)
                break
            prow, pcomb, prhs = pivots[c]
            f = int(row[c])
            row = (row - f * prow) % p
            crow = (crow - f * pcomb) % p
            rr = (rr - f * prhs) % p
        if not row.any() and rr % p:
            support = np.flatnonzero(crow)
            return {
                "consistent": False,
                "certificate": {
                    "rows": [pairs[i] for i in support],
                    "multipliers": [int(crow[i]) for i in support],
                    "rhs_value": int(rr % p),
                },
            }
    psi = [0] * p
    for c in sorted(pivots, reverse=True):
        prow, _pcomb, prhs = pivots[c]
        s = int(prhs)
        for c2 in range(c + 1, p):
            s = (s - int(prow[c2]) * psi[c2]) % p
        psi[c] = s
    return {"consistent": True, "psi": psi}


def H_table(p):
    return [H(x, p) for x in range(p)]


def equation_B_oracle(p):
    """Equation B at every (x, y) with y not in {0, 1}, y outermost."""
    h = H_table(p)
    checked = 0
    for y in range(2, p):
        inv_1y = pow((1 - y) % p, p - 2, p)
        inv_y = pow(y, p - 2, p)
        for x in range(p):
            checked += 1
            lhs = h[(x + y) % p]
            rhs = h[y] + (1 - y) * h[x * inv_1y % p] + y * h[-x * inv_y % p]
            if (lhs - rhs) % p:
                return {"holds": False, "checked": checked, "counterexample": [x, y]}
    return {"holds": True, "checked": checked}


def equation_C_oracle(p):
    """Equation C at every x != 0."""
    h = H_table(p)
    for x in range(1, p):
        if (x * h[pow(x, p - 2, p)] + h[x]) % p:
            return {"holds": False, "checked": x, "counterexample": [x]}
    return {"holds": True, "checked": p - 1}


PRIMES_TO_101 = [p for p in range(3, 102) if all(p % d for d in range(2, p))]


class TestAgainstLoops:
    """coboundary_solve and equations B and C against plain loops."""

    @pytest.mark.parametrize("p", [p for p in PRIMES_TO_101 if p <= 61])
    def test_coboundary_of_phi(self, p):
        t = phi_table(p)
        assert coboundary_solve(p, table=t) == coboundary_oracle(p, t)

    def test_coboundary_of_zero(self):
        t = np.zeros((7, 7), dtype=np.int64)
        assert coboundary_solve(7, table=t) == coboundary_oracle(7, t)
        assert coboundary_oracle(7, t) == {"consistent": True, "psi": [0] * 7}

    def test_coboundary_of_random_tables(self):
        # coboundaries of a random psi with up to three entries changed
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(240):
            p = rng.choice((3, 5, 7, 11, 13))
            psi = [rng.randrange(p) for _ in range(p)]
            idx = np.arange(p)
            t = (np.take(psi, idx[:, None]) + np.take(psi, idx[None, :])
                 - np.take(psi, (idx[:, None] + idx[None, :]) % p)) % p
            for _ in range(rng.randrange(4)):
                t[rng.randrange(p), rng.randrange(p)] = rng.randrange(p)
            res = coboundary_solve(p, table=t)
            assert res == coboundary_oracle(p, t)
            if not res["consistent"]:
                assert verify_certificate(p, res["certificate"], t)
            outcomes.add(res["consistent"])
        assert outcomes == {True, False}

    @pytest.mark.parametrize("p", PRIMES_TO_101)
    def test_equations_B_and_C(self, p):
        assert check_equation_B(p).as_dict() == equation_B_oracle(p)
        assert check_equation_C(p).as_dict() == equation_C_oracle(p)

class TestExtensionGroup:
    @pytest.mark.parametrize("p", (5, 7, 11))
    def test_axioms_hold(self, p):
        r = group_check(p)
        assert r.holds and r.checked == p**3 * (p - 1)

    def test_inverse_formula(self):
        p = 7
        g = (3, 5, 2)
        assert group_mul(g, group_inverse(g, p), p) == (0, 0, 1)

    def test_non_cocycle_breaks_associativity(self):
        p = 5
        t = phi_table(p).copy()
        t[2, 3] = (t[2, 3] + 1) % p
        t[3, 2] = t[2, 3]
        assert not group_check(p, table=t).holds

    @pytest.mark.parametrize(
        "check",
        (group_check, coboundary_solve, check_homogeneity),
        ids=("group", "coboundary", "homogeneity"),
    )
    def test_refused_beyond_the_limit_before_any_table(self, check, monkeypatch):
        def no_table(p):
            raise AssertionError("phi_table built before the refusal")

        monkeypatch.setattr(cocycle, "phi_table", no_table)
        with pytest.raises(BudgetExceeded):
            check(cocycle.EXHAUSTIVE_COCYCLE_LIMIT + 2)


def mutated_table(p, x, y):
    """phi's table with one entry off by one: the identity and inverse
    axioms still hold for x, y != 0 and x + y != 0, associativity does not."""
    t = phi_table(p).copy()
    t[x, y] = (t[x, y] + 1) % p
    return t


def element_faults(p, t, g):
    """The identity and inverse axioms that element g breaks for table t."""
    ident = (0, 0, 1)
    gi = group_inverse(g, p)
    out = set()
    if group_mul(g, ident, p, t) != g or group_mul(ident, g, p, t) != g:
        out.add("identity axiom")
    if group_mul(g, gi, p, t) != ident or group_mul(gi, g, p, t) != ident:
        out.add("inverse axiom")
    return out


def failing_axioms(p, t):
    """The group axioms that fail for table t, by brute force over every
    element and, through the Cayley table, every triple of elements."""
    elements = [(u, b, a) for u in range(p) for b in range(p) for a in range(1, p)]
    n = len(elements)
    out = set().union(*(element_faults(p, t, g) for g in elements))
    # Cayley table of element indices, (u*p + b)*(p-1) + a - 1
    coords = np.array(elements, dtype=np.int64).T
    u1, b1, a1 = np.repeat(coords, n, axis=1)
    u2, b2, a2 = np.tile(coords, (1, n))
    ab = a1 * b2 % p
    u = (u1 + a1 * u2 + t[b1, ab]) % p
    cayley = ((u * p + (b1 + ab) % p) * (p - 1) + a1 * a2 % p - 1).reshape(n, n)
    # row i: (g_i g_j) g_k is cayley[row][j, k] and g_i (g_j g_k) is row[cayley][j, k]
    if any(not np.array_equal(cayley[row], row[cayley]) for row in cayley):
        out.add("associativity")
    return out


def breaks_associativity(p, t, triple):
    g1, g2, g3 = triple
    left = group_mul(group_mul(g1, g2, p, t), g3, p, t)
    return left != group_mul(g1, group_mul(g2, g3, p, t), p, t)


def seeded_tables(p, count, seed):
    """phi's table and copies with 1-2 random entries changed, half of
    them symmetrically, plus one change each that touches only the
    identity, only the inverse and only the associativity condition."""
    rng = random.Random(seed)
    yield phi_table(p)
    for x, y in ((3, 0), (2, p - 2), (1, 2)):
        yield mutated_table(p, x, y)
    for _ in range(count):
        t = phi_table(p).copy()
        for _ in range(rng.randint(1, 2)):
            x, y = rng.randrange(p), rng.randrange(p)
            t[x, y] = rng.randrange(p)
            if rng.random() < 0.5:
                t[y, x] = t[x, y]
        yield t


class TestGroupCheckAgainstBruteForce:
    """group_check's reduced conditions on the table against every element
    and every triple of the group."""

    @pytest.mark.parametrize("p", (5, 7))
    def test_verdicts_match(self, p):
        details = set()
        for t in seeded_tables(p, 60, seed=p):
            fails = failing_axioms(p, t)
            r = group_check(p, table=t)
            assert r.holds == (not fails)
            if r.holds:
                assert r.as_dict() == {"holds": True, "checked": p**3 * (p - 1)}
                continue
            details.add(r.detail)
            assert r.detail in fails
            if r.detail == "associativity":
                assert fails == {"associativity"}
                assert breaks_associativity(p, t, r.counterexample)
            else:
                assert r.checked == 0
                assert r.detail in element_faults(p, t, r.counterexample)
        assert details == {"identity axiom", "inverse axiom", "associativity"}

    def test_associativity_counterexample(self):
        p = 5
        t = mutated_table(p, 1, 2)
        r = group_check(p, table=t)
        # a1 = 1 leaves the changed t[1, 2] on both sides; the first tuple
        # that scales it, (b1, a1, b2, c) = (0, 2, 1, 2), comes after the
        # 25 tuples of a1 = 1, the 5 of b2 = 0 and c = 0, 1
        assert r.as_dict() == {
            "holds": False,
            "checked": 33,
            "counterexample": [(0, 0, 2), (0, 1, 1), (0, 2, 1)],
            "detail": "associativity",
        }
        assert breaks_associativity(p, t, r.counterexample)


class TestEntropyModP:
    def test_fair_coin(self):
        assert entropy_mod_p([Fraction(1, 2), Fraction(1, 2)], 5) == 3

    def test_large_prime(self):
        # H(1/2) + (1/2) H(1/2), with H(1/2) the exact integer quotient
        # (1 - x^p - (1-x)^p) / p for x = (p+1)/2, a number of 1.6M bits
        p = 100003
        x = (p + 1) // 2
        h = (1 - x**p - (1 - x) ** p) // p % p
        probs = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        assert entropy_mod_p(probs, p) == 3 * h * x % p

    def test_invalid_distribution(self):
        with pytest.raises(BadParams):
            entropy_mod_p([Fraction(1, 2), Fraction(1, 3)], 5)
        with pytest.raises(BadParams):
            entropy_mod_p([Fraction(1, 5), Fraction(4, 5)], 5)

    def test_zero_probabilities_are_dropped(self):
        a = entropy_mod_p([Fraction(1, 2), Fraction(0), Fraction(1, 2)], 7)
        b = entropy_mod_p([Fraction(1, 2), Fraction(1, 2)], 7)
        assert a == b

    def test_reduce_distribution(self):
        assert reduce_distribution(["1/2", "1/2"], 5) == [3, 3]

    @pytest.mark.parametrize("p", (5, 7, 11))
    def test_order_independence_random(self, p):
        rng = random.Random(p)
        done = 0
        while done < 25:
            k = rng.randint(2, 6)
            weights = [rng.randint(1, 9) for _ in range(k)]
            total = sum(weights)
            if total % p == 0:
                continue
            probs = [Fraction(w, total) for w in weights]
            values = all_ordering_values(probs, p)
            if not values:
                continue  # no admissible ordering; nothing to compare
            assert len(values) == 1
            assert entropy_mod_p(probs, p) in values
            done += 1

    @pytest.mark.parametrize("p", (5, 7, 11))
    def test_main_identity_random_refinements(self, p):
        rng = random.Random(100 + p)
        done = 0
        while done < 15:
            k = rng.randint(2, 3)
            weights = [rng.randint(1, 7) for _ in range(k)]
            total = sum(weights)
            if total % p == 0 or any(w % p == 0 for w in weights):
                continue
            coarse = [Fraction(w, total) for w in weights]
            refinement = []
            ok = True
            for c in coarse:
                parts = rng.randint(1, 3)
                sub = [rng.randint(1, 5) for _ in range(parts)]
                s = sum(sub)
                if s % p == 0:
                    ok = False
                    break
                refinement.append([c * Fraction(w, s) for w in sub])
            if not ok:
                continue
            try:
                assert main_identity_check(coarse, refinement, p).holds
            except NoAdmissibleOrdering:
                continue
            done += 1
