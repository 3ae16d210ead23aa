import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from finpolylog import (
    BadParams,
    NoAdmissibleOrdering,
    all_ordering_values,
    check_cocycle,
    check_equation_B,
    check_equation_C,
    check_homogeneity,
    coboundary_solve,
    entropy_mod_p,
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
from finpolylog.cocycle import H, _group_elements
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

    def test_no_square_identity_matrix(self):
        # a p^2 x p^2 int64 matrix of row combinations takes (p^2)^2 * 8 bytes
        p = 31
        table = phi_table(p)
        tracemalloc.start()
        try:
            res = coboundary_solve(p, table=table)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
    @pytest.mark.parametrize("p", (5, 7))
    def test_axioms_exhaustive(self, p):
        r = group_check(p)
        assert r.holds and r.checked == (p * p * (p - 1)) ** 3

    def test_axioms_sampled(self):
        assert group_check(11, exhaustive=False, samples=10**4).holds

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


def mutated_table(p, x, y):
    """phi's table with one entry off by one: the identity and inverse
    axioms still hold for x, y != 0, associativity does not."""
    t = phi_table(p).copy()
    t[x, y] = (t[x, y] + 1) % p
    return t


def associativity_oracle(p, t, triples):
    """First triple (in the given order) on which plain group_mul calls
    disagree about associativity, with its 1-based position."""
    for pos, (g1, g2, g3) in enumerate(triples, 1):
        left = group_mul(group_mul(g1, g2, p, t), g3, p, t)
        right = group_mul(g1, group_mul(g2, g3, p, t), p, t)
        if left != right:
            return pos, (g1, g2, g3)
    return None


class TestGroupCheckAgainstLoops:
    """The Cayley-table and chunked-sample paths of group_check against
    plain loops over group_mul."""

    @pytest.mark.parametrize("p, checked", ((5, 20_000), (7, 172_872)))
    def test_exhaustive_counterexample(self, p, checked):
        t = mutated_table(p, 1, 2)
        elements = _group_elements(p)
        n = len(elements)
        triples = ((g1, g2, g3) for g1 in elements for g2 in elements for g3 in elements)
        pos, triple = associativity_oracle(p, t, triples)
        r = group_check(p, table=t)
        # checked counts every triple of each g1 up to the failing one
        assert -(-pos // (n * n)) * n * n == checked
        assert r.as_dict() == {
            "holds": False,
            "checked": checked,
            "counterexample": list(triple),
            "detail": "associativity",
        }
        assert triple == ((0, 0, 2), (0, 1, 1), (0, 2, 1))

    @pytest.mark.parametrize("chunk", (7, cocycle._GROUP_SAMPLE_CHUNK))
    def test_sampled_counterexample(self, chunk, monkeypatch):
        p, samples, seed = 11, 10**4, 0
        t = mutated_table(p, 3, 4)
        elements = _group_elements(p)
        idx = np.random.default_rng(seed).integers(0, len(elements), size=(samples, 3))
        triples = (tuple(elements[i] for i in row) for row in idx)
        pos, triple = associativity_oracle(p, t, triples)
        monkeypatch.setattr(cocycle, "_GROUP_SAMPLE_CHUNK", chunk)
        r = group_check(p, exhaustive=False, samples=samples, seed=seed, table=t)
        assert r.as_dict() == {
            "holds": False,
            "checked": pos,
            "counterexample": list(triple),
            "detail": "associativity (sampled)",
        }

    @pytest.mark.parametrize("samples", (0, -3))
    def test_no_samples_is_not_a_pass(self, samples):
        with pytest.raises(BadParams):
            group_check(11, exhaustive=False, samples=samples)

    @pytest.mark.parametrize("chunk", (7, cocycle._GROUP_SAMPLE_CHUNK))
    def test_sampled_pass_counts_every_sample(self, chunk, monkeypatch):
        monkeypatch.setattr(cocycle, "_GROUP_SAMPLE_CHUNK", chunk)
        r = group_check(11, exhaustive=False, samples=1000, seed=2)
        assert r.as_dict() == {"holds": True, "checked": 1000}


class TestEntropyModP:
    def test_fair_coin(self):
        assert entropy_mod_p([Fraction(1, 2), Fraction(1, 2)], 5) == 3

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
