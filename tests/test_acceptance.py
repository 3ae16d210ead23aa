"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -v or -s)
and asserts the criterion.  These runs use the full prime ranges and are
slower than the unit tests.
"""

import random
from fractions import Fraction

from finpolylog import (
    build,
    characterize,
    check_cocycle,
    coboundary_solve,
    derive,
    derived_equals,
    all_ordering_values,
    group_check,
    kummer_congruence,
    main_identity_check,
    normalize_mod_inversion,
    special_values,
    standard_derivation,
    verify_certificate,
    verify_strong,
    verify_weak,
)
from finpolylog.catalog import STRONG_SUITE
from finpolylog.cocycle import phi_table
from finpolylog.errors import NoAdmissibleOrdering
from finpolylog.formal import FormalSum
from finpolylog.padic import (
    besser_coefficients,
    clean_check,
    construct_family,
    verify_recursion,
)
from finpolylog.solver import (
    PRESETS,
    in_span,
    kernels_equal,
    polylog_vector,
    tau_family_rank,
    tau_satisfies_three_term,
    tau_vector,
)


def _report(name: str, ok: bool) -> bool:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    return ok


PRIMES_TO_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIMES_TO_97 = PRIMES_TO_31 + (37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def test_criterion_1_strong_suite():
    ok = True
    for p in (5, 7, 11, 13):
        for eq_id, params in STRONG_SUITE:
            ok = ok and verify_strong(build(eq_id, p, **params)).holds
        for m in (d for d in range(2, p) if (p - 1) % d == 0):
            for n in (1, 2):
                ok = ok and verify_strong(build("distribution", p, n=n, m=m)).holds
    for p in (17, 19, 23):
        ok = ok and verify_strong(build("cathelineau_J", p)).holds
    assert _report("1 (strong verification suite)", ok)


def test_criterion_2_characterizations():
    ok = True
    for p in PRIMES_TO_31:
        r = characterize("FEIT", p)
        ok = ok and r.dimension == 1 and r.proportional_to_target
    r = characterize("L1_TRIPLE", 7)
    ok = ok and r.dimension == 1 and r.proportional_to_target
    for p in (7, 11, 13):
        for preset in ("KS", "J"):
            r = characterize(preset, p)
            ok = ok and r.dimension == 1 and r.proportional_to_target
        ok = ok and kernels_equal("KS", "J", p)
    for p in (7, 11, 13, 17, 19, 23, 29, 31):
        ok = ok and characterize("THM423", p).dimension == 1
    for p in PRIMES_TO_97:
        r = characterize("L2_PAIR", p)
        ok = ok and r.dimension == 1 and r.proportional_to_target
    assert _report("2 (solution-space dimensions)", ok)


def test_criterion_3_cyclic_equation_kernel():
    ok = True
    for p in PRIMES_TO_31:
        expected = (p - 1) // 3 + 1
        r = characterize("THREE_TERM", p)
        ok = ok and r.dimension >= expected
        deg = p  # the cyclic preset solves in degree <= p
        ok = ok and in_span(r.basis, polylog_vector(2, p, deg), p)
        for i in range(expected):
            ok = ok and in_span(r.basis, tau_vector(i, p, deg), p)
            ok = ok and tau_satisfies_three_term(i, p)
        ok = ok and tau_family_rank(p) == expected
    assert _report("3 (cyclic-equation kernel with the tau family)", ok)


def test_criterion_4_special_values():
    ok = True
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101):
        rows = special_values(p)
        ok = ok and all(r["status"] in ("ok", "logged") for r in rows)
        ok = ok and all(
            r["index"] == 1 for r in rows if r["status"] == "logged"
        )
        if p <= 47:
            for m in range(2, 11, 2):
                ok = ok and kummer_congruence(p, m)
    assert _report("4 (special-value tables and Genocchi congruence)", ok)


def test_criterion_5_derivation_pipeline():
    ok = True
    for p in PRIMES_TO_31:
        classical = build("five_term_classical", p)
        derived, _ = derive(classical, standard_derivation(classical.variables, p))
        same, scalar, _ = derived_equals(derived, build("feit", p))
        ok = ok and same and scalar is not None
        v = verify_weak(derived, p)
        ok = ok and v.holds and v.points_checked + v.points_skipped == p * p
    for p in (7, 11, 13):
        v = verify_weak(build("derived_goncharov", p), p)
        ok = ok and v.holds and v.points_checked + v.points_skipped == p ** 3
    assert _report("5 (classical-to-finite derivation pipeline)", ok)


def test_criterion_6_padic_symbolic():
    ok = True
    for n in range(2, 13):
        ok = ok and clean_check(besser_coefficients(n), n)
    for n in range(3, 11):
        ok = ok and verify_recursion(n)
    fam = construct_family(6, {n: Fraction(1, n - 1) for n in range(3, 7)})
    for n in range(3, 7):
        ok = ok and fam.lambdas[n] == Fraction(1, n - 1)
        ok = ok and fam.mus[n] == Fraction(-1, n - 1)
        ok = ok and tuple(fam.levels[n]) == besser_coefficients(n)
    ok = ok and fam.lambdas[3] - fam.mus[3] == 1
    lam3 = Fraction(3, 7)
    alt = construct_family(4, {3: lam3, 4: Fraction(1)})
    ok = ok and alt.lambdas[3] - alt.mus[3] == 1
    ok = ok and alt.lambdas[4] - alt.mus[4] == Fraction(1, 2 - lam3)
    assert _report("6 (symbolic clean polylogarithm family)", ok)


def test_criterion_7_cocycle_and_entropy():
    ok = True
    for p in PRIMES_TO_31 + (3,):
        if p == 3:
            continue
        ok = ok and check_cocycle(p).holds
        res = coboundary_solve(p)
        ok = ok and not res["consistent"]
        ok = ok and verify_certificate(p, res["certificate"])
    for p in PRIMES_TO_31:
        ok = ok and group_check(p).holds
    for p in (5, 7, 11):
        rng = random.Random(p)
        done = 0
        while done < 100:
            k = rng.randint(2, 6)
            weights = [rng.randint(1, 12) for _ in range(k)]
            total = sum(weights)
            if total % p == 0:
                continue
            probs = [Fraction(w, total) for w in weights]
            values = all_ordering_values(probs, p)
            if not values:
                continue
            ok = ok and len(values) == 1
            done += 1
        done = 0
        rng = random.Random(1000 + p)
        while done < 100:
            k = rng.randint(2, 3)
            weights = [rng.randint(1, 7) for _ in range(k)]
            total = sum(weights)
            if total % p == 0 or any(w % p == 0 for w in weights):
                continue
            coarse = [Fraction(w, total) for w in weights]
            refinement = []
            good = True
            for c in coarse:
                sub = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
                s = sum(sub)
                if s % p == 0:
                    good = False
                    break
                refinement.append([c * Fraction(w, s) for w in sub])
            if not good:
                continue
            try:
                ok = ok and main_identity_check(coarse, refinement, p).holds
            except NoAdmissibleOrdering:
                continue
            done += 1
    assert _report("7 (cocycle, extension group, and entropy)", ok)


def test_criterion_8_negative_controls():
    ok = True
    # a perturbed coefficient must break both verification modes
    s = build("feit", 7)
    coeff, arg = s.terms[0]
    mutated = FormalSum(s.weight, ((coeff + 1, arg),) + s.terms[1:], s.variables)
    strong = verify_strong(mutated)
    weak = verify_weak(mutated, 7)
    ok = ok and not strong.holds and strong.residual_terms > 0
    ok = ok and not weak.holds and weak.counterexample is not None
    # a perturbed clean coefficient must break the linking recursion
    coeffs = list(besser_coefficients(4))
    coeffs[2] += 1
    ok = ok and not verify_recursion(4, coeffs=coeffs)
    # a perturbed symmetric table must fail the cocycle condition
    t = phi_table(7).copy()
    t[2, 3] = (t[2, 3] + 1) % 7
    t[3, 2] = t[2, 3]
    ok = ok and not check_cocycle(7, table=t).holds
    assert _report("8 (negative controls)", ok)
