import pytest

from finpolylog import (
    BadParams,
    FormalSum,
    UnknownId,
    build,
    catalog_ids,
    entry_info,
    normalize_mod_inversion,
    verify_strong,
    verify_weak,
)
from finpolylog.catalog import STRONG_SUITE, admissible_points, drop_trivial_arguments
from finpolylog.fields import build_extension


SMALL_PRIMES = (5, 7)


class TestRegistry:
    def test_ids_are_sorted_and_buildable(self):
        ids = catalog_ids()
        assert ids == sorted(ids)
        for eq_id in ids:
            info = entry_info(eq_id)
            s = build(eq_id, 7)
            assert isinstance(s, FormalSum)
            assert s.variables == tuple(info["variables"])

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            build("no_such_equation", 7)

    def test_bad_parameters(self):
        with pytest.raises(BadParams):
            build("distribution", 7, n=1, m=4)  # 4 does not divide 6
        with pytest.raises(BadParams):
            build("feit", 7, n=2)


class TestStrongVerification:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("eq_id,params", STRONG_SUITE)
    def test_suite_entry_vanishes(self, eq_id, params, p):
        assert verify_strong(build(eq_id, p, **params)).holds

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_distribution_all_divisors(self, p):
        for m in (d for d in range(2, p) if (p - 1) % d == 0):
            for n in (1, 2):
                assert verify_strong(build("distribution", p, n=n, m=m)).holds

    def test_distribution_minus_one_is_inversion(self):
        for p in SMALL_PRIMES:
            for n in (1, 2, 3):
                a = normalize_mod_inversion(build("distribution", p, n=n, m=-1))
                b = normalize_mod_inversion(build("inversion", p, n=n))
                assert len((a - b).merged()) == 0

    def test_wrong_weight_fails(self):
        # feit holds at weight 1 but not at weight 2
        s = build("feit", 7)
        assert verify_strong(s, weight=2).holds is False


class TestWeakVerification:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_feit_weak(self, p):
        v = verify_weak(build("feit", p), p)
        assert v.holds and v.points_checked > 0

    def test_weak_over_extension_field(self):
        f = build_extension(5, 2)
        assert verify_weak(build("two_term", 5), f).holds

    @pytest.mark.parametrize("budget", (0, -5))
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(BadParams):
            verify_weak(build("feit", 7), 7, budget=budget)

    def test_no_admissible_point_is_not_a_pass(self):
        # 1/(a^p - a) is a nonzero rational function that is undefined at
        # every point of GF(p), so no point can be checked
        from finpolylog import RatFunc
        from finpolylog.poly import PrimeDomain

        p = 5
        s = build("feit", p)
        a = RatFunc.variable(s.variables[0], s.variables, PrimeDomain(p))
        pole = FormalSum(s.weight, ((1 / (a**p - a), a),), s.variables)
        v = verify_weak(pole, p)
        assert v.points_checked == 0
        assert v.points_skipped == p ** len(s.variables)
        assert not v.holds and v.counterexample is None

    def test_admissible_points_excludes_poles(self):
        count, points = admissible_points(build("feit", 5), 5)
        assert count == 15
        assert all(int(pt["a"]) not in (0, 1) for pt in points)


class TestNegativeControls:
    def test_mutated_equation_fails_strong_with_residual(self):
        s = build("feit", 7)
        coeff, arg = s.terms[0]
        mutated = FormalSum(
            s.weight, ((coeff + 1, arg),) + s.terms[1:], s.variables
        )
        v = verify_strong(mutated)
        assert not v.holds and v.residual_terms > 0

    def test_mutated_equation_fails_weak_with_counterexample(self):
        s = build("feit", 7)
        coeff, arg = s.terms[0]
        mutated = FormalSum(
            s.weight, ((coeff + 1, arg),) + s.terms[1:], s.variables
        )
        v = verify_weak(mutated, 7)
        assert not v.holds and v.counterexample is not None

    def test_same_mutation_fails_at_every_small_prime(self):
        for p in (5, 7, 11):
            s = build("feit", p)
            coeff, arg = s.terms[0]
            mutated = FormalSum(
                s.weight, ((coeff + 1, arg),) + s.terms[1:], s.variables
            )
            assert not verify_strong(mutated).holds


class TestNormalization:
    def test_three_term_symmetrization_vanishes(self):
        # f(x) + f(1-x) for the cyclic relation collapses to zero after
        # rewriting arguments modulo x -> 1/x
        from finpolylog import RatFunc
        from finpolylog.poly import PrimeDomain

        p = 7
        s = build("three_term", p)
        x = RatFunc.variable(s.variables[0], s.variables, PrimeDomain(p))
        swapped = s.substitute({s.variables[0]: 1 - x})
        total = normalize_mod_inversion((s + swapped).merged())
        assert len(total) == 0

    def test_trivial_argument_dropping(self):
        s = build("j_specialization", 7, c="a")
        cleaned, dropped = drop_trivial_arguments(s)
        assert dropped == 0  # already cleaned at build time
