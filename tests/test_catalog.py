import itertools
import random

import numpy as np
import pytest

from finpolylog import (
    BadParams,
    DomainMismatch,
    FieldDescriptor,
    FormalSum,
    RatFunc,
    UnknownId,
    build,
    catalog_ids,
    entry_info,
    normalize_mod_inversion,
    verify_strong,
    verify_weak,
)
from finpolylog import catalog
from finpolylog.catalog import (
    STRONG_SUITE,
    Verdict,
    admissible_points,
    drop_trivial_arguments,
)
from finpolylog.errors import InadmissiblePoint
from finpolylog.fields import FieldElement, build_extension
from finpolylog.finlog import _ltilde_prime_table, lhat_eval, lhat_eval_grid
from finpolylog.poly import PrimeDomain


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


    def test_weight_must_stay_below_p_minus_one(self):
        # at p=3, L_2 is the weight-0 polylogarithm: k^2 = 1 for k = 1, 2
        for eq_id in ("three_term", "kummer_spence", "cathelineau_J", "three_term_classical"):
            with pytest.raises(BadParams):
                build(eq_id, 3)
            build(eq_id, 5)
        # weight-parameterized entries hold at every weight; a classical
        # entry is checked one weight lower
        for eq_id, params in (("feit", {}), ("inversion", {"n": 2}), ("five_term_classical", {})):
            build(eq_id, 3, **params)
        assert verify_strong(build("inversion", 5, n=4)).holds


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
        p = 5
        pole = pole_everywhere(p)
        v = verify_weak(pole, p)
        assert v.points_checked == 0
        assert v.points_skipped == p ** len(pole.variables)
        assert not v.holds and v.counterexample is None

    def test_admissible_points_excludes_poles(self):
        count, points = admissible_points(build("feit", 5), 5)
        assert count == 15
        assert all(int(pt["a"]) not in (0, 1) for pt in points)


def iter_field_points(variables, fld, budget, seed):
    """The points of a weak check, one dict of FieldElement at a time: the
    whole grid in itertools.product order when it fits ``budget``, else
    ``budget`` points of e draws of random.Random(seed).randrange(p) per
    variable."""
    total = fld.q ** len(variables)
    if total <= budget:
        for combo in itertools.product(fld.elements(), repeat=len(variables)):
            yield dict(zip(variables, combo))
        return
    rng = random.Random(seed)
    for _ in range(budget):
        point = {}
        for v in variables:
            coords = tuple(rng.randrange(fld.p) for _ in range(fld.e))
            point[v] = FieldElement(coords, fld)
        yield point


def per_point_verdict(s, fld, budget=10**6, seed=0):
    """The weak verdict by a plain lhat_eval loop, one point at a time."""
    if isinstance(fld, int):
        fld = FieldDescriptor(fld)
    grid = {"grid_size": fld.q ** len(s.variables)}
    grid["exhaustive"] = grid["grid_size"] <= budget
    checked = skipped = 0
    for point in iter_field_points(s.variables, fld, budget, seed):
        try:
            value = lhat_eval(s.weight, s, point)
        except InadmissiblePoint:
            skipped += 1
            continue
        checked += 1
        if not value.is_zero():
            return Verdict(
                holds=False,
                mode="weak",
                weight=s.weight,
                counterexample={
                    v: int(x) if fld.e == 1 else list(x.coords)
                    for v, x in point.items()
                },
                points_checked=checked,
                points_skipped=skipped,
                **grid,
            )
    return Verdict(
        holds=checked > 0,
        mode="weak",
        weight=s.weight,
        points_checked=checked,
        points_skipped=skipped,
        **grid,
    )


def pole_everywhere(p):
    """1/(a^p - a) [a]: a nonzero sum undefined at every point of GF(p)."""
    s = build("feit", p)
    a = RatFunc.variable(s.variables[0], s.variables, PrimeDomain(p))
    return FormalSum(s.weight, ((1 / (a**p - a), a),), s.variables)


class TestBatchedWeakCheck:
    """verify_weak over GF(p) against the per-point loop."""

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("eq_id", catalog_ids())
    def test_every_entry_matches_per_point(self, eq_id, p):
        s = build(eq_id, p)
        assert verify_weak(s, p).as_dict() == per_point_verdict(s, p).as_dict()

    @pytest.mark.parametrize(
        "eq_id", ("cathelineau_J", "derived_goncharov", "five_term_family")
    )
    def test_larger_prime_matches_per_point(self, eq_id):
        s = build(eq_id, 11)
        assert verify_weak(s, 11).as_dict() == per_point_verdict(s, 11).as_dict()

    @pytest.mark.parametrize("chunk", (7, catalog._WEAK_CHUNK))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize(
        "eq_id,p,budget",
        (("feit_generalized", 7, 100), ("five_term_cocycle", 7, 300), ("feit", 11, 50)),
    )
    def test_sampled_run_matches_per_point(self, eq_id, p, budget, seed, chunk, monkeypatch):
        monkeypatch.setattr(catalog, "_WEAK_CHUNK", chunk)
        s = build(eq_id, p)
        assert p ** len(s.variables) > budget
        got = verify_weak(s, p, budget=budget, seed=seed)
        assert got.as_dict() == per_point_verdict(s, p, budget, seed).as_dict()
        assert got.points_checked + got.points_skipped <= budget

    def test_failure_past_the_first_chunk(self, monkeypatch):
        # the added coefficient prod_k (x - k), k < p-1, vanishes unless
        # x = p-1, so the first failing point comes late in the grid
        monkeypatch.setattr(catalog, "_WEAK_CHUNK", 8)
        p = 5
        s = build("feit_generalized", p)
        dom = PrimeDomain(p)
        x = RatFunc.variable(s.variables[0], s.variables, dom)
        late = RatFunc.const(s.variables, dom, 1)
        for k in range(p - 1):
            late = late * (x - k)
        two = RatFunc.const(s.variables, dom, 2)
        mutated = FormalSum(s.weight, s.terms + ((late, two),), s.variables)
        got = verify_weak(mutated, p)
        assert got.as_dict() == per_point_verdict(mutated, p).as_dict()
        assert not got.holds and got.counterexample[s.variables[0]] == p - 1
        assert got.points_checked + got.points_skipped > 8

    def test_undefined_everywhere_matches_per_point(self):
        s = pole_everywhere(5)
        assert verify_weak(s, 5).as_dict() == per_point_verdict(s, 5).as_dict()

    def test_counterexample_is_rechecked_pointwise(self, monkeypatch):
        calls = []

        def recording(m, s, point):
            calls.append(point)
            return lhat_eval(m, s, point)

        monkeypatch.setattr(catalog, "lhat_eval", recording)
        assert verify_weak(build("feit", 5), 5).holds
        assert not calls
        s = build("feit", 7)
        coeff, arg = s.terms[0]
        mutated = FormalSum(s.weight, ((coeff + 1, arg),) + s.terms[1:], s.variables)
        got = verify_weak(mutated, 7)
        assert len(calls) == 1
        assert {v: int(x) for v, x in calls[0].items()} == got.counterexample

    def test_sampled_counterexample_builds_no_polylog_table(self):
        # 10 sampled points of GF(1009): neither the grid nor the pointwise
        # re-check of the counterexample takes the table of all p values
        _ltilde_prime_table.cache_clear()
        got = verify_weak(build("three_term_classical", 1009), 1009, budget=10)
        assert not got.holds and got.counterexample
        assert _ltilde_prime_table.cache_info().currsize == 0

    def test_characteristic_mismatch_raises(self):
        with pytest.raises(DomainMismatch):
            verify_weak(build("feit", 5), 7)


EXTENSION_FIELDS = ((5, 2), (7, 2))


def twist_mutation(p):
    """[T] + T^p [1/T]: the inversion relation [T] + T [1/T] with its
    second coefficient replaced by its p-th power.  Both agree at every
    point of GF(p), so it holds weakly there; over GF(p^2) the twisted
    coefficient (T^p)^p = T differs from T^p, and it fails."""
    s = build("inversion", p, n=1)
    t = RatFunc.variable(s.variables[0], s.variables, PrimeDomain(p))
    (c0, x0), (_c1, x1) = s.terms
    return FormalSum(s.weight, ((c0, x0), (t**p, x1)), s.variables)


class TestExtensionFieldWeakCheck:
    """verify_weak over GF(p^e) against the per-point loop."""

    @pytest.mark.parametrize(
        "eq_id,p,e",
        [
            (eq_id, p, e)
            for p, e in EXTENSION_FIELDS
            for eq_id in catalog_ids()
            if p ** (e * len(entry_info(eq_id)["variables"])) <= 2 * 10**4
        ],
    )
    def test_every_entry_matches_per_point(self, eq_id, p, e):
        s = build(eq_id, p)
        fld = build_extension(p, e)
        assert verify_weak(s, fld).as_dict() == per_point_verdict(s, fld).as_dict()

    @pytest.mark.parametrize("p", (5, 7))
    def test_twist_is_applied(self, p):
        s = twist_mutation(p)
        assert verify_weak(s, p).holds
        fld = build_extension(p, 2)
        got = verify_weak(s, fld)
        assert got.as_dict() == per_point_verdict(s, fld).as_dict()
        assert not got.holds
        (coords,) = got.counterexample.values()
        assert len(coords) == 2 and coords[1] != 0  # not in GF(p)

    def test_mutated_sum_reports_coordinates(self):
        s = build("feit", 5)
        coeff, arg = s.terms[0]
        mutated = FormalSum(s.weight, ((coeff + 1, arg),) + s.terms[1:], s.variables)
        fld = build_extension(5, 2)
        got = verify_weak(mutated, fld)
        assert got.as_dict() == per_point_verdict(mutated, fld).as_dict()
        assert not got.holds
        assert all(len(c) == 2 for c in got.counterexample.values())

    @pytest.mark.parametrize("chunk", (7, catalog._WEAK_CHUNK))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize(
        "eq_id,p", (("feit", 5), ("five_term_v1", 5), ("kummer_spence", 7))
    )
    def test_sampled_run_matches_per_point(self, eq_id, p, seed, chunk, monkeypatch):
        monkeypatch.setattr(catalog, "_WEAK_CHUNK", chunk)
        s = build(eq_id, p)
        fld = build_extension(p, 2)
        budget = 500
        assert fld.q ** len(s.variables) > budget
        got = verify_weak(s, fld, budget=budget, seed=seed)
        assert got.as_dict() == per_point_verdict(s, fld, budget, seed).as_dict()

    def test_sampled_failure_matches_per_point(self, monkeypatch):
        monkeypatch.setattr(catalog, "_WEAK_CHUNK", 7)
        s = twist_mutation(7)
        fld = build_extension(7, 2)
        for seed in (0, 1, 2):
            got = verify_weak(s, fld, budget=30, seed=seed)
            assert got.as_dict() == per_point_verdict(s, fld, 30, seed).as_dict()
            assert not got.holds

    def test_admissible_points(self):
        fld = build_extension(5, 2)
        count, points = admissible_points(build("feit", 5), fld)
        points = list(points)
        assert count == len(points) == 575
        assert all(pt["a"].field == fld for pt in points)
        assert all(pt["a"] not in (fld.zero(), fld.one()) for pt in points)

    def test_pole_on_the_prime_field_matches_per_point(self):
        # a^5 - a vanishes on GF(5) only, the first 5 of 25 values of a
        s = pole_everywhere(5)
        fld = build_extension(5, 2)
        got = verify_weak(s, fld)
        assert got.as_dict() == per_point_verdict(s, fld).as_dict()
        assert got.points_skipped == 5 * 25 and got.counterexample["a"] == [0, 1]

    def test_one_path_for_every_field(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a passing run has no counterexample to re-check")

        monkeypatch.setattr(catalog, "lhat_eval", refuse)
        assert verify_weak(build("two_term", 5), build_extension(5, 2)).holds

    @pytest.mark.parametrize("fld", (5, build_extension(5, 2)))
    def test_rational_sum_raises_domain_mismatch(self, fld):
        with pytest.raises(DomainMismatch):
            verify_weak(build("feit", 0), fld)
        with pytest.raises(DomainMismatch):
            admissible_points(build("feit", 0), fld)


# the smallest prime above 2^31, past the int64 products of lhat_eval_grid
BIG_P = 2147483659


class TestInt64Limit:
    def test_verify_weak_refuses(self):
        with pytest.raises(BadParams):
            verify_weak(build("two_term", BIG_P), BIG_P, budget=10)

    def test_lhat_eval_grid_refuses(self):
        s = build("two_term", BIG_P)
        with pytest.raises(BadParams):
            lhat_eval_grid(1, s, np.zeros((1, 1), dtype=np.int64), BIG_P)


class TestStrongImpliesExhaustiveWeak:
    # every twisted entry at every small prime, derived_goncharov at p=7
    # (the slowest strong check here, about 2 s) among them
    @pytest.mark.parametrize(
        "eq_id,p",
        [
            (eq_id, p)
            for p in SMALL_PRIMES
            for eq_id in catalog_ids()
            if not entry_info(eq_id)["classical"]
        ],
    )
    def test_strong_verdict_implies_weak(self, eq_id, p):
        s = build(eq_id, p)
        if verify_strong(s).holds:
            weak = verify_weak(s, p)
            assert weak.holds
            assert weak.points_checked + weak.points_skipped == p ** len(s.variables)


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
