from dataclasses import replace
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpolylog import (
    BadParams,
    FieldDescriptor,
    FormalSum,
    InadmissiblePoint,
    IndexOutOfRange,
    PrimeDomain,
    RatFunc,
    SparsePoly,
    build,
    kummer_congruence,
    l1_via_witt,
    lhat_apply,
    lhat_eval,
    lhat_eval_grid,
    ltilde,
    special_values,
    tau,
)
from finpolylog import SizeExceeded, finlog, poly, verify_strong
from finpolylog.catalog import STRONG_SUITE
from finpolylog.cli import main
from finpolylog.fields import build_extension, genocchi
from finpolylog.finlog import (
    _inv_power_table,
    _ltilde_prime_table,
    _unit_power_sums,
    clear_denominators,
    finite_polylog,
    recipe_decompose,
    recipe_prove_zero,
    twisted_numerators,
)
from finpolylog.poly import SparseVector, _mul_schoolbook, homogenized_sums
from finpolylog.solver import polylog_vector


PRIMES = (5, 7, 11, 13)


def _polylog_at_unit(m: int, p: int, x: int) -> int:
    """Reference: the weight-m polylog at x = 1 or -1, sum_k x^k k^(-m) mod p."""
    return sum(c * x**k for k, c in enumerate(_inv_power_table(m, p), 1)) % p


class TestPolylogPolynomial:
    @pytest.mark.parametrize("p", PRIMES)
    def test_weight_one_matches_binomial_construction(self, p):
        assert finite_polylog(1, p) == l1_via_witt(p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_periodicity_in_weight(self, p):
        assert finite_polylog(2, p) == finite_polylog(2 + (p - 1), p)

    def test_coefficients_are_inverse_powers(self):
        q = finite_polylog(2, 7)
        for k in range(1, 7):
            assert q.terms[(k,)] == pow(k, 7 - 2, 7) ** 2 % 7

    @pytest.mark.parametrize("p", (5, 7, 11, 97))
    def test_pointwise_matches_polynomial(self, p):
        f = FieldDescriptor(p)
        q = finite_polylog(2, p)
        for x in range(p):
            assert ltilde(2, f.element(x)) == q.evaluate({"T": f.element(x)})

    def test_extension_field_values(self):
        f = build_extension(5, 2)
        total = sum((ltilde(1, x) for x in f.elements()), f.zero())
        # the polylog has no constant term and degree < q - 1, so the
        # character-sum over the whole field vanishes
        assert total.is_zero()


class TestTwistedEvaluator:
    def test_eval_matches_apply_on_two_term(self):
        p = 7
        s = build("two_term", p)
        img = lhat_apply(1, s)
        f = FieldDescriptor(p)
        for x in range(2, p):
            pt = {"x": f.element(x)}
            assert img.evaluate(pt) == lhat_eval(1, s, pt)

    def test_zero_argument_terms_leave_no_trace(self):
        # L(0) = 0, so c[0] must not add c's denominator to the image
        s = build("feit", 7)
        a = RatFunc.variable("a", s.variables, s.domain)
        zero = RatFunc.const(s.variables, s.domain, 0)
        extra = FormalSum(s.weight, ((1 / (a + 1), zero),), s.variables)
        image = lhat_apply(2, s)
        assert not image.num.is_zero()
        assert lhat_apply(2, s + extra).serialize() == image.serialize()

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("p,e", ((5, 1), (7, 1), (13, 1), (5, 2), (3, 3)))
    def test_grid_matches_pointwise_at_every_point(self, p, e, m):
        dom = PrimeDomain(p)
        V = ("a", "b")
        a = RatFunc.variable("a", V, dom)
        b = RatFunc.variable("b", V, dom)
        one = RatFunc.const(V, dom, 1)
        inv_b1 = one / (b + 1)
        s = FormalSum(
            m,
            (
                ((one / (a - 1)) * (one / (a - 1)), a * inv_b1 * inv_b1 * inv_b1),
                (a * b + 3, (a - b) * (a - b) / (a + 2)),
                (RatFunc.const(V, dom, 2), b),
                (one / (a * b - 1), RatFunc.const(V, dom, 3)),
                (a / (b * b + 1), RatFunc.const(V, dom, 0)),
            ),
            V,
        )
        assert any(mult > 1 for c, x in s.terms for _f, mult in c.factors + x.factors)
        f = build_extension(p, e)
        elements = list(f.elements())
        points = [(x, y) for x in elements for y in elements]
        cols = np.array([[x.coords, y.coords] for x, y in points]).transpose(1, 2, 0)
        if e == 1:
            cols = cols[:, 0, :]  # GF(p) points may drop the coordinate axis
        mask, values = lhat_eval_grid(m, s, cols, f if e > 1 else p)
        assert values.shape == cols.shape[1:]
        values = values.reshape(e, -1)
        for j, (x, y) in enumerate(points):
            try:
                expected = lhat_eval(m, s, {"a": x, "b": y})
            except InadmissiblePoint:
                assert not mask[j] and not values[:, j].any()
            else:
                assert mask[j] and tuple(values[:, j].tolist()) == expected.coords

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    def test_horner_route_matches_the_table_at_every_point(self, p):
        # a check of fewer than p points skips the table; both routes give
        # the same value at every point of GF(p), for every weight
        dom = PrimeDomain(p)
        t = RatFunc.variable("T", ("T",), dom)
        one = RatFunc.const(("T",), dom, 1)
        cols = np.arange(p, dtype=np.int64)[None, :]
        for m in range(1, p):
            s = FormalSum(m, ((one, t), (t + 2, one / (t + 1))), ("T",))
            mask, table = lhat_eval_grid(m, s, cols, p, points=p)
            horner = lhat_eval_grid(m, s, cols, p, points=p - 1)
            assert (horner[0] == mask).all() and (horner[1] == table).all()
            plain = FormalSum(m, ((one, t),), ("T",))
            values = lhat_eval_grid(m, plain, cols, p, points=1)[1]
            assert values.tolist() == list(_ltilde_prime_table(m, p))

    def test_frobenius_twist_on_coefficients(self):
        # over GF(p^2) the coefficient c enters as c^p, detectable because
        # frobenius is nontrivial there
        f = build_extension(5, 2)
        s = build("inversion", 5, n=1)  # [T] + T * [1/T]
        from finpolylog.fields import FieldElement

        x = FieldElement((2, 3), f)
        val = lhat_eval(1, s, {"T": x})
        assert val == ltilde(1, x) + x.frobenius() * ltilde(1, x.inverse())
        assert x.frobenius() != x  # the twist is actually visible


class TestSpecialValues:
    @pytest.mark.parametrize("p", (5, 7, 11, 13, 101))
    def test_table_has_no_mismatches(self, p):
        rows = special_values(p)
        assert all(r["status"] in ("ok", "logged") for r in rows)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101, 211))
    def test_power_sums_match_the_reference(self, p):
        at_one, at_minus_one = _unit_power_sums(p)
        assert at_one == [_polylog_at_unit(n, p, 1) for n in range(p)]
        assert at_minus_one == [_polylog_at_unit(n, p, -1) for n in range(p)]

    def test_power_sums_refuse_primes_past_int64(self):
        with pytest.raises(BadParams):
            _unit_power_sums(2147483659)

    def test_coefficient_table_refused_past_the_cap(self):
        # 10000019 - 1 entries pass DEFAULT_TERM_CAP
        for table in (lambda p: _inv_power_table(1, p), _unit_power_sums):
            with pytest.raises(SizeExceeded):
                table(10000019)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101))
    def test_values_at_one_and_minus_one_match_the_table(self, p):
        for n in range(1, p):
            table = _ltilde_prime_table(n, p)
            assert _polylog_at_unit(n, p, 1) == table[1]
            assert _polylog_at_unit(n, p, -1) == table[p - 1]

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101))
    def test_genocchi_rows_match_the_exact_numbers(self, p):
        rows = [r for r in special_values(p) if r["kind"] == "genocchi_at_minus_one"]
        assert [r["index"] for r in rows] == [1, *range(2, p - 1, 2)]
        for r in rows:
            mm = r["index"]
            assert r["expected"] == genocchi(mm) % p * pow(mm, -1, p) % p

    def test_logged_rows_are_only_index_one(self):
        rows = special_values(13)
        assert all(r["index"] == 1 for r in rows if r["status"] == "logged")

    @pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
    def test_kummer_congruence(self, p):
        for m in range(2, 11, 2):
            assert kummer_congruence(p, m)


class TestTau:
    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_tau_zero_is_tp_plus_one(self, p):
        q = tau(0, p)
        assert q.terms == {(p,): 1, (0,): 1}

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            tau(3, 7)


class TestRecipe:
    @pytest.mark.parametrize("p", (5, 7))
    def test_decompose_roundtrip(self, p):
        from finpolylog import SparsePoly

        q = finite_polylog(1, p) * finite_polylog(1, p)
        c0, q1, q2 = recipe_decompose(q, "T")
        stretched = SparsePoly(
            q.vars, q.domain, {(e[0] * p,): c for e, c in q2.terms.items()}
        )
        assert c0 + q1 + stretched == q

    def test_prove_zero_on_strong_equation(self):
        p = 5
        img = lhat_apply(1, build("feit", p))
        assert img.num.is_zero()
        assert recipe_prove_zero(img.num, "a")


def zero_argument_sum(p):
    """A hand-built weight-1 sum with argument 0, a constant argument and a
    coefficient with a denominator."""
    dom = PrimeDomain(p)
    names = ("a", "b")
    a, b = (RatFunc.variable(v, names, dom) for v in names)
    one = RatFunc.const(names, dom, 1)
    zero = RatFunc.const(names, dom, 0)
    terms = ((a / (one - b), zero), (one, b / (one + a)), (b, one), (-one, a))
    return FormalSum(1, terms, names)


class TestTwistedNumerators:
    """The numerator builder behind lhat_apply and equation_columns against
    sum_i c_i(pt)^p * P_w(x_i(pt)) computed pointwise with FieldElement."""

    @pytest.mark.parametrize(
        "eq_id, deg",
        (
            ("feit", 6),
            ("three_term", 7),
            ("three_term_classical", 6),
            ("zero_argument", 6),
        ),
    )
    def test_matches_pointwise_reference(self, eq_id, deg):
        # vectors of degree <= deg, padded with zeros to degree p
        p = 7
        s = zero_argument_sum(p) if eq_id == "zero_argument" else build(eq_id, p)
        rng = random.Random(deg)
        vectors = [[0] * (deg + 1), [3] + [0] * deg]
        for _ in range(3):
            vectors.append([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(deg)])
        vectors = [w + [0] * (p - deg) for w in vectors]
        factors, nums = twisted_numerators(s, vectors)
        nums = nums.polys(s.variables, s.domain)
        assert len(nums) == len(vectors)
        field = FieldDescriptor(p)
        checked = 0
        for coords in itertools.product(range(p), repeat=len(s.variables)):
            point = {v: field.element(k) for v, k in zip(s.variables, coords)}
            try:
                values = [(c.evaluate(point), x.evaluate(point)) for c, x in s.terms]
            except InadmissiblePoint:
                assert any(fac.evaluate(point) == 0 for fac, _mult in factors)
                continue
            for w, num in zip(vectors, nums):
                want = field.zero()
                for cv, xv in values:
                    pw = field.zero()
                    for wj in reversed(w):
                        pw = pw * xv + field.element(wj)
                    want = want + cv**p * pw
                got = RatFunc(num, factors, reduce=False).evaluate(point)
                assert got == want, (w, coords)
            checked += 1
        assert checked

    def test_only_zero_arguments_give_zero(self):
        p = 7
        s = zero_argument_sum(p)
        only_zero = FormalSum(1, s.terms[:1], s.variables)
        assert lhat_apply(1, only_zero).is_zero()

    def test_sparse_vectors_match_their_dense_form(self):
        p = 7
        s = build("three_term", p)
        rng = random.Random(5)
        dense = [[0] * (p + 1), [int(j == 3) for j in range(p + 1)]]
        dense += [[rng.randrange(p) * rng.randrange(2) for _ in range(p + 1)] for _ in range(3)]
        sparse = [SparseVector(p + 1, tuple((j, c) for j, c in enumerate(w) if c)) for w in dense]
        want = twisted_numerators(s, dense)[1].polys(s.variables, s.domain)
        assert twisted_numerators(s, sparse)[1].polys(s.variables, s.domain) == want

    @pytest.mark.parametrize("size", (7, 9))
    def test_a_sparse_vector_of_the_wrong_size_is_refused(self, size):
        p = 7
        s = build("feit", p)
        message = f"need {p + 1} coefficients, got {size}"
        for w in ([0] * (size - 1) + [1], SparseVector(size, ((size - 1, 1),))):
            with pytest.raises(BadParams, match=message):
                twisted_numerators(s, [w])


def doubled_first_coefficient(s):
    """``s`` with its first coefficient doubled: a sum whose strong check
    fails."""
    (c, x), *rest = s.terms
    return replace(s, terms=((c * 2, x), *rest))


def polylog_numerator(s, deg):
    """Denominator factors and numerator of the twisted sum read through
    the polylog at degree ``deg`` >= p - 1, zero-padded past p - 1, built
    through clear_denominators and homogenized_sums at that degree."""
    factors, terms = clear_denominators(s, deg)
    terms = [(x.num, x.den, ((cfn, 1), *cofactors)) for cfn, x, cofactors in terms]
    vector = polylog_vector(s.weight, s.domain.p, deg)
    nums = homogenized_sums(terms, deg, [vector], s.variables, s.domain)
    (num,) = nums.polys(s.variables, s.domain)
    return factors, num


class TestFrobeniusDegree:
    """lhat_apply reads a strong check at degree p, where the argument
    denominators d^p = d(x^p) and every cofactor are Frobenius images.
    Each term's numerator gains a factor d at degree p, so the degree-p
    numerator is N * L, N the degree-(p-1) numerator and
    L = prod f^(M'_f - M_f) the quotient of the two common denominators:
    both readings are the same rational function."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_when_degree_p_minus_1_is(self, p):
        # the failing sums below are nonzero at both degrees
        for eq_id, params in STRONG_SUITE:
            s = build(eq_id, p, **params)
            assert polylog_numerator(s, p)[1].is_zero(), eq_id
            assert polylog_numerator(s, p - 1)[1].is_zero(), eq_id

    @pytest.mark.parametrize("p", (5, 7, 11))
    def test_failing_numerator_is_n_times_l(self, p):
        # not through exact_divide: its step guard gives up on a quotient
        # much larger than the dividend (five_term_v1 at p=11: N has
        # 208,960 terms, N * L 4,200)
        for eq_id, params in STRONG_SUITE:
            s = doubled_first_coefficient(build(eq_id, p, **params))
            factors, want = polylog_numerator(s, p)
            lower, num = polylog_numerator(s, p - 1)
            assert not num.is_zero(), eq_id
            lower = {f.serialize(): k for f, k in lower}
            # schoolbook products, one factor of L at a time
            for f, k in factors:
                extra = k - lower.pop(f.serialize(), 0)
                assert extra >= 0, eq_id
                for _ in range(extra):
                    num = _mul_schoolbook(num, f)
            assert not lower, eq_id
            assert num == want, eq_id

    def test_failing_residual_is_the_degree_p_minus_1_function(self):
        s = doubled_first_coefficient(build("five_term_v1", 7))
        image = lhat_apply(s.weight, s)
        factors, num = polylog_numerator(s, 6)
        assert len(num.terms) == 22120
        assert image == RatFunc(num, factors, reduce=False)  # by cross-multiplication
        assert verify_strong(s).residual_terms == len(image.num.terms)

    @pytest.mark.parametrize("double", (False, True))
    def test_one_build_per_strong_check(self, double, monkeypatch):
        calls = []
        numerators = finlog.twisted_numerators

        def counting(s, vectors):
            calls.append(1)
            return numerators(s, vectors)

        monkeypatch.setattr(finlog, "twisted_numerators", counting)
        s = build("five_term_v1", 7)
        if double:
            s = doubled_first_coefficient(s)
        assert verify_strong(s).holds is not double
        assert len(calls) == 1

    @pytest.mark.parametrize("eq_id, p", (("five_term_v1", 29), ("cathelineau_J", 61)))
    def test_reach(self, eq_id, p):
        # at degree p-1, five_term_v1 at p=29 is refused once a product
        # with a dense cofactor passes the term cap
        assert verify_strong(build(eq_id, p)).holds


class TestPowerSizeGuard:
    """The powers of the arguments are refused before they outgrow the term
    cap: two_term at p=211 needs about 45,000 terms of powers of 1-x."""

    CAP = 10**4

    def test_strong_check_raises(self, monkeypatch):
        monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", self.CAP)
        with pytest.raises(SizeExceeded):
            verify_strong(build("two_term", 211))
        assert verify_strong(build("two_term", 31)).holds

    def test_cli_exits_2_without_traceback(self, monkeypatch, capsys):
        monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", self.CAP)
        code = main(["verify", "--eq", "two_term", "--p", "211", "--mode", "strong"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


class TestEarlyRefusal:
    """Strong checks that cannot pass the guards are refused before the
    p-1 entry coefficient table is built."""

    @pytest.mark.parametrize(
        "p, error", ((2147483659, BadParams), (3000017, SizeExceeded))
    )
    def test_refused_before_the_coefficient_table(self, monkeypatch, p, error):
        s = build("two_term", p)

        def table(m, p):
            raise AssertionError("the coefficient table was built")

        monkeypatch.setattr(finlog, "_inv_power_table", table)
        with pytest.raises(error):
            lhat_apply(1, s)


def test_builder_makes_no_polynomial_sums(monkeypatch):
    """The numerator builder stays packed: no SparsePoly addition runs."""
    s = build("inversion", 101, n=1)
    calls = []
    add = SparsePoly.__add__

    def counting_add(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(SparsePoly, "__add__", counting_add)
    monkeypatch.setattr(SparsePoly, "__radd__", counting_add)
    assert lhat_apply(1, s).is_zero()
    assert not calls
