import pytest
from hypothesis import given, settings, strategies as st

from finpolylog import (
    BadParams,
    FormalSum,
    RatFunc,
    build,
    derive,
    derived_equals,
    normalize_mod_inversion,
    parse_derivation,
    standard_derivation,
    verify_strong,
    verify_weak,
)
from finpolylog.derivation import (
    MAX_PARSED_EXPONENT,
    apply_derivation,
    parse_rational_expression,
)
from finpolylog.errors import SizeExceeded
from finpolylog.poly import PrimeDomain


class TestDerivationOperator:
    def test_standard_derivation_on_generators(self):
        p = 7
        d = standard_derivation(("a", "b"), p)
        a = RatFunc.variable("a", ("a", "b"), PrimeDomain(p))
        assert apply_derivation(d, a) == a * (1 - a)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3))
    @settings(max_examples=40)
    def test_leibniz_rule(self, c1, c2, e):
        p = 7
        d = standard_derivation(("a", "b"), p)
        a = RatFunc.variable("a", ("a", "b"), PrimeDomain(p))
        b = RatFunc.variable("b", ("a", "b"), PrimeDomain(p))
        f = c1 * a + b ** (e + 1)
        g = c2 * b + a * a
        lhs = apply_derivation(d, f * g)
        rhs = apply_derivation(d, f) * g + f * apply_derivation(d, g)
        assert lhs == rhs

    def test_linearity(self):
        p = 7
        d = standard_derivation(("a",), p)
        a = RatFunc.variable("a", ("a",), PrimeDomain(p))
        f, g = a * a, 1 / (a + 1)
        assert apply_derivation(d, f + g) == apply_derivation(d, f) + apply_derivation(d, g)

    def test_quotient_consistency(self):
        p = 7
        d = standard_derivation(("a",), p)
        a = RatFunc.variable("a", ("a",), PrimeDomain(p))
        r = (a + 2) / (a * a + 1)
        assert apply_derivation(d, r * (a * a + 1)) == (
            apply_derivation(d, a + 2)
        )  # holds because D(r * q) = D(a+2) and D is a derivation
        # cross-check via Leibniz:
        q = a * a + 1
        assert apply_derivation(d, r) * q + r * apply_derivation(d, q) == apply_derivation(d, a + 2)


class TestDerivePipeline:
    def test_five_term_derives_to_four_term(self):
        p = 7
        classical = build("five_term_classical", p)
        derived, notices = derive(classical, standard_derivation(classical.variables, p))
        assert derived.weight == classical.weight - 1
        target = build("feit", p)
        same, scalar, chain = derived_equals(derived, target)
        assert same and scalar == RatFunc.const(target.variables, target.domain, 1)

    def test_goncharov_derives_to_catalog_entry(self):
        p = 7
        classical = build("goncharov_classical", p)
        derived, notices = derive(classical, standard_derivation(classical.variables, p))
        target = build("derived_goncharov", p)
        same, scalar, chain = derived_equals(derived, target)
        assert same

    @pytest.mark.parametrize(
        "eq_id",
        (
            "two_term_classical",
            "five_term_classical",
            "five_term_cocycle",
            "three_term_classical",
            "kummer_spence_classical",
        ),
    )
    def test_derived_equations_weak_vanish(self, eq_id):
        p = 7
        classical = build(eq_id, p)
        derived, _ = derive(classical, standard_derivation(classical.variables, p))
        assert verify_weak(derived, p).holds

    def test_constant_arguments_are_dropped_with_notice(self):
        p = 7
        dom = PrimeDomain(p)
        one = RatFunc.const(("a",), dom, 1)
        a = RatFunc.variable("a", ("a",), dom)
        s = FormalSum(2, ((one, one), (one, a)), ("a",))
        derived, notices = derive(s, standard_derivation(("a",), p))
        assert len(notices) == 1 and len(derived) == 1

    def test_non_equation_is_detected(self):
        p = 7
        dom = PrimeDomain(p)
        a = RatFunc.variable("a", ("a", "b"), dom)
        b = RatFunc.variable("b", ("a", "b"), dom)
        one = RatFunc.const(("a", "b"), dom, 1)
        junk = FormalSum(2, ((one, a * b),), ("a", "b"))
        derived, _ = derive(junk, standard_derivation(("a", "b"), p))
        v = verify_weak(derived, p)
        assert not v.holds and v.counterexample is not None


class TestExpressionParsing:
    def test_parse_simple(self):
        p = 11
        f = parse_rational_expression("a*(1-a)", ("a", "b"), p)
        a = RatFunc.variable("a", ("a", "b"), PrimeDomain(p))
        assert f == a * (1 - a)

    def test_parse_derivation_fills_missing_vars_with_zero(self):
        p = 11
        d = parse_derivation("a:a*(1-a)", ("a", "b"), p)
        m = d.as_map()
        assert m["b"].is_zero()

    def test_parse_rejects_calls_and_names(self):
        with pytest.raises(BadParams):
            parse_rational_expression("__import__('os')", ("a",), 7)
        with pytest.raises(BadParams):
            parse_rational_expression("c + 1", ("a",), 7)

    def test_exponent_bound(self):
        a = RatFunc.variable("a", ("a", "b"), PrimeDomain(7))
        bound = MAX_PARSED_EXPONENT
        assert parse_rational_expression(f"a**{bound}", ("a", "b"), 7) == a**bound
        for text in (f"a**{bound + 1}", "(a*b+a+2)**123456789"):
            with pytest.raises(SizeExceeded):
                parse_rational_expression(text, ("a", "b"), 7)

    def test_parsed_derivation_matches_standard(self):
        p = 11
        d1 = parse_derivation("a:a*(1-a);b:b*(1-b)", ("a", "b"), p)
        d2 = standard_derivation(("a", "b"), p)
        assert d1.as_map() == d2.as_map()
