"""Substitution, merging and the shared J sum against their reference paths.

The references are the term-by-term substitution through RatFunc products,
sums and quotients, equality by cross-multiplication alone, and the
pairwise merge that compares each argument with every earlier group.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finpolylog import catalog
from finpolylog.errors import BadParams, DomainMismatch, ZeroDenominator
from finpolylog.formal import FormalSum
from finpolylog.poly import PrimeDomain, RationalDomain, RatFunc, SparsePoly

VARS = ("x", "y")
TARGET = ("s", "t")
DOMAINS = (PrimeDomain(7), RationalDomain())


def substitute_reference(poly, assignments):
    """Term-by-term SparsePoly substitution through RatFunc arithmetic."""
    if not assignments:
        return RatFunc(poly)
    sample = next(iter(assignments.values()))
    tvars, tdom = sample.num.vars, sample.num.domain
    for rf in assignments.values():
        if rf.num.vars != tvars or rf.num.domain != tdom:
            raise DomainMismatch("inconsistent substitution targets")
    if tdom != poly.domain:
        raise DomainMismatch("substitution changes the coefficient domain")
    values = {}
    for v in poly.vars:
        if v in assignments:
            values[v] = assignments[v]
        else:
            if v not in tvars:
                raise DomainMismatch(f"variable {v!r} missing from target universe")
            values[v] = RatFunc(SparsePoly.variable(v, tvars, tdom))
    acc = RatFunc(SparsePoly.zero(tvars, tdom))
    for e, c in poly.terms.items():
        term = RatFunc(SparsePoly.const(tvars, tdom, c))
        for v, k in zip(poly.vars, e):
            if k:
                term = term * values[v] ** k
        acc = acc + term
    return acc


def ratfunc_substitute_reference(rf, assignments):
    result = substitute_reference(rf.num, assignments)
    for fac, mult in rf.factors:
        fr = substitute_reference(fac, assignments)
        if fr.is_zero():
            raise ZeroDenominator("substitution kills a denominator factor")
        result = result / fr**mult
    return result


def equal_reference(a, b):
    """RatFunc equality by cross-multiplication alone."""
    if isinstance(b, (int, Fraction)):
        b = RatFunc.const(a.num.vars, a.num.domain, b)
    if not isinstance(b, RatFunc):
        return NotImplemented
    if a.num.vars != b.num.vars or a.num.domain != b.num.domain:
        return False
    return (a.num * b.den) == (b.num * a.den)


def merged_reference(s):
    """Pairwise merge: each argument against every earlier group."""
    groups = []
    for c, x in s.terms:
        for g in groups:
            if equal_reference(g[0], x):
                g[1] = g[1] + c
                break
        else:
            groups.append([x, c])
    terms = tuple((c, x) for x, c in groups if not c.is_zero())
    return FormalSum(s.weight, terms, s.variables, label=s.label)


@pytest.fixture
def reference_paths(monkeypatch):
    """Route substitution, equality and merging through the references and
    build J afresh on every call."""
    monkeypatch.setattr(SparsePoly, "substitute", substitute_reference)
    monkeypatch.setattr(RatFunc, "substitute", ratfunc_substitute_reference)
    monkeypatch.setattr(RatFunc, "__eq__", equal_reference)
    monkeypatch.setattr(FormalSum, "merged", merged_reference)
    fresh_j = catalog._b_cathelineau_J.__wrapped__
    monkeypatch.setattr(catalog, "_b_cathelineau_J", fresh_j)
    monkeypatch.setitem(catalog.CATALOG["cathelineau_J"], "builder", fresh_j)


# -- strategies ---------------------------------------------------------------


def coefficients(domain):
    if domain.kind == "prime":
        return st.integers(0, domain.p - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polys(domain, variables, max_terms=4, max_exp=2):
    term = st.tuples(
        st.tuples(*(st.integers(0, max_exp) for _ in variables)),
        coefficients(domain),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: SparsePoly(variables, domain, dict(ts))
    )


def _irreducibles(domain, variables):
    """Distinct monic irreducible polynomials: the variables, their shifts
    by 1, their difference and their product minus 1."""
    u, w = (SparsePoly.variable(v, variables, domain) for v in variables)
    return [u, w, u + 1, w + 1, u - w, u * w - 1]


def ratfuncs(domain, variables, coprime=False):
    """Random rational functions; with ``coprime`` the factors are distinct
    irreducibles, so the reduced form is unique."""
    if coprime:
        factor = st.sampled_from(_irreducibles(domain, variables))
        factors = st.lists(
            st.tuples(factor, st.integers(1, 2)),
            max_size=3,
            unique_by=lambda fm: fm[0].serialize(),
        )
    else:
        nonconstant = polys(domain, variables, max_terms=3, max_exp=1).filter(
            lambda f: not f.is_constant()
        )
        factors = st.lists(st.tuples(nonconstant, st.integers(1, 2)), max_size=2)
    return st.builds(RatFunc, polys(domain, variables), factors)


@st.composite
def substitution_cases(draw, coprime=False):
    """A rational function over VARS and values for some of its variables,
    over TARGET or over VARS itself (unassigned variables map to
    themselves)."""
    domain = draw(st.sampled_from(DOMAINS))
    rf = draw(ratfuncs(domain, VARS, coprime))
    target = draw(st.sampled_from((VARS, TARGET)))
    names = draw(st.sampled_from((VARS, ("x",)) if target == VARS else (VARS,)))
    assignments = {v: draw(ratfuncs(domain, target, coprime)) for v in names}
    return rf, assignments


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ZeroDenominator, DomainMismatch) as exc:
        return type(exc)


def _same(got, want, exact):
    if isinstance(got, RatFunc) and isinstance(want, RatFunc):
        return got.serialize() == want.serialize() if exact else equal_reference(got, want)
    return got == want


class TestSubstitutionMatchesReference:
    """With distinct irreducible factors the reduced form is unique and both
    paths serialize alike; with arbitrary factors the reduction may stop at
    another representation of the same function."""

    @pytest.mark.parametrize("coprime", (True, False))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_polynomial(self, coprime, data):
        rf, assignments = data.draw(substitution_cases(coprime))
        got = _outcome(SparsePoly.substitute, rf.num, assignments)
        want = _outcome(substitute_reference, rf.num, assignments)
        assert _same(got, want, coprime)

    @pytest.mark.parametrize("coprime", (True, False))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_rational_function(self, coprime, data):
        rf, assignments = data.draw(substitution_cases(coprime))
        got = _outcome(RatFunc.substitute, rf, assignments)
        want = _outcome(ratfunc_substitute_reference, rf, assignments)
        assert _same(got, want, coprime)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_constants_and_zero(self, domain):
        s = RatFunc.variable("s", TARGET, domain)
        for poly in (SparsePoly.zero(VARS, domain), SparsePoly.const(VARS, domain, 3)):
            got = poly.substitute({"x": s, "y": 1 / s})
            assert got.serialize() == substitute_reference(poly, {"x": s, "y": 1 / s}).serialize()

    def test_empty_assignment(self):
        x = RatFunc.variable("x", VARS, DOMAINS[0])
        rf = (x + 1) / (x * x - 2) ** 2
        assert rf.substitute({}).serialize() == ratfunc_substitute_reference(rf, {}).serialize()


class TestSubstitutionErrors:
    """The one-pass path raises what the term-by-term path raises."""

    def _cases(self):
        gf7, qq = DOMAINS
        x = RatFunc.variable("x", VARS, gf7)
        y = RatFunc.variable("y", VARS, gf7)
        s = RatFunc.variable("s", TARGET, gf7)
        return [
            # a factor vanishes
            (1 / (x - y), {"y": x}, ZeroDenominator),
            (x / (x * y - 1), {"x": s, "y": 1 / s}, ZeroDenominator),
            # values over different universes
            (x + y, {"x": s, "y": x}, DomainMismatch),
            # values over another domain
            (x + y, {"x": RatFunc.variable("x", VARS, qq)}, DomainMismatch),
            (x + y, {"x": RatFunc.variable("x", VARS, PrimeDomain(5))}, DomainMismatch),
            # y is unassigned and missing from the values' universe
            (x + y, {"x": s}, DomainMismatch),
            (1 / (x + y), {"x": s}, DomainMismatch),
        ]

    def test_same_error_types(self):
        for rf, assignments, error in self._cases():
            with pytest.raises(error):
                rf.substitute(assignments)
            with pytest.raises(error):
                ratfunc_substitute_reference(rf, assignments)

    def test_polynomial_errors(self):
        for rf, assignments, error in self._cases():
            if error is DomainMismatch:
                with pytest.raises(DomainMismatch):
                    rf.num.substitute(assignments)


# -- merging and equality -------------------------------------------------------


def _routes(x, f):
    """x itself and x rebuilt along other routes through f, including one
    that keeps a factor x + y + 1 on both sides of the fraction."""
    u, w = (SparsePoly.variable(v, VARS, x.num.domain) for v in VARS)
    g = u + w + 1
    unreduced = RatFunc(x.num * g, x.factors + ((g, 1),), reduce=False)
    return [x, (x * f) / f, (x + f) - f, x * 1, -(-x), unreduced]


@st.composite
def sums_with_duplicates(draw):
    domain = draw(st.sampled_from(DOMAINS))
    pool = draw(st.lists(ratfuncs(domain, VARS), min_size=1, max_size=4))
    pool.append(RatFunc.const(VARS, domain, draw(coefficients(domain))))
    f = draw(ratfuncs(domain, VARS).filter(lambda r: not r.is_zero()))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        arg = draw(st.sampled_from(pool))
        arg = draw(st.sampled_from(_routes(arg, f)))
        coeff = RatFunc.const(VARS, domain, draw(coefficients(domain)))
        terms.append((coeff, arg))
    return FormalSum(2, tuple(terms), VARS)


class TestMergeMatchesReference:
    @given(sums_with_duplicates())
    @settings(max_examples=150, deadline=None)
    def test_merged(self, s):
        assert s.merged().serialize() == merged_reference(s).serialize()

    @given(sums_with_duplicates())
    @settings(max_examples=100, deadline=None)
    def test_equality_and_signature(self, s):
        for _c1, a in s.terms:
            for _c2, b in s.terms:
                same = equal_reference(a, b)
                assert (a == b) is same
                if same:
                    assert a.leading_signature() == b.leading_signature()

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_routes_share_a_signature(self, domain):
        x = RatFunc.variable("x", VARS, domain)
        y = RatFunc.variable("y", VARS, domain)
        f = (x - y) / (x + 2)
        for arg in (x, x / (y + 1), RatFunc.const(VARS, domain, 3)):
            for other in _routes(arg, f):
                assert other == arg
                assert other.leading_signature() == arg.leading_signature()
        assert RatFunc.const(VARS, domain, 0).leading_signature() is None


# -- the catalog ------------------------------------------------------------------


def _catalog_serializations(p):
    out = {}
    for eq_id in catalog.catalog_ids():
        variants = [{}]
        if eq_id == "j_specialization":
            variants = [{"c": c} for c in catalog.J_SPECIALIZATION_KEYS]
        for params in variants:
            try:
                s = catalog.build(eq_id, p, **params)
            except BadParams:
                continue
            out[eq_id, tuple(params.values())] = s.serialize()
    return out


@pytest.mark.parametrize("p", (0, 5, 7, 11, 13))
def test_catalog_matches_the_reference_paths(p, request):
    new = _catalog_serializations(p)
    request.getfixturevalue("reference_paths")
    old = _catalog_serializations(p)
    assert new == old
    assert sum(key[0] == "j_specialization" for key in new) == len(
        catalog.J_SPECIALIZATION_KEYS
    )


class TestSharedJ:
    @pytest.mark.parametrize("p", (0, 5, 7))
    def test_builds_in_any_order_serialize_alike(self, p):
        fresh = catalog._b_cathelineau_J.__wrapped__
        want = {"J": fresh(p).serialize()}
        for c in catalog.J_SPECIALIZATION_KEYS:
            want[c] = catalog._b_j_specialization(p, c).serialize()
        rng = random.Random(p)
        for _ in range(3):
            catalog._b_cathelineau_J.cache_clear()
            order = ["J", *catalog.J_SPECIALIZATION_KEYS, "J"]
            rng.shuffle(order)
            for key in order:
                if key == "J":
                    got = catalog.build("cathelineau_J", p)
                else:
                    got = catalog.build("j_specialization", p, c=key)
                assert got.serialize() == want[key]

    def test_the_sum_is_built_once_per_prime(self):
        catalog._b_cathelineau_J.cache_clear()
        assert catalog.build("cathelineau_J", 5) is catalog.build("cathelineau_J", 5)
        assert catalog.build("cathelineau_J", 5) is not catalog.build("cathelineau_J", 7)
