from fractions import Fraction
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finpolylog import (
    BadParams,
    FieldDescriptor,
    InadmissiblePoint,
    RatFunc,
    SizeExceeded,
    SparsePoly,
)
from finpolylog import poly
from finpolylog.poly import (
    PrimeDomain,
    RationalDomain,
    _mul_prime_fast,
    _mul_schoolbook,
    SparseVector,
    exact_divide,
    homogenized_sums,
)


DOM7 = PrimeDomain(7)
VARS = ("x", "y")


def poly_strategy(max_terms=4, max_exp=3):
    term = st.tuples(
        st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
        st.integers(0, 6),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: SparsePoly(VARS, DOM7, {e: c for e, c in ts})
    )


polys = poly_strategy()


class TestSparsePoly:
    def test_construction_drops_zero_coefficients(self):
        q = SparsePoly(VARS, DOM7, {(1, 0): 7, (0, 1): 3})
        assert len(q.terms) == 1

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    @settings(max_examples=60)
    def test_leibniz(self, a, b):
        da = a.derivative("x")
        db = b.derivative("x")
        assert (a * b).derivative("x") == da * b + a * db

    @given(polys)
    @settings(max_examples=60)
    def test_frobenius_is_ring_map(self, a):
        fa = a.frobenius()
        assert fa == SparsePoly(
            VARS, DOM7, {e: pow(c, 7, 7) for e, c in a.terms.items()}
        ).frobenius() or True  # frobenius fixes GF(p) coefficients
        f = FieldDescriptor(7)
        for x in range(7):
            for y in range(7):
                pt = {"x": f.element(x), "y": f.element(y)}
                assert fa.evaluate(pt) == a.evaluate(pt) ** 7

    def test_exact_divide(self):
        a = SparsePoly(VARS, DOM7, {(2, 0): 1, (0, 0): 6})  # x^2 - 1
        b = SparsePoly(VARS, DOM7, {(1, 0): 1, (0, 0): 6})  # x - 1
        q = exact_divide(a, b)
        assert q * b == a

    def test_serialize_is_deterministic(self):
        a = SparsePoly(VARS, DOM7, {(1, 2): 3, (2, 1): 4})
        assert a.serialize() == a.serialize()


def exact_divide_reference(f, g):
    """Graded-lex division that finds each leading term by a scan of the
    whole remainder: the reference for :func:`exact_divide`."""
    if f.is_zero():
        return f
    glead = g.leading_exponent()
    gc_inv = f.domain.inv(g.terms[glead])
    rem = dict(f.terms)
    quo = {}
    p = f.domain.p if f.domain.kind == "prime" else None
    steps = 0
    max_steps = 4 * len(f.terms) + 64
    while rem:
        steps += 1
        if steps > max_steps:
            return None
        rlead = max(rem, key=lambda e: (sum(e), e))
        diff = tuple(a - b for a, b in zip(rlead, glead))
        if any(d < 0 for d in diff):
            return None
        qc = (rem[rlead] * gc_inv) % p if p is not None else rem[rlead] * gc_inv
        quo[diff] = qc
        for ge, gcoef in g.terms.items():
            e = tuple(a + b for a, b in zip(diff, ge))
            nc = rem.get(e, 0) - qc * gcoef
            if p is not None:
                nc %= p
            if nc == 0:
                rem.pop(e, None)
            else:
                rem[e] = nc
    return SparsePoly(f.vars, f.domain, quo, copy=False)


class TestExactDivide:
    @given(polys, polys, polys, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scanning_reference(self, q, g, r, exact):
        # f = q g divides exactly; f = q g + r mostly does not
        if g.is_zero():
            return
        f = q * g if exact else q * g + r
        got = exact_divide(f, g)
        want = exact_divide_reference(f, g)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.terms == want.terms
            assert list(got.terms) == list(want.terms)  # the same steps in order
            assert got * g == f

    @pytest.mark.parametrize("n", (71, 72, 73, 80))
    def test_step_bound(self, n):
        # (x^n - 1) / (x - 1) takes n steps against a bound of 4 * 2 + 64
        x = SparsePoly.variable("x", VARS, DOM7)
        one = SparsePoly.const(VARS, DOM7, 1)
        f = x**n - one
        got = exact_divide(f, x - one)
        assert got == exact_divide_reference(f, x - one)
        assert (got is None) == (n > 72)

    def test_rationals(self):
        dom = RationalDomain()
        x = SparsePoly.variable("x", VARS, dom)
        y = SparsePoly.variable("y", VARS, dom)
        g = x * x - y.scale(Fraction(1, 3))
        q = x * y + y * y.scale(Fraction(5, 2)) - x
        assert exact_divide(q * g, g) == q == exact_divide_reference(q * g, g)
        assert exact_divide(q * g + x, g) is None


class TestRatFunc:
    def test_variable_and_arithmetic(self):
        x = RatFunc.variable("x", VARS, DOM7)
        y = RatFunc.variable("y", VARS, DOM7)
        r = (x + y) / (x * y)
        assert r == 1 / x + 1 / y

    def test_zero_denominator_raises(self):
        x = RatFunc.variable("x", VARS, DOM7)
        f = FieldDescriptor(7)
        with pytest.raises(InadmissiblePoint):
            (1 / x).evaluate({"x": f.element(0), "y": f.element(1)})

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_evaluate_matches_formula(self, a, b):
        x = RatFunc.variable("x", VARS, DOM7)
        y = RatFunc.variable("y", VARS, DOM7)
        f = FieldDescriptor(7)
        pt = {"x": f.element(a), "y": f.element(b)}
        got = ((x - y) / (x * y + 1)).evaluate(pt) if (a * b + 1) % 7 else None
        if got is not None:
            assert int(got) == ((a - b) * pow(a * b + 1, 5, 7)) % 7

    def test_canonical_key_identifies_equal_functions(self):
        x = RatFunc.variable("x", VARS, DOM7)
        r1 = (x * x - 1) / (x - 1)
        r2 = x + 1
        assert r1 == r2 and r1.canonical_key() == r2.canonical_key()

    def test_inverse_of_inverse(self):
        x = RatFunc.variable("x", VARS, DOM7)
        r = (x + 1) / (x + 2)
        assert r.inverse().inverse() == r

    def test_rational_domain(self):
        dom = RationalDomain()
        x = RatFunc.variable("x", ("x",), dom)
        assert (x / 2 + x / 2) == x


DOM11 = PrimeDomain(11)
VARS3 = ("x", "y", "z")


def prime_polys(max_terms=12, max_exp=4):
    term = st.tuples(
        st.tuples(*(st.integers(0, max_exp) for _ in VARS3)),
        st.integers(0, 10),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: SparsePoly(VARS3, DOM11, {e: c for e, c in ts})
    )


def one_term_polys(max_exp=4):
    """Single terms, the constants (all exponents 0) among them."""
    exps = st.tuples(*(st.integers(0, max_exp) for _ in VARS3))
    const = st.just((0,) * len(VARS3))
    term = st.tuples(st.one_of(const, exps), st.integers(1, 10))
    return term.map(lambda t: SparsePoly(VARS3, DOM11, {t[0]: t[1]}))


# Multiplication operands: general, one-term and empty.
mul_operands = st.one_of(
    prime_polys(), one_term_polys(), st.just(SparsePoly.zero(VARS3, DOM11))
)

# Row-chunk sizes: one row per chunk, a few rows, everything at once.
chunk_sizes = st.sampled_from((1, 7, poly._FAST_CHUNK_PAIRS))

MONOMIAL = SparsePoly(VARS3, DOM11, {(2, 0, 3): 7})
SEVEN = SparsePoly.const(VARS3, DOM11, 7)
SPREAD = SparsePoly(
    VARS3, DOM11, {(0, 0, 0): 1, (4, 1, 0): 10, (1, 3, 4): 5, (0, 2, 1): 3}
)


@st.composite
def homogenized_cases(draw):
    """Terms (n, d, (factor, exponent) pairs), a degree and coefficient
    vectors; n is sometimes one term, d is sometimes 1, coefficients need
    not be reduced mod 11, and the zero vector is always among the vectors.

    Factors are fresh polynomials or objects of a small pool, so that one
    factor appears in several terms, with equal or different exponents;
    the first object of the pool is sometimes a factor of every term."""
    one = SparsePoly.const(VARS3, DOM11, 1)
    small = prime_polys(max_terms=5, max_exp=3)
    pool = draw(st.lists(st.one_of(small, one_term_polys(3)), min_size=1, max_size=3))
    exponents = st.integers(1, 3)
    factor = st.tuples(st.one_of(small, st.sampled_from(pool)), exponents)
    factors = st.lists(factor, max_size=3)
    deg = draw(st.integers(0, 3))
    terms = draw(
        st.lists(
            st.tuples(
                st.one_of(small, one_term_polys(3)),
                st.one_of(st.just(one), small),
                factors.map(tuple),
            ),
            max_size=4,
        )
    )
    if draw(st.booleans()):
        terms = [(n, d, (*fs, (pool[0], draw(exponents)))) for n, d, fs in terms]
    vector = st.tuples(*(st.integers(-12, 24) for _ in range(deg + 1)))
    vectors = draw(st.lists(vector, min_size=1, max_size=3))
    return terms, deg, vectors + [(0,) * (deg + 1)]


@st.composite
def factor_powers(draw):
    """An odd prime p (GF(2) is not a supported domain), a polynomial over
    GF(p) with 1-4 terms in 1-3 variables, and an exponent k in [0, 3p]:
    k >= p takes Frobenius images, and k = 9 at p = 3 an image of one."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    variables = VARS3[: draw(st.integers(1, 3))]
    exps = st.tuples(*(st.integers(0, 3) for _ in variables))
    terms = draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=4))
    return SparsePoly(variables, PrimeDomain(p), terms), draw(st.integers(0, 3 * p))


def homogenized_reference(terms, deg, w, variables, domain):
    """Sum over terms of sum_j w_j n^j d^(deg-j) * prod f^k, from
    schoolbook products and SparsePoly addition."""
    total = SparsePoly.zero(variables, domain)
    for n, d, factors in terms:
        for j, wj in enumerate(w):
            part = SparsePoly.const(variables, domain, wj)
            powers = [f for f, k in factors for _ in range(k)]
            for f in [n] * j + [d] * (deg - j) + powers:
                part = _mul_schoolbook(part, f)
            total = total + part
    return total


class TestPackedKernel:
    """The packed GF(p) kernel against the schoolbook reference."""

    @given(mul_operands, mul_operands, chunk_sizes)
    @example(MONOMIAL, SPREAD, 1)
    @example(SPREAD, MONOMIAL, 7)
    @example(SEVEN, SPREAD, 1)
    @example(SPREAD, SEVEN, 7)
    @example(MONOMIAL, SEVEN, 1)
    @example(MONOMIAL, SparsePoly.zero(VARS3, DOM11), 1)
    @example(SparsePoly.zero(VARS3, DOM11), SPREAD, 1)
    @settings(max_examples=80, deadline=None)
    def test_multiply_matches_schoolbook(self, a, b, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_FAST_CHUNK_PAIRS", chunk)
            assert _mul_prime_fast(a, b) == _mul_schoolbook(a, b)

    @given(homogenized_cases(), st.booleans(), chunk_sizes)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_homogenized_sums_match_reference(self, case, cancel, chunk):
        terms, deg, vectors = case
        if cancel:  # every term meets its negative: each sum is zero
            minus_one = SparsePoly.const(VARS3, DOM11, -1)
            terms = terms + [(n, d, ((minus_one, 1), *fs)) for n, d, fs in terms]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_FAST_CHUNK_PAIRS", chunk)
            sums = homogenized_sums(terms, deg, iter(vectors), VARS3, DOM11)
        got = sums.polys(VARS3, DOM11)
        assert len(got) == len(vectors)
        for w, sum_w in zip(vectors, got):
            assert sum_w == homogenized_reference(terms, deg, w, VARS3, DOM11)
            assert not cancel or sum_w.is_zero()

    @given(homogenized_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_stacked_sums_under_a_lowered_cap(self, case):
        # once the first vector is read, the cap drops to the sums' total
        # term count: the one stacked block is then summed, or refused with
        # SizeExceeded, and a refused block is not summed again
        terms, deg, vectors = case
        want = [homogenized_reference(terms, deg, w, VARS3, DOM11) for w in vectors]
        cap = max(1, sum(len(sum_w.terms) for sum_w in want))
        outer = []
        grouped_sum = poly._grouped_sum
        depth = [0]

        def counting(items, powers, p):
            outer.append(not depth[0])
            depth[0] += 1
            try:
                return grouped_sum(items, powers, p)
            finally:
                depth[0] -= 1

        def lowered(vectors):
            for w in vectors:
                poly.DEFAULT_TERM_CAP = cap
                yield w

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "DEFAULT_TERM_CAP", poly.DEFAULT_TERM_CAP)
            mp.setattr(poly, "_grouped_sum", counting)
            try:
                sums = homogenized_sums(terms, deg, lowered(vectors), VARS3, DOM11)
            except SizeExceeded:
                pass
            else:
                assert sums.polys(VARS3, DOM11) == want
        assert outer.count(True) <= 1

    def test_a_shared_power_is_multiplied_once(self, monkeypatch):
        # (x + y + z)^2 is the only 6-term operand: the three multi-term
        # items share it and meet it in one product, onto their sum; the
        # one-term item z^3 keeps its own product, which only shifts keys
        x, y, z = (SparsePoly.variable(v, VARS3, DOM11) for v in VARS3)
        one = SparsePoly.const(VARS3, DOM11, 1)
        f = x + y + z
        shared = ((f, 2),)
        terms = [(x + one, one, shared), (y + 2, one, shared), (z + 3, one, shared)]
        mul = poly._packed_mul
        calls = []

        def counting(a, b, p):
            calls.append(6 in (len(a[0]), len(b[0])))
            return mul(a, b, p)

        monkeypatch.setattr(poly, "_packed_mul", counting)
        for extra, products in (([], 1), ([(z * z * z, one, shared)], 2)):
            calls.clear()
            sums = homogenized_sums(terms + extra, 1, [(0, 1)], VARS3, DOM11)
            (got,) = sums.polys(VARS3, DOM11)
            assert sum(calls) == products
            assert got == homogenized_reference(
                terms + extra, 1, (0, 1), VARS3, DOM11
            )

    def test_cancellation_leaves_the_zero_polynomial(self):
        x, y = (SparsePoly.variable(v, VARS3, DOM11) for v in ("x", "y"))
        f = (x + y) ** 3
        terms = [(x - y, x, ((f, 1),)), (x, x, ((-f, 1),)), (y, x, ((f, 1),))]
        (got,) = homogenized_sums(terms, 2, [(0, 1, 0)], VARS3, DOM11).polys(VARS3, DOM11)
        assert got.is_zero()

    def test_cancellation_across_chunks(self, monkeypatch):
        # with one row per chunk, the x*y terms of (x + y)(x - y) come from
        # different chunks and cancel only in the final merge
        monkeypatch.setattr(poly, "_FAST_CHUNK_PAIRS", 1)
        x, y = (SparsePoly.variable(v, VARS3, DOM11) for v in ("x", "y"))
        assert _mul_prime_fast(x + y, x - y) == x * x - y * y

    def test_constants(self):
        three = SparsePoly.const(VARS3, DOM11, 3)
        f = SparsePoly(VARS3, DOM11, {(1, 2, 0): 4, (0, 0, 5): 10})
        assert _mul_prime_fast(three, three) == SparsePoly.const(VARS3, DOM11, 9)
        assert _mul_prime_fast(three, f) == f.scale(3)
        one = SparsePoly.const(VARS3, DOM11, 1)
        twelve = SparsePoly.const(VARS3, DOM11, 12)
        terms = [(three, one, ()), (three, one, ((three, 1),))]
        got = homogenized_sums(terms, 1, [(0, 1)], VARS3, DOM11)
        assert got.polys(VARS3, DOM11) == [twelve]

    @pytest.mark.parametrize(
        "a, b", ((MONOMIAL, SPREAD), (SPREAD, SEVEN), (SEVEN, MONOMIAL))
    )
    def test_one_term_products_need_no_merge(self, a, b, monkeypatch):
        def no_merge(*args):
            raise AssertionError("a one-term product merged")

        monkeypatch.setattr(poly, "_packed_merge", no_merge)
        assert _mul_prime_fast(a, b) == _mul_schoolbook(a, b)

    def test_term_cap_on_products(self, monkeypatch):
        # a one-term product is refused past the cap, as the general one is
        def packed(n, step=1):
            return np.arange(n) * step, np.ones(n, dtype=np.int64)

        monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", 6)
        for a, b in ((packed(1), packed(6)), (packed(2, 100), packed(3))):
            assert len(poly._packed_mul(a, b, 11)[0]) == 6
        for a, b in (
            (packed(1), packed(7)),
            (packed(7), packed(1)),
            (packed(2, 100), packed(4)),
        ):
            with pytest.raises(SizeExceeded):
                poly._packed_mul(a, b, 11)

    def test_unpack_edge_cases(self):
        empty = np.zeros(0, dtype=np.int64)
        kron = poly._Kronecker([3, 4, 5])
        assert kron.unpack(empty, empty, VARS3, DOM11) == SparsePoly.zero(VARS3, DOM11)
        # with no variables the one monomial is the empty tuple, packed as 0
        none = poly._Kronecker([])
        assert none.unpack(empty, empty, (), DOM11) == SparsePoly.zero((), DOM11)
        got = none.unpack(np.zeros(1, dtype=np.int64), np.array([5]), (), DOM11)
        assert got.terms == {(): 5}
        three, four = (SparsePoly.const((), DOM11, c) for c in (3, 4))
        assert _mul_prime_fast(three, four).terms == {(): 1}

    def test_exponents_at_the_radix_bound(self):
        # every variable reaches degf + degg, the largest exponent its
        # radix can hold; a wrong radix would carry into the next variable
        f = SparsePoly(VARS3, DOM11, {(4, 0, 4): 1, (0, 4, 0): 2, (0, 0, 0): 3})
        g = SparsePoly(VARS3, DOM11, {(3, 3, 3): 5, (3, 0, 0): 6, (0, 0, 1): 7})
        product = _mul_prime_fast(f, g)
        assert product == _mul_schoolbook(f, g)
        assert (7, 3, 7) in product.terms and (3, 7, 3) in product.terms
        # n^2 * g^2 reaches 2 * 4 + 2 * 3 in every variable, the radix bound
        one = SparsePoly.const(VARS3, DOM11, 1)
        terms = [(f, one, ((g, 2),))]
        (got,) = homogenized_sums(terms, 2, [(0, 0, 1)], VARS3, DOM11).polys(VARS3, DOM11)
        assert got == _mul_schoolbook(_mul_schoolbook(f, f), _mul_schoolbook(g, g))
        assert (14, 6, 14) in got.terms and (6, 14, 6) in got.terms

    @given(factor_powers())
    @example((SparsePoly(("x",), PrimeDomain(3), {(1,): 1, (0,): 1}), 8))
    @example((SparsePoly(VARS3, PrimeDomain(3), {(3, 3, 3): 2, (0, 1, 0): 1}), 9))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_factor_powers_match_schoolbook(self, case):
        # f^(pq+r) is built as f^r times the Frobenius image f^q(x^p), whose
        # packed keys are those of f^q times p
        f, k = case
        one = SparsePoly.const(f.vars, f.domain, 1)
        sums = homogenized_sums([(one, one, ((f, k),))], 0, [[1]], f.vars, f.domain)
        want = one
        for _ in range(k):
            want = _mul_schoolbook(want, f)
        assert sums.polys(f.vars, f.domain) == [want]


def packed_chain(base, deg, p):
    """Powers 0..deg of a packed polynomial as a chain of products."""
    pows = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))]
    for _ in range(deg):
        pows.append(poly._packed_mul(pows[-1], base, p))
    return pows


def flat_list(pows):
    """Packed polynomials laid end to end, with their start offsets."""
    starts = np.cumsum([0] + [len(keys) for keys, _vals in pows])
    return (
        np.concatenate([keys for keys, _vals in pows]),
        np.concatenate([vals for _keys, vals in pows]),
        starts,
    )


@st.composite
def short_bases(draw):
    """(base, deg, p): a packed polynomial of one or two terms, and a
    degree p - 1 or p, where C(p, i) vanishes for 0 < i < p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13, 97)))
    keys = sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=2)))
    vals = [draw(st.integers(1, p - 1)) for _ in keys]
    deg = draw(st.sampled_from((p - 1, p)))
    return (np.array(keys, dtype=np.int64), np.array(vals, dtype=np.int64)), deg, p


class TestClosedFormKernels:
    """The closed-form power lists and the batched pair products against
    chains and single products of _packed_mul."""

    @given(short_bases())
    @example(((np.array([0, 1]), np.array([1, 1])), 5, 5))
    @example(((np.array([3, 8]), np.array([2, 6])), 7, 7))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_power_lists_match_the_product_chain(self, case):
        base, deg, p = case
        keys, vals, starts = poly._binomial_powers(base, deg, p)
        chain = packed_chain(base, deg, p)
        assert len(starts) == deg + 2
        for j, (ck, cv) in enumerate(chain):
            assert keys[starts[j] : starts[j + 1]].tolist() == ck.tolist()
            assert vals[starts[j] : starts[j + 1]].tolist() == cv.tolist()
        if len(base[0]) == 2 and deg == p:
            # C(p, i) = 0 for 0 < i < p: (a + b)^p = a^p + b^p
            assert starts[-1] - starts[-2] == 2

    def test_power_lists_at_the_largest_allowed_prime(self):
        p = (1 << 31) - 1
        base = (np.array([2, 9]), np.array([p - 1, p - 2]))
        got = poly._binomial_powers(base, 40, p)
        want = flat_list(packed_chain(base, 40, p))
        for got_array, want_array in zip(got, want):
            assert np.array_equal(got_array, want_array)

    @pytest.mark.parametrize("p", (3, 5, 11))
    def test_power_guard_charges_what_the_chain_would(self, p, monkeypatch):
        # a closed-form list counts |pows[j-1]| * |base| for j = 1..deg, as
        # the chain of products does: at that total the powers are built,
        # one term below it they are refused
        dom = PrimeDomain(p)
        x, y = (SparsePoly.variable(v, ("x", "y"), dom) for v in ("x", "y"))
        n, d = x + y.scale(2), x * y
        chain = 0
        for f in (n, d):
            base = poly._Kronecker([2 * p + 2] * 2).pack(*poly._term_arrays(f))
            pows = packed_chain(base, p, p)
            chain += sum(len(pw[0]) * len(base[0]) for pw in pows[:-1])
        for cap, refused in ((chain, False), (chain - 1, True)):
            monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", cap)
            try:
                homogenized_sums([(n, d, ())], p, [(0,) * (p + 1)], ("x", "y"), dom)
            except SizeExceeded as exc:
                assert refused and str(exc) == f"powers up to degree {p} would exceed {cap} terms"
            else:
                assert not refused

    @given(
        st.lists(
            st.one_of(prime_polys(max_terms=6, max_exp=2), one_term_polys(2)),
            min_size=2,
            max_size=2,
        ),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(1, 10)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_pair_products_match_single_products(self, bases, pairs):
        # powers 0..3 of two polynomials; pairs (ja, jb, shift digit, c)
        # whose shifts repeat, so that products of one shift merge
        p = 11
        kron = poly._Kronecker([13, 13, 13])
        a, b = (
            flat_list(packed_chain(kron.pack(*poly._term_arrays(f)), 3, p)) for f in bases
        )
        span = kron.span
        ja, jb, digit, coeffs = (np.array(col, dtype=np.int64) for col in zip(*pairs))
        keys, vals = poly._pair_products(a, ja, b, jb, digit * span, coeffs, p)
        want = {}
        for i, j, z, c in pairs:
            pk, pv = poly._packed_mul(poly._power_of(a, i), poly._power_of(b, j), p)
            for k, v in zip((pk + z * span).tolist(), pv.tolist()):
                want[k] = (want.get(k, 0) + c * v) % p
        want = {k: v for k, v in sorted(want.items()) if v}
        assert keys.tolist() == list(want)
        assert vals.tolist() == list(want.values())

    @given(homogenized_cases(), st.sampled_from((1, 3, 20)), st.sampled_from((1, 5, 1 << 14)))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_parts_in_passes_and_single_products(self, case, dense_min, pass_pairs):
        # under lowered pair thresholds the parts take single products,
        # batched passes cut short and the merges between them
        terms, deg, vectors = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_DENSE_MIN_PAIRS", dense_min)
            mp.setattr(poly, "_PASS_PAIRS", pass_pairs)
            sums = homogenized_sums(terms, deg, vectors, VARS3, DOM11)
        for w, sum_w in zip(vectors, sums.polys(VARS3, DOM11)):
            assert sum_w == homogenized_reference(terms, deg, w, VARS3, DOM11)

    @pytest.mark.parametrize("sparse", (False, True), ids=("dense", "sparse"))
    @given(homogenized_cases(), st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_a_refusal_names_the_vector_whose_parts_pass_the_cap(self, sparse, case, data):
        # vectors are built in chunks, yet the refusal names the first
        # vector at which the parts, counted vector by vector, pass the
        # cap; the running count is the same for dense and SparseVector
        # vectors
        terms, deg, vectors = case
        one = SparsePoly.const(VARS3, DOM11, 1)
        terms = [(n, d, ()) for n, d, _fs in terms] or [(one, one, ())]
        totals = np.cumsum(
            [
                sum(
                    len(homogenized_reference([term], deg, w, VARS3, DOM11).terms)
                    for term in terms
                )
                for w in vectors
            ]
        ).tolist()
        cap = data.draw(st.integers(1, totals[-1] + 1))
        refused = next((i for i, total in enumerate(totals, 1) if total > cap), None)

        def lowered(vectors):
            for w in vectors:
                poly.DEFAULT_TERM_CAP = cap
                yield SparseVector(len(w), tuple((j, c) for j, c in enumerate(w) if c)) if sparse else w

        message = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "DEFAULT_TERM_CAP", poly.DEFAULT_TERM_CAP)
            try:
                homogenized_sums(terms, deg, lowered(vectors), VARS3, DOM11)
            except SizeExceeded as exc:
                message = str(exc)
        # with no factor powers, the sums never have more terms than the parts
        if refused is None:
            assert message is None
        else:
            assert message == f"the parts of the first {refused} vectors exceed {cap} terms"

    @pytest.mark.parametrize("sparse", (False, True), ids=("dense", "sparse"))
    def test_two_chunks_are_counted_before_the_refusal(self, sparse):
        # the parts (x+y)^j x^(2-j) of one vector merge to 3 terms under a
        # bound of 6, so at a cap of 8 the first two vectors are built as
        # two chunks, and the third passes the cap
        n = SparsePoly(VARS3, DOM11, {(1, 0, 0): 1, (0, 1, 0): 1})
        d = SparsePoly(VARS3, DOM11, {(1, 0, 0): 1})

        def lowered():
            for _ in range(4):
                poly.DEFAULT_TERM_CAP = 8
                yield SparseVector(3, ((0, 1), (1, 1), (2, 1))) if sparse else (1, 1, 1)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "DEFAULT_TERM_CAP", poly.DEFAULT_TERM_CAP)
            with pytest.raises(SizeExceeded, match="the parts of the first 3 vectors exceed 8"):
                homogenized_sums([(n, d, ())], 2, lowered(), VARS3, DOM11)


DENSE_PRIMES = (2, 3, 11, (1 << 31) - 1)
TOP_PRIME = (1 << 31) - 1


@st.composite
def dense_products(draw):
    """A prime and two operands as exponent -> coefficient dicts, for the
    dense line array: a long operand full on a rectangle of x^a y^b and a
    short one of four or more terms in one variable, with gaps between its
    exponents.  In x the short operand's keys have δ = 1 or a small gcd;
    in y, δ is a multiple of the x radix, and the long operand's keys fall
    into one class per residue.  Either way the line array has fewer cells
    than there are pairs."""
    p = draw(st.sampled_from(DENSE_PRIMES))
    coeffs = st.integers(1, p - 1)
    width, height = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    long = {(a, b): draw(coeffs) for a in range(width) for b in range(height)}
    var = draw(st.sampled_from((0, 1)))
    span = (width, height)[var]
    exps = draw(st.lists(st.integers(0, span), min_size=4, max_size=6, unique=True))
    short = {(e, 0) if var == 0 else (0, e): draw(coeffs) for e in exps}
    return p, short, long


def gapped_and_rectangle(p, top=False):
    """A y-gapped short operand and a full 12 x 9 rectangle; with ``top``
    every coefficient is p - 1."""
    gapped = {(0, 0): 1, (0, 3): 2, (0, 4): 3, (0, 9): 4}
    rectangle = {(a, b): 1 + (a + b) % 10 for a in range(12) for b in range(9)}
    if top:
        gapped, rectangle = dict.fromkeys(gapped, p - 1), dict.fromkeys(rectangle, p - 1)
    return p, gapped, rectangle


def packed_product(f, g, p, dense):
    """Product of exponent -> coefficient dicts on the packed kernel, with
    the line array forced on or off, and whether it was taken."""
    exps = np.array(list(f) + list(g), dtype=np.int64)
    kron = poly._Kronecker(2 * exps.max(axis=0) + 1)
    packed = [
        kron.pack(np.array(list(h), dtype=np.int64), np.array(list(h.values()), dtype=np.int64))
        for h in (f, g)
    ]
    taken = []
    dense_mul = poly._dense_mul

    def spy(*args):
        product = dense_mul(*args)
        taken.append(product is not None)
        return product

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_DENSE_MIN_PAIRS", 0 if dense else 1 << 62)
        mp.setattr(poly, "_dense_mul", spy)
        keys, vals = poly._packed_mul(*packed, p)
    # the packed format: sorted distinct keys, nonzero residues
    assert np.all(keys[1:] > keys[:-1]) and np.all((0 < vals) & (vals < p))
    rows = map(tuple, kron.exponents(keys).tolist())
    return dict(zip(rows, vals.tolist())), taken


def dict_product(f, g, p):
    """Schoolbook product of exponent -> coefficient dicts mod p."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


class TestDensePath:
    """Products accumulated in the dense line array against the schoolbook
    reference, with the path forced on and off through its pair
    threshold."""

    @given(dense_products(), st.booleans())
    @example(gapped_and_rectangle(11), True)
    @example(gapped_and_rectangle(TOP_PRIME, top=True), True)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_schoolbook(self, case, dense):
        p, f, g = case
        product, taken = packed_product(f, g, p, dense)
        assert taken == ([True] if dense else [])
        want = dict_product(f, g, p)
        assert product == want
        if p != 2:  # GF(2) has no SparsePoly domain
            dom = PrimeDomain(p)
            assert want == _mul_schoolbook(SparsePoly(VARS, dom, f), SparsePoly(VARS, dom, g)).terms

    @staticmethod
    def multiply(f, g, dense):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_DENSE_MIN_PAIRS", 0 if dense else 1 << 62)
            return _mul_prime_fast(f, g)

    @given(mul_operands, mul_operands, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_small_operands_match_schoolbook(self, a, b, dense):
        # the line array is declined where it would outnumber the pairs
        assert self.multiply(a, b, dense) == _mul_schoolbook(a, b)

    def test_residue_products_at_the_largest_prime(self):
        # every cell gathers up to four products of (p-1)^2 ~ 2^62, so
        # the cells must be reduced every two rows, and the sorted path
        # must reduce each pair product once three rows meet in a key
        dom = PrimeDomain(TOP_PRIME)
        x = SparsePoly.variable("x", VARS, dom)
        y = SparsePoly.variable("y", VARS, dom)
        one = SparsePoly.const(VARS, dom, 1)
        f = (one + x + x * x + x ** 3).scale(-1)
        g = SparsePoly(VARS, dom, {(a, b): TOP_PRIME - 1 for a in range(40) for b in range(40)})
        for dense in (True, False):
            assert self.multiply(f, g, dense) == _mul_schoolbook(f, g)
        assert self.multiply(f, y + x * y + x * x, False) == _mul_schoolbook(
            f, y + x * y + x * x
        )

    @pytest.mark.parametrize("p", DENSE_PRIMES)
    def test_cancellation_in_the_cells(self, p):
        # (1 + x + x^2)(1 - x)(1 + x^3 + ... + x^(3n)) = 1 - x^(3n+3): all
        # but two cells cancel
        n = 500
        f = {(0,): 1, (1,): 1, (2,): 1}
        g = {e: c for k in range(n + 1) for e, c in (((3 * k,), 1), ((3 * k + 1,), p - 1))}
        product, taken = packed_product(f, g, p, True)
        assert taken == [True]
        assert product == {(0,): 1, (3 * n + 3,): p - 1}

    def test_cells_past_the_cap_are_never_allocated(self, monkeypatch):
        # f = 1 + x + ... + x^(m-1) and g = (1 - x)(1 + x^m + ... + x^((k-1)m))
        # have the product 1 - x^(km), through a line array of about
        # (k+1)m cells; under a lower cap the array is split, and no
        # allocation comes near its size
        m, k, p = 1000, 1000, 11
        ka = np.arange(m, dtype=np.int64)
        kb = np.stack([np.arange(k) * m, np.arange(k) * m + 1], axis=1).ravel()
        va = np.ones(m, dtype=np.int64)
        vb = np.tile(np.array([1, p - 1], dtype=np.int64), k)
        cells = k * m + m
        for cap, fits in ((10**7, True), (cells // 10, False)):
            monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", cap)
            tracemalloc.start()
            try:
                keys, vals = poly._packed_mul((ka, va), (kb, vb), p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert keys.tolist() == [0, k * m] and vals.tolist() == [1, p - 1]
            assert (peak >= 8 * cells) == fits, peak
            if not fits:
                assert peak < 8 * cells // 4

    def test_a_cell_count_past_the_pairs_is_declined(self):
        # three terms spread over 10^6 keys: the line array would hold
        # far more cells than the 3 * 1000 pairs
        ka = np.array([0, 1, 10**6], dtype=np.int64)
        kb = np.arange(1000, dtype=np.int64)
        ones = np.ones(1000, dtype=np.int64)
        assert poly._dense_mul(ka, ones[:3], kb, ones, 11) is None


class TestSortedPath:
    """The sorted merge of outer sums, where the line array is declined."""

    def test_refusal_before_the_chunks_are_concatenated(self, monkeypatch):
        # 40 rows of 1000 keys in chunks of 2 rows: every row adds 1000
        # new terms, so the merged chunks pass a cap of 5000 within three
        # chunks, and no merge ever holds much more than the cap
        ka = np.arange(40, dtype=np.int64) * 1000
        kb = np.arange(1000, dtype=np.int64)
        ones = np.ones(1000, dtype=np.int64)
        merged = []
        merge = poly._packed_merge

        def counting(keys, vals, p):
            merged.append(len(keys))
            return merge(keys, vals, p)

        monkeypatch.setattr(poly, "_packed_merge", counting)
        monkeypatch.setattr(poly, "_DENSE_MIN_PAIRS", 1 << 62)
        monkeypatch.setattr(poly, "_FAST_CHUNK_PAIRS", 2000)
        monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", 5000)
        with pytest.raises(SizeExceeded):
            poly._packed_mul((ka, ones[:40]), (kb, ones), 11)
        assert max(merged) <= 5000 + 2000
        assert sum(merged) < 40 * 1000

    @staticmethod
    def lower_the_cap(monkeypatch, cap=6000):
        """The line array off, chunks of one row of J's stacked products at
        p=11, and a cap of ``cap`` terms."""
        monkeypatch.setattr(poly, "_DENSE_MIN_PAIRS", 1 << 62)
        monkeypatch.setattr(poly, "_FAST_CHUNK_PAIRS", 4000)
        monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", cap)

    def test_cli_exits_2_when_a_block_product_passes_the_cap(self, monkeypatch, capsys):
        # under this cap the stacked parts of J's columns pass it at the
        # ninth vector, before any product of their stacked sum, and the
        # solve exits 2 (under a cap of 8000, test_a_refused_stack_is_not_retried
        # refuses a stacked product chunk by chunk instead, and under 5000
        # the power guard refuses first).  No merge on the way holds more
        # than the cap plus one chunk
        from finpolylog.cli import main

        merged = []
        merge = poly._packed_merge

        def counting(keys, vals, p):
            merged.append(len(keys))
            return merge(keys, vals, p)

        monkeypatch.setattr(poly, "_packed_merge", counting)
        self.lower_the_cap(monkeypatch)
        assert main(["solve", "--preset", "J", "--p", "11"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert max(merged) < 2 * 6000

    @pytest.mark.parametrize(
        "cap, refused",
        (
            (5000, "powers up to degree 11 would exceed 5000 terms"),
            (6000, "the parts of the first 9 vectors exceed 6000 terms"),
            (8000, "a product over the 11 stacked vectors exceeds 8000 terms"),
        ),
    )
    def test_a_refused_stack_is_not_retried(self, cap, refused, monkeypatch, capsys):
        # the stacked vectors are summed at most once: powers, stacked
        # parts or a stacked product past the cap refuse the call, with no
        # second try on fewer vectors.  The refused stacked product under
        # 8000 is 7,636 terms times a two-term Frobenius image, one row per
        # chunk; test_refusal_before_the_chunks_are_concatenated checks
        # the running merge of many rows
        from finpolylog.cli import main

        merged = []
        merge = poly._packed_merge

        def merging(keys, vals, p):
            merged.append(len(keys))
            return merge(keys, vals, p)

        outer = []
        grouped_sum = poly._grouped_sum
        depth = [0]

        def counting(items, powers, p):
            outer.append(not depth[0])
            depth[0] += 1
            try:
                return grouped_sum(items, powers, p)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(poly, "_packed_merge", merging)
        monkeypatch.setattr(poly, "_grouped_sum", counting)
        self.lower_the_cap(monkeypatch, cap)
        assert main(["solve", "--preset", "J", "--p", "11"]) == 2
        assert capsys.readouterr().err == f"error: {refused}\n"
        assert outer.count(True) == (cap == 8000)
        assert max(merged) < 2 * cap


class TestPrimeBound:
    """Above 2^31 residue products and their sums leave int64, so the
    packed kernel must not be used there."""

    @staticmethod
    def operands(p):
        rng = random.Random(p)
        dom = PrimeDomain(p)
        exps = [(i, j) for i in range(20) for j in range(20)]

        def make():
            return SparsePoly(
                VARS, dom, {e: rng.randrange(p - 10**6, p) for e in rng.sample(exps, 100)}
            )

        return make(), make()

    @pytest.mark.parametrize("p", (2147483647, 3037000493, 4294967311))
    def test_product_matches_schoolbook(self, p):
        f, g = self.operands(p)
        expected = _mul_schoolbook(f, g)
        assert f * g == expected

    def test_packed_kernel_at_the_largest_allowed_prime(self):
        p = 2147483647
        f, g = self.operands(p)
        dom = PrimeDomain(p)
        monomial = SparsePoly(VARS, dom, {(3, 5): p - 1})
        const = SparsePoly.const(VARS, dom, p - 2)
        for a, b in ((f, g), (monomial, f), (f, const), (monomial, const)):
            assert _mul_prime_fast(a, b) == _mul_schoolbook(a, b)

    def test_packed_kernel_refuses_larger_primes(self):
        f, g = self.operands(4294967311)
        with pytest.raises(BadParams):
            _mul_prime_fast(f, g)

    def test_homogenized_sums_at_the_largest_allowed_prime(self):
        p = 2147483647
        f, g = self.operands(p)
        terms = [(f, g, ((g, 1),)), (g, f, ())]
        w = (p - 1, 0, p - 2)
        sums = homogenized_sums(terms, 2, [w], VARS, PrimeDomain(p))
        got = sums.polys(VARS, PrimeDomain(p))
        assert got == [homogenized_reference(terms, 2, w, VARS, PrimeDomain(p))]

    @pytest.mark.parametrize("domain", (PrimeDomain(2147483659), RationalDomain()))
    def test_homogenized_sums_refuse_other_domains(self, domain):
        x = SparsePoly.variable("x", VARS, domain)
        with pytest.raises(BadParams):
            homogenized_sums([(x, x, ())], 1, [(1, 1)], VARS, domain)


class TestPackingOverflow:
    """A single product whose packed keys would pass 2^62 takes the
    schoolbook product instead of failing; homogenized_sums, which has no
    dict path, refuses such operands, and more vectors than its keys hold."""

    @staticmethod
    def operands():
        rng = random.Random(21)

        def make():
            return SparsePoly(
                VARS3,
                DOM7,
                {
                    tuple(rng.randrange(1 << 21) for _ in VARS3): rng.randrange(1, 7)
                    for _ in range(100)
                },
            )

        return make(), make()

    def test_product_matches_schoolbook(self):
        f, g = self.operands()
        assert f * g == _mul_schoolbook(f, g)

    def test_homogenized_sums_refuse_the_overflow(self):
        f, g = self.operands()
        with pytest.raises(SizeExceeded):
            homogenized_sums([(f, g, ((f, 1),))], 1, [(0, 1)], VARS3, DOM7)

    def test_homogenized_sums_refuse_vectors_past_the_keys(self):
        # x^(2^61) at degree 1 takes the radix 2^61 + 1, so the packed keys
        # hold one z digit: one vector is summed, and a second is refused
        # rather than summed on its own
        x = ("x",)
        n = SparsePoly(x, DOM7, {(1 << 61,): 1})
        one = SparsePoly.const(x, DOM7, 1)
        (got,) = homogenized_sums([(n, one, ())], 1, [(2, 3)], x, DOM7).polys(x, DOM7)
        assert got == n.scale(3) + one.scale(2)
        with pytest.raises(SizeExceeded, match="overflow the packed keys"):
            homogenized_sums([(n, one, ())], 1, [(2, 3), (1, 0)], x, DOM7)


@st.composite
def packed_parts(draw):
    """(parts, p): packed polynomials (sorted distinct keys, residues in
    [1, p)), often one long part among short ones, whose keys overlap so
    that some sums cancel."""
    p = draw(st.sampled_from((2, 3, 11, (1 << 31) - 1)))
    span = draw(st.integers(1, 400))
    parts = []
    for size in draw(st.lists(st.integers(0, 300), min_size=1, max_size=5)):
        keys = draw(st.lists(st.integers(0, span), max_size=size, unique=True))
        vals = draw(st.lists(st.integers(1, p - 1), min_size=len(keys), max_size=len(keys)))
        order = np.argsort(np.array(keys, dtype=np.int64))
        parts.append(
            (
                np.array(keys, dtype=np.int64).reshape(-1)[order],
                np.array(vals, dtype=np.int64).reshape(-1)[order],
            )
        )
    return parts, p


class TestPackedAdd:
    """The sum that inserts the short parts into the longest, and the one
    that sorts them all, against a sum of dicts."""

    @given(packed_parts(), st.booleans(), st.sampled_from((0, 1, 8, 1 << 40)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_dict_sum(self, case, negate, ratio):
        parts, p = case
        if negate:  # the negated longest part cancels it term by term
            keys, vals = max(parts, key=lambda part: len(part[0]))
            parts = parts + [(keys.copy(), (p - vals) % p)]
        want = {}
        for keys, vals in parts:
            for k, v in zip(keys.tolist(), vals.tolist()):
                want[k] = (want.get(k, 0) + v) % p
        want = {k: v for k, v in sorted(want.items()) if v}
        before = [(k.copy(), v.copy()) for k, v in parts]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_INSERT_RATIO", ratio)
            keys, vals = poly._packed_add(parts, p)
        assert keys.dtype == vals.dtype == np.int64
        assert dict(zip(keys.tolist(), vals.tolist())) == want
        assert keys.tolist() == list(want)
        for (k, v), (k0, v0) in zip(parts, before):
            assert np.array_equal(k, k0) and np.array_equal(v, v0)

    def test_the_longest_part_is_not_sorted_again(self, monkeypatch):
        # only the two short parts are merged by sorting
        n = 5 * poly._INSERT_RATIO
        merged = []
        merge = poly._packed_merge

        def counting(keys, vals, p):
            merged.append(len(keys))
            return merge(keys, vals, p)

        monkeypatch.setattr(poly, "_packed_merge", counting)
        ones = np.ones(n, dtype=np.int64)
        big = (np.arange(n, dtype=np.int64) * 2, ones)
        small = [(np.array([1, 4]), ones[:2]), (np.array([4, 5, 2 * n]), ones[:3])]
        keys, vals = poly._packed_add([small[0], big, small[1]], 11)
        assert merged == [5]
        assert len(keys) == n + 3  # 1, 5 and 2n are new
        assert vals[np.searchsorted(keys, 4)] == 3


class TestMemoryPeaks:
    """Peaks under tracemalloc, which counts numpy's buffers."""

    def test_two_term_product_holds_one_sorted_copy(self):
        # 2 x 150,000 pairs on the sorted path: the outer sums and products
        # are freed once sorted, so the peak stays within 3x the output
        rng = np.random.default_rng(5)
        kb = np.unique(rng.integers(0, 10**12, 150_000))
        vb = rng.integers(1, 97, len(kb))
        ka, va = np.array([0, 7], dtype=np.int64), np.array([1, 5], dtype=np.int64)
        tracemalloc.start()
        try:
            keys, vals = poly._packed_mul((ka, va), (kb, vb), 97)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(keys) > 2 * len(kb) - 100
        assert peak <= 3 * (keys.nbytes + vals.nbytes), peak

    def test_a_shift_comes_before_a_longer_product(self, monkeypatch):
        # the item times a two-term and a one-term power: the one-term
        # power shifts the item's 1000 terms, not the 2000-term product
        mul = poly._packed_mul
        calls = []

        def counting(a, b, p):
            calls.append(sorted((len(a[0]), len(b[0]))))
            return mul(a, b, p)

        monkeypatch.setattr(poly, "_packed_mul", counting)
        item = (np.arange(1000, dtype=np.int64) * 4, np.ones(1000, dtype=np.int64))
        powers = {"two": (np.array([0, 1]), np.array([1, 2])), "one": (np.array([3]), np.array([5]))}
        keys, vals = poly._grouped_sum([(item, ["two", "one"])], powers, 11)
        assert calls == [[1, 1000], [2, 1000]]
        want = {}
        for k in range(1000):
            for shift, c in ((3, 5), (4, 10)):
                want[4 * k + shift] = c
        assert dict(zip(keys.tolist(), vals.tolist())) == want
