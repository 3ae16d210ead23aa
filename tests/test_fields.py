from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finpolylog import FieldDescriptor, FieldElement, ZeroInverse
from finpolylog.fields import (
    _power,
    bernoulli,
    bernoulli_mod_p,
    build_extension,
    genocchi,
    is_prime,
)
from finpolylog.errors import BadParams
from finpolylog.fields import _bernoulli_table_mod_p


F7 = FieldDescriptor(7)
F25 = build_extension(5, 2)

elems7 = st.integers(0, 6).map(F7.element)
elems25 = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda c: FieldElement(c, F25)
)


def test_power_by_square_and_multiply():
    """Square-and-multiply needs one product per bit after the leading
    one, plus one per further set bit, and none for n = 0 or 1."""
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    assert _power(3, 0, mul, "one") == "one" and not products
    for n in range(1, 40):
        products.clear()
        assert _power(3, n, mul, "one") == 3**n
        assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1


def test_is_prime():
    naive = [n for n in range(-3, 600) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(-3, 600) if is_prime(n)] == naive
    assert is_prime(2**31 - 1) and not is_prime(2**31 + 1) and not is_prime(1009**2)


class TestPrimeField:
    def test_basic_arithmetic(self):
        a = F7.element(3)
        b = F7.element(5)
        assert int(a + b) == 1
        assert int(a * b) == 1
        assert int(a - b) == 5
        assert int(a / b) == int(a * b.inverse())

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroInverse):
            F7.zero().inverse()

    @given(elems7, elems7, elems7)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(elems7)
    def test_frobenius_is_identity_on_prime_field(self, a):
        assert a.frobenius() == a

    @given(elems7)
    def test_inverse_roundtrip(self, a):
        if not a.is_zero():
            assert a * a.inverse() == F7.one()


class TestExtensionField:
    def test_element_count(self):
        assert len(list(F25.elements())) == 25

    @given(elems25, elems25)
    def test_frobenius_is_additive_and_multiplicative(self, a, b):
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()

    @given(elems25)
    def test_frobenius_order_two(self, a):
        assert a.frobenius().frobenius() == a

    @given(elems25)
    def test_fermat(self, a):
        if not a.is_zero():
            assert a ** 24 == F25.one()


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(j) == 0 for j in range(3, 20, 2))

    def test_genocchi_integers(self):
        assert [genocchi(j) for j in range(1, 9)] == [1, -1, 0, 1, 0, -3, 0, 17]

    def test_mod_p_denominator_guard(self):
        from finpolylog import StaudtClausenPole

        with pytest.raises(StaudtClausenPole):
            bernoulli_mod_p(4, 5)
        assert int(bernoulli_mod_p(2, 7)) == pow(6, 5, 7)  # 1/6 mod 7

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 31, 101, 2147483659))
    def test_recurrence_mod_p_matches_exact_numbers(self, p):
        # below index p - 1 the recurrence runs mod p; above 2^31 on Python ints
        n = min(p - 2, 40)
        exact = map(bernoulli, range(n + 1))
        want = [b.numerator * pow(b.denominator, -1, p) % p for b in exact]
        assert _bernoulli_table_mod_p(n, p) == want
        assert [int(bernoulli_mod_p(j, p)) for j in range(n + 1)] == want

    def test_mod_p_past_the_recurrence(self):
        # index p - 1 + 2 reduces the exact number: B_8 = -1/30 mod 7
        assert int(bernoulli_mod_p(8, 7)) == -pow(30, -1, 7) % 7
        with pytest.raises(BadParams):
            _bernoulli_table_mod_p(6, 7)
