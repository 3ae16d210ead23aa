"""Finite fields of odd characteristic and exact Bernoulli/Genocchi numbers.

A :class:`FieldDescriptor` fixes a prime p, an extension degree e and a monic
modulus; elements are coordinate tuples over the prime field.  For e = 1 the
modulus is the polynomial x and coordinates are single residues.  Bernoulli
numbers are computed in exact rational arithmetic, or below index p - 1 by
the same recurrence run modulo p, with the von Staudt-Clausen poles reported
as errors.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb
import operator

import numpy as np

from .errors import (
    BadParams,
    NonIntegral,
    SizeExceeded,
    StaudtClausenPole,
    ZeroInverse,
)

# Largest field whose elements FieldDescriptor.elements() enumerates.
MAX_ENUMERATED = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (small inputs only)."""
    return n >= 2 and _prime_divisors(n) == [n]


def _power(base, n: int, mul, one):
    """base^n for n >= 0 by square-and-multiply, where ``mul`` multiplies
    two values and ``one`` is the result for n = 0.  The result starts from
    the first factor it takes, and the last squaring is skipped."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one if result is None else result


def _poly_mul_mod(a, b, modulus, p):
    """Multiply coordinate sequences modulo a monic modulus over GF(p).

    The coordinates may be ints or int64 arrays of residues (p < 2^31, so
    every intermediate stays below p^2 + p); nothing branches on a value.
    """
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: modulus is monic of degree e
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        prod[k] = 0
        for j in range(e):
            prod[k - e + j] = (prod[k - e + j] - c * modulus[j]) % p
    out = prod[:e]
    out += [0] * (e - len(out))
    return tuple(out)


class FieldDescriptor:
    """Immutable description of GF(p^e) with a fixed monic modulus."""

    __slots__ = ("p", "e", "modulus", "q")

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not is_prime(p):
            raise BadParams(f"characteristic {p} is not prime")
        if p == 2:
            raise BadParams("characteristic 2 is not supported")
        if e < 1:
            raise BadParams("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p**e
        if modulus is None:
            if e == 1:
                modulus = (0, 1)
            else:
                modulus = _smallest_irreducible(p, e)
        self.modulus = tuple(int(c) % p for c in modulus)
        if len(self.modulus) != e + 1 or self.modulus[e] != 1:
            raise BadParams("modulus must be monic of degree e")

    def __eq__(self, other):
        return (
            isinstance(other, FieldDescriptor)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"

    def element(self, value) -> "FieldElement":
        """Build an element from an integer or a coordinate sequence."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise BadParams("element belongs to a different field")
            return value
        if isinstance(value, int):
            coords = [value % self.p] + [0] * (self.e - 1)
        else:
            coords = [int(c) % self.p for c in value]
            if len(coords) > self.e:
                raise BadParams("too many coordinates")
            coords += [0] * (self.e - len(coords))
        return FieldElement(tuple(coords), self)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def elements(self):
        """Iterate over all q field elements in a deterministic order."""
        if self.q > MAX_ENUMERATED:
            raise SizeExceeded("field too large to enumerate")
        p, e = self.p, self.e
        for idx in range(self.q):
            coords = []
            v = idx
            for _ in range(e):
                coords.append(v % p)
                v //= p
            yield FieldElement(tuple(coords), self)


class FieldElement:
    """Element of a finite field, stored as coordinates over GF(p)."""

    __slots__ = ("coords", "field")

    def __init__(self, coords, field: FieldDescriptor):
        self.coords = coords
        self.field = field

    def _check(self, other):
        if isinstance(other, int):
            return self.field.element(other)
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise BadParams("mixing elements of different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(
            tuple((a + b) % p for a, b in zip(self.coords, other.coords)),
            self.field,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(
            tuple((a - b) % p for a, b in zip(self.coords, other.coords)),
            self.field,
        )

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        p = self.field.p
        return FieldElement(tuple((-a) % p for a in self.coords), self.field)

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        if f.e == 1:
            return FieldElement(((self.coords[0] * other.coords[0]) % f.p,), f)
        return FieldElement(
            _poly_mul_mod(self.coords, other.coords, f.modulus, f.p), f
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, operator.mul, self.field.one())

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroInverse("zero has no multiplicative inverse")
        f = self.field
        if f.e == 1:
            return FieldElement((pow(self.coords[0], f.p - 2, f.p),), f)
        return self ** (f.q - 2)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def frobenius(self) -> "FieldElement":
        return self ** self.field.p

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.coords, self.field.p, self.field.e))

    def __int__(self):
        if any(self.coords[1:]):
            raise BadParams("element is not in the prime field")
        return self.coords[0]

    def __repr__(self):
        if self.field.e == 1:
            return str(self.coords[0])
        return f"FieldElement{self.coords}"


def _poly_pow_mod(base, n, modulus, p):
    one = tuple([1] + [0] * (len(modulus) - 2))
    return _power(base, n, lambda a, b: _poly_mul_mod(a, b, modulus, p), one)


def _is_irreducible(coeffs, p):
    """Rabin test: f monic of degree e over GF(p)."""
    e = len(coeffs) - 1
    x = tuple([0, 1] + [0] * (e - 2)) if e >= 2 else (0,)
    # x^(p^e) == x mod f
    t = x
    for _ in range(e):
        t = _poly_pow_mod(t, p, coeffs, p)
    if t != x:
        return False
    for r in _prime_divisors(e):
        t = x
        for _ in range(e // r):
            t = _poly_pow_mod(t, p, coeffs, p)
        # gcd(t - x, f) must be 1
        diff = list(t)
        diff[1] = (diff[1] - 1) % p
        if not _is_coprime(diff, coeffs, p):
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_coprime(a, f, p):
    """gcd(a, f) == 1 in GF(p)[x] (a given as coefficient list)."""
    a = list(a)
    b = list(f)

    def deg(c):
        for i in range(len(c) - 1, -1, -1):
            if c[i] % p:
                return i
        return -1

    while True:
        da, db = deg(a), deg(b)
        if db == -1:
            return da == 0
        if da < db:
            a, b = b, a
            da, db = db, da
        # a -= lead(a)/lead(b) * x^(da-db) * b
        factor = (a[da] * pow(b[db], p - 2, p)) % p
        shift = da - db
        for i in range(db + 1):
            a[i + shift] = (a[i + shift] - factor * b[i]) % p


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, e: int):
    """Monic irreducible of degree e with lexicographically smallest
    low-order coefficient vector (c_0, c_1, ..., c_{e-1})."""
    if p**e > 2**22:
        raise SizeExceeded(f"GF({p}^{e}) modulus search too large")
    for idx in range(p**e):
        coeffs = []
        v = idx
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _is_irreducible(tuple(coeffs), p):
            return tuple(coeffs)
    raise SizeExceeded("no irreducible found")  # unreachable


def build_extension(p: int, e: int) -> FieldDescriptor:
    """GF(p^e) with the canonical (smallest) monic irreducible modulus."""
    return FieldDescriptor(p, e)


_BERNOULLI_CACHE = [Fraction(1)]


def bernoulli(j: int) -> Fraction:
    """Exact Bernoulli number B_j with the B_1 = -1/2 convention."""
    if j < 0:
        raise BadParams("Bernoulli index must be nonnegative")
    while len(_BERNOULLI_CACHE) <= j:
        m = len(_BERNOULLI_CACHE)
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * _BERNOULLI_CACHE[k]
        _BERNOULLI_CACHE.append(-acc / (m + 1))
    return _BERNOULLI_CACHE[j]


def genocchi(j: int) -> int:
    """Genocchi number G_j = 2(1 - 2^j) B_j, always an integer."""
    if j < 0:
        raise BadParams("Genocchi index must be nonnegative")
    g = 2 * (1 - 2**j) * bernoulli(j)
    if g.denominator != 1:
        raise NonIntegral(f"G_{j} is not an integer")
    return int(g)


def _bernoulli_table_mod_p(n: int, p: int) -> list:
    """B_0, ..., B_n modulo p, for n <= p - 2.

    Below p - 1 every B_j is p-integral (von Staudt-Clausen), so the
    recurrence B_m = -(1/(m+1)) sum_{k<m} C(m+1, k) B_k runs mod p: m + 1
    < p is invertible.  A Pascal row carries C(m+1, k) mod p, and each
    product is reduced before summing, so int64 stays exact for p < 2^31
    (Python ints above).
    """
    if not 0 <= n <= p - 2:
        raise BadParams(f"B_0..B_{n} mod {p} need n <= p - 2")
    dtype = np.int64 if p < 1 << 31 else object
    table = np.zeros(n + 1, dtype=dtype)
    table[0] = 1
    row = np.ones(2, dtype=dtype)  # C(1, k)
    for m in range(1, n + 1):
        row = np.concatenate(([1], (row[1:] + row[:-1]) % p, [1]))  # C(m+1, k)
        acc = int((row[:m] * table[:m] % p).sum())
        table[m] = -acc * pow(m + 1, p - 2, p) % p
    return table.tolist()


def bernoulli_mod_p(j: int, p: int) -> FieldElement:
    """B_j reduced modulo p; raises at the von Staudt-Clausen poles.
    Indices up to p - 2 run the recurrence mod p, larger ones reduce the
    exact Bernoulli number."""
    field = FieldDescriptor(p)
    if j > 0 and j % (p - 1) == 0:
        raise StaudtClausenPole(f"B_{j} has a pole modulo {p}")
    if j <= p - 2:
        return field.element(_bernoulli_table_mod_p(j, p)[j])
    b = bernoulli(j)
    if b.denominator % p == 0:
        raise StaudtClausenPole(f"B_{j} has a pole modulo {p}")
    num = b.numerator % p
    den_inv = pow(b.denominator % p, p - 2, p)
    return field.element(num * den_inv)
