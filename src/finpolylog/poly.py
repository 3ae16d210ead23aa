"""Sparse multivariate polynomials and rational functions over exact domains.

Polynomials are stored as a map from exponent tuples to nonzero coefficients
over a fixed ordered variable universe.  Coefficients are exact rationals
(Fraction) or elements of a prime field GF(p) (ints in [0, p)); mixing
domains or variable universes raises DomainMismatch.  Polynomials can still
be evaluated at points of an extension GF(p^e), given as FieldElement.

Rational functions keep their denominator as a multiset of monic factor
polynomials.  There is no full multivariate gcd; reduction removes factors
that divide the numerator exactly and normalizes the leading denominator
coefficient, which is enough because every construction in this package
builds denominators in factored form.  Equality is decided by
cross-multiplication, after a cheap comparison of leading signatures.

Large products over GF(p) with p < 2^31 run on a private packed kernel: a
polynomial becomes a sorted int64 array of Kronecker-packed exponent keys
(one radix per variable) and an int64 array of residues.  A one-term
operand needs no merge: it shifts the other operand's keys, which stay
sorted and distinct, and scales its residues, which stay nonzero.  A large
product with no more cells in a dense line array over its keys than pairs
of terms accumulates there, one scatter-add per term of the short operand;
the others are outer sums of keys and products of residues, whose equal
keys merge through a stable argsort and one running sum.  A sum of packed
polynomials whose longest part holds most of its terms inserts the others
into it at the places ``np.searchsorted`` finds, so that part is not
sorted again, and each step frees its inputs once copied.  Below 2^31 a
product of two residues is below 2^62, and sums are reduced mod p before
they could leave int64, so the kernel is exact; larger primes use the
schoolbook product, and so do single products whose packed keys would not
fit in int64.  Besides single products, the kernel has one more entry
point, :func:`homogenized_sums`, which builds the cleared numerators of
the twisted evaluator and of the solver's columns, both read at degree p:
its inputs are packed once, and powers, products and sums stay packed
until they are returned.  The powers of a one- or two-term argument are
written down in closed form, with binomials mod p, and many small products
n^j d^(deg-j) share one pass of outer sums and one merge.  All coefficient
vectors are stacked in one block, each vector under one more Kronecker
digit, so one pass over the terms serves every vector; a block that would
pass the term cap is refused, not split.  Terms that share a factor power
are summed before it is multiplied on, so each shared power meets one
product per group of terms, not one per term and vector.  A factor power
f^(pq+r) is f^r times the Frobenius image f^q(x^p), whose keys are those
of f^q times p, so a p-th power is a scaling of keys and has no more terms
than its base; at degree p every cofactor is such an image.  The sums come
back in coordinate form (:class:`Coordinates`: packed monomial keys with
their radices, a polynomial index, values); the solver ranks its matrix
rows by the keys directly, and exponent rows are unpacked only for a
caller that asks for them.  Storage stays dict-based: most products in the
package are small, and pointwise evaluation walks the terms.
"""

from fractions import Fraction
from functools import lru_cache
import heapq
from itertools import accumulate, repeat
import operator
from typing import NamedTuple

import numpy as np

from .errors import (
    BadParams,
    DomainMismatch,
    InadmissiblePoint,
    SizeExceeded,
    ZeroDenominator,
    ZeroInverse,
)
from .fields import FieldDescriptor, FieldElement, _power

DEFAULT_TERM_CAP = 10**7
_FAST_MUL_THRESHOLD = 4096
_FAST_CHUNK_PAIRS = 24_000_000
# smaller products stay on the sorted merge: they take milliseconds either way
_DENSE_MIN_PAIRS = 1 << 16
# homogenized_sums forms products of fewer pairs in batched passes of about
# this many pairs.  Past it a pass's gathers cost more per pair than the
# outer sums of a single product, and larger passes leave more of the heap
# behind them.
_PASS_PAIRS = 1 << 14
# A sum inserts its short parts into its longest when that holds this many
# times their terms.  Inserting takes less memory while they hold under half
# the long one's terms, but one sort of all the terms is faster once they
# pass 1/10 to 1/5 of it (measured for long parts of 4k to 1M terms; below
# 4k both take microseconds).
_INSERT_RATIO = 8
# Residue products stay below 2^62, and their sums inside int64.
_PACKED_P_LIMIT = 1 << 31


class RationalDomain:
    """Exact rational coefficients (Fraction)."""

    characteristic = 0
    kind = "rational"

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise DomainMismatch(f"cannot coerce {value!r} into rationals")

    def one(self):
        return Fraction(1)

    def inv(self, value):
        if value == 0:
            raise ZeroInverse("division by zero in rationals")
        return 1 / value

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeDomain:
    """GF(p) coefficients stored as plain ints in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        self.p = p
        self.characteristic = p
        self.field = FieldDescriptor(p)

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, FieldElement):
            if value.field == self.field:
                return value.coords[0]
            raise DomainMismatch("element of a different field")
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroInverse("denominator divisible by p")
            return (
                value.numerator
                * pow(value.denominator, self.p - 2, self.p)
            ) % self.p
        raise DomainMismatch(f"cannot coerce {value!r} into GF({self.p})")

    def one(self):
        return 1

    def inv(self, value):
        v = value % self.p
        if v == 0:
            raise ZeroInverse(f"division by zero in GF({self.p})")
        return pow(v, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeDomain) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _gradlex_key(exps):
    return (sum(exps), exps)


def _gradlex_descending(exps):
    """A key whose ascending order is descending graded-lex order."""
    return (-sum(exps), tuple(map(operator.neg, exps)))


class SparsePoly:
    """Immutable sparse polynomial over a fixed variable universe."""

    __slots__ = ("vars", "domain", "terms")

    def __init__(self, variables, domain, terms, *, copy=True):
        self.vars = tuple(variables)
        self.domain = domain
        if copy:
            coerced = {}
            for e, c in terms.items():
                c = domain.coerce(c)
                if c != 0:
                    coerced[e] = c
            terms = coerced
        if len(terms) > DEFAULT_TERM_CAP:
            raise SizeExceeded(
                f"polynomial with {len(terms)} terms exceeds cap"
            )
        self.terms = terms

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables, domain):
        return cls(variables, domain, {}, copy=False)

    @classmethod
    def const(cls, variables, domain, value):
        value = domain.coerce(value)
        if value == 0:
            return cls.zero(variables, domain)
        zero_exp = (0,) * len(variables)
        return cls(variables, domain, {zero_exp: value}, copy=False)

    @classmethod
    def variable(cls, name, variables, domain):
        variables = tuple(variables)
        if name not in variables:
            raise BadParams(f"{name!r} is not in the variable universe")
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, domain, {exp: domain.one()}, copy=False)

    # -- helpers -----------------------------------------------------

    def _compat(self, other):
        if not isinstance(other, SparsePoly):
            raise DomainMismatch("expected a SparsePoly")
        if other.domain != self.domain or other.vars != self.vars:
            raise DomainMismatch(
                "operands have different domains or variable universes"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        zero_exp = (0,) * len(self.vars)
        return len(self.terms) == 1 and zero_exp in self.terms

    def constant_value(self):
        if self.is_zero():
            return self.domain.coerce(0)
        zero_exp = (0,) * len(self.vars)
        if not self.is_constant():
            raise BadParams("polynomial is not constant")
        return self.terms[zero_exp]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_exponent(self):
        if not self.terms:
            raise BadParams("zero polynomial has no leading term")
        return max(self.terms, key=_gradlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_exponent()]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = SparsePoly.const(self.vars, self.domain, other)
        self._compat(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            if e in out:
                s = out[e] + c
                if self.domain.kind == "prime":
                    s %= self.domain.p
                if s == 0:
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return SparsePoly(self.vars, self.domain, out, copy=False)

    __radd__ = __add__

    def __neg__(self):
        if self.domain.kind == "prime":
            p = self.domain.p
            out = {e: (p - c) % p for e, c in self.terms.items()}
        else:
            out = {e: -c for e, c in self.terms.items()}
        return SparsePoly(self.vars, self.domain, out, copy=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = SparsePoly.const(self.vars, self.domain, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        self._compat(other)
        if not self.terms or not other.terms:
            return SparsePoly.zero(self.vars, self.domain)
        pairs = len(self.terms) * len(other.terms)
        if (
            self.domain.kind == "prime"
            and self.domain.p < _PACKED_P_LIMIT
            and pairs > _FAST_MUL_THRESHOLD
        ):
            return _mul_prime_fast(self, other)
        return _mul_schoolbook(self, other)

    __rmul__ = __mul__

    def scale(self, value):
        value = self.domain.coerce(value)
        if value == 0:
            return SparsePoly.zero(self.vars, self.domain)
        if self.domain.kind == "prime":
            p = self.domain.p
            out = {e: (c * value) % p for e, c in self.terms.items()}
        else:
            out = {e: c * value for e, c in self.terms.items()}
        return SparsePoly(self.vars, self.domain, out, copy=False)

    def __pow__(self, n: int):
        if n < 0:
            raise BadParams("negative polynomial power")
        one = SparsePoly.const(self.vars, self.domain, 1)
        return _power(self, n, operator.mul, one)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.vars == other.vars
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.vars, self.domain, frozenset(self.terms.items()))
        )

    # -- calculus and structure ----------------------------------------

    def derivative(self, var: str) -> "SparsePoly":
        if var not in self.vars:
            raise BadParams(f"unknown variable {var!r}")
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            if self.domain.kind == "prime":
                nc = (c * k) % self.domain.p
            else:
                nc = c * k
            if nc == 0:
                continue
            ne = e[:i] + (k - 1,) + e[i + 1 :]
            out[ne] = nc
        return SparsePoly(self.vars, self.domain, out, copy=False)

    def frobenius(self) -> "SparsePoly":
        """p-th power, computed coefficient-wise: exponents scale by p and
        coefficients map through the Frobenius of the coefficient field."""
        if self.domain.kind == "rational":
            raise DomainMismatch("Frobenius requires positive characteristic")
        p = self.domain.characteristic
        # Fermat: c^p = c in GF(p), so only the exponents change
        out = {tuple(x * p for x in e): c for e, c in self.terms.items()}
        return SparsePoly(self.vars, self.domain, out, copy=False)

    def evaluate(self, point: dict):
        """Evaluate at a point given as {var: value}.  Values may be ints,
        Fractions (rational domain) or FieldElement (finite domains,
        including extension values over prime-domain polynomials)."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise BadParams(f"missing values for {missing}")
        if self.domain.kind == "rational":
            coerce = lambda v: v if isinstance(v, Fraction) else Fraction(v)
            zero, one = Fraction(0), Fraction(1)
            values = [coerce(point[v]) for v in self.vars]
        else:
            field = None
            for v in self.vars:
                val = point[v]
                if isinstance(val, FieldElement):
                    if field is None:
                        field = val.field
                    elif field != val.field:
                        raise DomainMismatch("mixed evaluation fields")
            if field is None:
                field = FieldDescriptor(self.domain.characteristic)
            if field.p != self.domain.characteristic:
                raise DomainMismatch("evaluation field has wrong characteristic")
            values = [
                point[v]
                if isinstance(point[v], FieldElement)
                else field.element(int(point[v]))
                for v in self.vars
            ]
            zero, one = field.zero(), field.one()
        # fast path: prime-domain polynomial at prime-field points
        if (
            self.domain.kind == "prime"
            and all(v.field.e == 1 for v in values)
        ):
            p = self.domain.p
            ints = [v.coords[0] for v in values]
            acc = 0
            powcache = [dict() for _ in ints]
            for e, c in self.terms.items():
                t = c
                for i, k in enumerate(e):
                    if k:
                        pc = powcache[i]
                        if k not in pc:
                            pc[k] = pow(ints[i], k, p)
                        t = (t * pc[k]) % p
                acc = (acc + t) % p
            return values[0].field.element(acc) if values else (
                FieldDescriptor(p).element(acc)
            )
        acc = zero
        powcache = [dict() for _ in values]
        for e, c in self.terms.items():
            t = one
            for i, k in enumerate(e):
                if k:
                    pc = powcache[i]
                    if k not in pc:
                        pc[k] = values[i] ** k
                    t = t * pc[k]
            acc = acc + t * c
        return acc

    def substitute(self, assignments: dict) -> "RatFunc":
        """Substitute rational functions for variables; unassigned variables
        must exist in the target universe and map to themselves.  See
        :func:`_substitution` for how the result is formed."""
        if not assignments:
            return RatFunc(self)
        return RatFunc(*_substitution(self, assignments))

    def monic(self):
        """Return (unit, monic poly) with poly = self / unit."""
        if self.is_zero():
            raise BadParams("zero polynomial cannot be made monic")
        lead = self.leading_coefficient()
        inv = self.domain.inv(lead)
        return lead, self.scale(inv)

    def serialize(self) -> str:
        """Deterministic text form: graded-lex descending monomial order."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_gradlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            cs = str(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"SparsePoly({self.serialize()})"


def _mul_schoolbook(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Term-by-term product through dicts; the reference for every domain."""
    out = {}
    if f.domain.kind == "prime":
        p = f.domain.p
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % p
        out = {e: c for e, c in out.items() if c}
    else:
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        out = {e: c for e, c in out.items() if c != 0}
    return SparsePoly(f.vars, f.domain, out, copy=False)


# -- packed GF(p) kernel ------------------------------------------------
#
# A packed polynomial is a pair (keys, vals) of int64 arrays: keys are the
# Kronecker-packed exponent tuples, sorted and distinct, and vals their
# nonzero residues mod p.  For p < 2^31 a product of two residues is below
# 2^62, and products are summed unreduced only as many at a time as int64
# holds, so the kernel is exact.


def _term_arrays(poly: SparsePoly):
    """Exponent matrix (terms x variables) and value vector of ``poly``."""
    n = len(poly.terms)
    exps = np.array(list(poly.terms), dtype=np.int64).reshape(n, len(poly.vars))
    vals = np.fromiter(poly.terms.values(), dtype=np.int64, count=n)
    return exps, vals


def _degree_bound(exps: np.ndarray) -> np.ndarray:
    """Per-variable maximum exponent of a term matrix (zeros when empty)."""
    if not len(exps):
        return np.zeros(exps.shape[1], dtype=np.int64)
    return exps.max(axis=0)


class _Kronecker:
    """Packing of exponent tuples below per-variable radices into int64;
    every key is below ``span``, the product of the radices."""

    def __init__(self, radices):
        self.radices = np.array([int(r) for r in radices], dtype=np.int64)
        self.strides = np.empty(len(self.radices), dtype=np.int64)
        acc = 1
        for i, r in enumerate(self.radices.tolist()):
            self.strides[i] = acc
            acc *= r
        if acc >= (1 << 62):
            raise SizeExceeded("exponent packing overflow in fast multiply")
        self.span = acc

    def pack(self, exps: np.ndarray, vals: np.ndarray):
        keys = exps @ self.strides
        order = np.argsort(keys, kind="stable")
        return keys[order], vals[order]

    def exponents(self, keys) -> np.ndarray:
        """Exponent matrix (keys x variables) of packed keys."""
        return keys[:, None] // self.strides % self.radices

    def unpack(self, keys, vals, variables, domain) -> SparsePoly:
        exps = map(tuple, self.exponents(keys).tolist())
        terms = dict(zip(exps, vals.tolist()))
        return SparsePoly(variables, domain, terms, copy=False)


def _packed_merge(keys, vals, p: int):
    """Sum the values of equal keys mod p and drop zero sums; keys made of
    sorted runs sort in near-linear time.  ``vals`` is an array or, for
    keys that are a raveled outer sum, the pair (u, w) whose outer product
    gives the values, formed in sorted order a block at a time.  Each key's
    sum, inside int64, is a difference of a running uint64 sum, exact under
    wrap-around.  Inputs are consumed: with no other reference, at most
    three arrays of their length are held.  Returns sorted distinct keys."""
    if not len(keys):
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if isinstance(vals, tuple):
        (u, w), vals = vals, np.empty_like(keys)
        for a in range(0, len(order), 1 << 14):
            i, j = np.divmod(order[a : a + (1 << 14)], len(w))
            np.multiply(u[i], w[j], out=vals[a : a + (1 << 14)])
        if len(u) * (p - 1) ** 2 >= 1 << 63:
            vals %= p
    else:
        vals = vals[order]
    del order
    last = np.concatenate((keys[1:] != keys[:-1], (True,)))
    if np.count_nonzero(last) < len(keys):
        vals = np.add.accumulate(vals.view(np.uint64), out=vals.view(np.uint64))[last]
        vals[1:] -= vals[:-1].copy()
        vals, keys = vals.view(np.int64), keys[last]
    vals %= p
    if np.count_nonzero(vals) == len(vals):
        return keys, vals  # a late copy of a long sum leaves holes in the heap
    keep = vals != 0
    keys = keys[keep]
    return keys, vals[keep]


def _packed_add(parts, p: int):
    """Sum of packed polynomials.  Unless the longest part has at least
    ``_INSERT_RATIO`` times the terms of the others, all are merged in one
    pass.  Otherwise the others are, and their sum is inserted into the
    longest at the places ``np.searchsorted`` finds, so the long sorted
    part is copied once and never sorted again.  It empties the list
    ``parts``: a part the caller holds no other reference to is freed once
    copied."""
    if len(parts) == 1:
        return parts.pop()
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    big = max(range(len(parts)), key=lambda i: len(parts[i][0]))
    rest_terms = sum(len(k) for k, _ in parts) - len(parts[big][0])
    if _INSERT_RATIO * rest_terms > len(parts[big][0]):
        keys, vals = zip(*parts)
        parts.clear()
        keys = np.concatenate(keys)  # frees the parts' keys
        return _packed_merge(keys, np.concatenate(vals), p)
    kl, vl = parts.pop(big)
    ks, vs = _packed_add(parts, p)
    pos = np.searchsorted(kl, ks)
    hit = kl[np.minimum(pos, len(kl) - 1)] == ks
    fresh = ~hit
    at = pos[fresh]
    # an old term i moves past the new keys inserted at or before it
    idx = pos[hit] + np.searchsorted(at, pos[hit], side="right")
    sums = (vl[pos[hit]] + vs[hit]) % p
    gone = idx[sums == 0]
    # one array at a time, each freed once copied: one copy is unfinished
    keys = np.insert(kl, at, ks[fresh])
    del kl
    if len(gone):
        keys = np.delete(keys, gone)
    vals = np.insert(vl, at, vs[fresh])
    del vl
    vals[idx] = sums
    if len(gone):
        vals = np.delete(vals, gone)
    return keys, vals


def _dense_mul(ka, va, kb, vb, p: int):
    """Product of packed polynomials, ``ka`` the shorter with at least two
    terms, accumulated in a dense line array; None, with no array
    allocated, when the array would have more cells than there are pairs.
    An array of more than ``DEFAULT_TERM_CAP`` cells is never allocated
    either: the product is then the sum of the products with the two
    halves of the operand whose keys spread wider.

    The keys of ``ka`` are ka[0] + t_i·δ, δ the gcd of their differences.
    The keys of ``kb`` fall into classes by residue mod δ, and each class
    gets a line of cells, one per quotient k // δ from its first key's to
    its last's plus t_max; the lines lie end to end.  Term i adds va_i·vb
    to the cells t_i past those of ``kb``.  The cells are reduced mod p
    whenever one more row could carry a sum past int64, so every p < 2^31
    is exact, and the nonzero cells are read back as keys, which need a
    sort only when there are several classes.
    """
    t = ka - ka[0]
    delta = int(np.gcd.reduce(t))
    t //= delta
    quot, res = np.divmod(kb, delta)
    order = np.argsort(res, kind="stable") if delta > 1 else slice(None)
    quot, res, vals = quot[order], res[order], vb[order]
    firsts = np.flatnonzero(np.concatenate(([True], res[1:] != res[:-1])))
    counts = np.diff(np.append(firsts, len(kb)))
    lengths = quot[firsts + counts - 1] - quot[firsts] + 1 + int(t[-1])
    # summed as floats, which cannot wrap around; a count that passes is exact
    cells = lengths.sum(dtype=np.float64)
    if cells > len(ka) * len(kb):
        return None
    cells = int(cells)
    if cells > DEFAULT_TERM_CAP:
        # the wider operand's spread sets the lines' lengths or their pad
        if ka[-1] - ka[0] > kb[-1] - kb[0]:
            ka, va, kb, vb = kb, vb, ka, va
        half = len(kb) // 2
        halves = [_packed_mul((ka, va), (kb[:half], vb[:half]), p)]
        halves.append(_packed_mul((ka, va), (kb[half:], vb[half:]), p))
        keys, vals = _packed_add(halves, p)
        if len(keys) > DEFAULT_TERM_CAP:
            raise SizeExceeded("fast multiply result exceeds term cap")
        return keys, vals
    starts = np.cumsum(lengths) - lengths
    shift = starts - quot[firsts]  # a key's cell is its quotient plus its class's shift
    cell = quot + np.repeat(shift, counts)
    acc = np.zeros(cells, dtype=np.int64)
    row = np.empty_like(vals)
    # a cell below p gains at most (p-1)^2 per row
    rows = ((1 << 63) - p) // (p - 1) ** 2
    for i, (step, vi) in enumerate(zip(np.diff(t, prepend=0).tolist(), va.tolist())):
        if i and not i % rows:
            acc %= p
        cell += step
        np.add.at(acc, cell, np.multiply(vals, vi, out=row))
    acc %= p
    cell = np.flatnonzero(acc)
    line = np.searchsorted(starts, cell, side="right") - 1
    keys = ka[0] + res[firsts][line] + (cell - shift[line]) * delta
    vals = acc[cell]
    if len(firsts) > 1:
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
    return keys, vals


def _packed_mul(a, b, p: int):
    """Product of packed polynomials.  A one-term operand only shifts the
    other's keys and scales its values.  A product of at least
    ``_DENSE_MIN_PAIRS`` pairs whose short operand has three terms or more
    goes to :func:`_dense_mul`; what it declines forms outer sums of keys
    and products of values in chunks of about ``_FAST_CHUNK_PAIRS`` pairs,
    each merged into the sum of the chunks before it.  SizeExceeded is
    raised once that sum passes ``DEFAULT_TERM_CAP`` terms, so a product
    whose first rows pass the cap is refused even if later rows would
    cancel it back below."""
    (ka, va), (kb, vb) = a, b
    if len(ka) > len(kb):
        ka, va, kb, vb = kb, vb, ka, va
    if not len(ka):
        return ka, va
    if len(ka) == 1:
        # a shift keeps the keys sorted and distinct, and a product of
        # nonzero residues mod a prime is nonzero: nothing to merge
        if len(kb) > DEFAULT_TERM_CAP:
            raise SizeExceeded("fast multiply result exceeds term cap")
        vals = vb * va
        vals %= p
        return kb + ka, vals
    if len(ka) >= 3 and len(ka) * len(kb) >= _DENSE_MIN_PAIRS:
        product = _dense_mul(ka, va, kb, vb, p)
        if product is not None:
            return product
    chunk = max(1, _FAST_CHUNK_PAIRS // len(kb))
    sums = []  # the sum of the chunks before this one
    for start in range(0, len(ka), chunk):
        rows = slice(start, start + chunk)
        # each array is held only by the merge or sum it goes to
        sums.append(_packed_merge(np.add.outer(ka[rows], kb).ravel(), (va[rows], vb), p))
        sums.append(_packed_add(sums, p))
        if len(sums[0][0]) > DEFAULT_TERM_CAP:
            raise SizeExceeded("fast multiply result exceeds term cap")
    return sums.pop()


def _mul_prime_fast(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """GF(p) product on the packed kernel, for p < 2^31.  Operands whose
    packed keys would not fit in int64 take the schoolbook product."""
    p = f.domain.p
    if p >= _PACKED_P_LIMIT:
        raise BadParams(f"the packed kernel needs p < 2^31, got {p}")
    (ef, vf), (eg, vg) = _term_arrays(f), _term_arrays(g)
    try:
        kron = _Kronecker(_degree_bound(ef) + _degree_bound(eg) + 1)
    except SizeExceeded:
        return _mul_schoolbook(f, g)
    keys, vals = _packed_mul(kron.pack(ef, vf), kron.pack(eg, vg), p)
    return kron.unpack(keys, vals, f.vars, f.domain)


def _grouped_sum(items, powers, p: int):
    """Sum over ``items`` (packed polynomial, factor keys) of the
    polynomial times ``powers[key]`` for each of its keys, multiplying a
    factor power shared by several items once, onto their sum.

    The power picked is the one shared by the most items, ties going to
    the power with more terms; its items are summed recursively without
    it and the sum is multiplied by it once, and the other items are
    summed recursively.  A one-term polynomial keeps its own products,
    which only shift keys (see :func:`_packed_mul`), and a one-term power
    is never picked, as multiplying it onto a sum costs what it costs on
    the items.  An item left ungrouped folds its one-term powers into its
    first power of another term count (an empty power stays empty), so
    the item meets one product per such power, in their given order.
    """
    counts = {}
    for acc, keys in items:
        if len(acc[0]) > 1:
            for key in dict.fromkeys(keys):
                if len(powers[key][0]) > 1:
                    counts[key] = counts.get(key, 0) + 1
    best = max(
        counts, key=lambda key: (counts[key], len(powers[key][0])), default=None
    )
    if best is None or counts[best] < 2:
        parts = []
        while items:
            acc, keys = items.pop(0)
            # one-term powers shift the first other power, not the item
            factors = sorted((powers[key] for key in keys), key=lambda f: len(f[0]) == 1)
            while len(factors) > 1 and len(factors[-1][0]) == 1:
                factors[0] = _packed_mul(factors.pop(), factors[0], p)
            for factor in factors:
                acc = _packed_mul(acc, factor, p)
            parts.append(acc)
            del acc
        return _packed_add(parts, p)
    shared, rest = [], []
    while items:
        acc, keys = items.pop(0)
        if len(acc[0]) > 1 and best in keys:
            keys = list(keys)
            keys.remove(best)
            shared.append((acc, keys))
        else:
            rest.append((acc, keys))
    del acc
    parts = [_packed_mul(_grouped_sum(shared, powers, p), powers[best], p)]
    if rest:
        parts.append(_grouped_sum(rest, powers, p))
    return _packed_add(parts, p)


class Coordinates(NamedTuple):
    """Polynomials 0..count-1 in coordinate form: polynomial ``index[i]``
    has the term ``vals[i]`` times the monomial with packed key
    ``keys[i]``, whose exponent of variable v is its digit v under
    ``radices`` (the first variable's digit lowest).  Within one
    polynomial the keys are distinct and the values nonzero.  Exponent
    rows are unpacked only when :attr:`exps` or :meth:`polys` is read."""

    keys: np.ndarray  # int64, one packed monomial per term
    index: np.ndarray  # int64, one polynomial index per term
    vals: np.ndarray  # int64 residues
    count: int
    radices: np.ndarray  # int64, one per variable

    @property
    def exps(self) -> np.ndarray:
        """Exponent matrix (terms x variables) of the keys."""
        return _Kronecker(self.radices).exponents(self.keys)

    def polys(self, variables, domain) -> list:
        """The polynomials as SparsePoly, in index order."""
        terms = [{} for _ in range(self.count)]
        rows = map(tuple, self.exps.tolist())
        for j, e, c in zip(self.index.tolist(), rows, self.vals.tolist()):
            terms[j][e] = c
        return [SparsePoly(variables, domain, t, copy=False) for t in terms]


class SparseVector(NamedTuple):
    """A coefficient vector of ``size`` entries, zero but for its
    ``nonzero`` (index, value) pairs, as :func:`homogenized_sums` reads
    it: a unit vector costs one pair, not a scan of its zeros."""

    size: int
    nonzero: tuple


def _stack(parts):
    """Packed polynomials whose keys lie in increasing disjoint ranges,
    laid end to end: the keys stay sorted and distinct.  Empties ``parts``."""
    if len(parts) == 1:
        return parts.pop()
    empty = np.zeros(0, dtype=np.int64)
    keys, vals = zip((empty, empty), *parts)
    parts.clear()
    return np.concatenate(keys), np.concatenate(vals)


@lru_cache(maxsize=8)
def _factorials(p: int, n: int):
    """k! and 1/k! mod p for k = 0..n, n < p, as read-only int64 arrays."""
    fact = list(accumulate(range(1, n + 1), lambda a, b: a * b % p, initial=1))
    inv = [pow(fact[-1], p - 2, p)]
    for k in range(n, 0, -1):
        inv.append(inv[-1] * k % p)
    tables = np.array(fact, dtype=np.int64), np.array(inv[::-1], dtype=np.int64)
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=256)
def _residue_powers(v: int, n: int, p: int):
    """v^0..v^n mod p as a read-only int64 array."""
    out = np.array(list(accumulate(repeat(v, n), lambda a, b: a * b % p, initial=1)))
    out.flags.writeable = False
    return out


def _binomial_powers(base, deg: int, p: int):
    """Powers 0..deg of a packed polynomial of one term, or of two terms
    with deg <= p, in closed form: one flat list (keys, vals, starts),
    power j holding the terms starts[j]:starts[j + 1].

    With keys k0 < k1 and values v0, v1, power j has the term
    C(j, i) v0^j (v1/v0)^i at the key j*k0 + i*(k1 - k0), i = 0..j, sorted
    by i and distinct; a one-term base has i = 0 only.  For j < p the
    binomial is j!/(i!(j-i)!) mod p, which is not zero; by Lucas' theorem
    C(p, i) = C(0, i mod p) is zero for 0 < i < p, and those terms are
    dropped.  The list is the one a chain of products would give.
    """
    keys, vals = base
    top = len(keys) - 1  # the largest i of power 1
    rows = np.arange(deg + 1)
    sizes = rows * top + 1
    j = np.repeat(rows, sizes)
    i = np.arange(len(j)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    v0 = int(vals[0])
    ratio = int(vals[-1]) * pow(v0, p - 2, p) % p
    out = _residue_powers(v0, deg, p)[j] * _residue_powers(ratio, deg, p)[i] % p
    if top:
        fact, inv = _factorials(p, min(deg, p - 1))
        jr, ir = j % p, i % p
        binom = fact[jr] * inv[ir] % p * inv[np.maximum(jr - ir, 0)] % p
        out = np.where(ir <= jr, out * binom % p, 0)
        keep = out != 0
        j, i, out = j[keep], i[keep], out[keep]
    starts = np.zeros(deg + 2, dtype=np.int64)
    np.cumsum(np.bincount(j, minlength=deg + 1), out=starts[1:])
    return j * keys[0] + i * (keys[-1] - keys[0]), out, starts


def _power_of(flat, j: int):
    """Power j of a flat list of powers, as a packed polynomial (views)."""
    keys, vals, starts = flat
    return keys[starts[j] : starts[j + 1]], vals[starts[j] : starts[j + 1]]


def _pair_products(a, ja, b, jb, shifts, coeffs, p: int):
    """Sum over t of coeffs[t] times power ja[t] of the flat list ``a``
    times power jb[t] of ``b`` (lists as :func:`_binomial_powers` gives
    them), each product's keys raised by shifts[t]: the outer sums and
    products of every pair in one pass, and one merge.  Each row (a term
    of a power of ``a``) is scaled and shifted once, then repeated over
    the terms of its power of ``b``."""
    (ka, va, sa), (kb, vb, sb) = a, b
    rows_of = sa[ja + 1] - sa[ja]
    pair = np.repeat(np.arange(len(ja)), rows_of)
    row = np.arange(len(pair)) - np.repeat(np.cumsum(rows_of) - rows_of, rows_of) + sa[ja][pair]
    width = (sb[jb + 1] - sb[jb])[pair]
    first = np.cumsum(width) - width  # each row's first entry
    cols = np.arange(first[-1] + width[-1] if len(width) else 0)
    cols -= np.repeat(first - sb[jb][pair], width)
    keys = np.repeat(ka[row] + shifts[pair], width) + kb[cols]
    vals = np.repeat(va[row] * coeffs[pair] % p, width) * vb[cols] % p
    del pair, row, width, first, cols
    return _packed_merge(keys, vals, p)


def homogenized_sums(terms, deg: int, vectors, variables, domain) -> Coordinates:
    """Sums over ``terms`` of homogenized polynomials times factor powers,
    one per coefficient vector, over GF(p) with p < 2^31 (BadParams
    otherwise), returned in coordinate form with one index per vector.

    ``terms`` holds triples ``(n, d, factors)``: SparsePoly n and d, and
    (SparsePoly f, exponent k) pairs.  For each w = (w_0, ..., w_deg) in
    ``vectors``, a sequence or a :class:`SparseVector`, the result is the
    sum over the terms of (sum_j w_j n^j d^(deg-j)) * prod f^k.  Every
    polynomial is packed once, with per-variable radix
    max(deg * max(deg n, deg d) + sum k deg f) + 1 over the terms, and
    stays packed: the results keep their keys and these radices.  The
    vectors are stacked in one block: vector i gets one more Kronecker
    digit z^i, so a term's homogenized part is
    sum_i z^i sum_j w_ij n^j d^(deg-j), and one
    :func:`_grouped_sum` covers every vector.  Factor powers have no z
    digit, so a factor power (the same f object with the same k) that
    several terms share is multiplied once, onto the sum of their parts;
    the other factors are multiplied onto the part in their given order.
    Equal arguments share one list of powers.  A factor power f^k with
    k >= p is f^r times the Frobenius image f^q(x^p) = (f^q)^p, where
    k = pq + r and f^q is built the same way: over GF(p) the image has
    the terms of f^q, and its packed keys are those of f^q times p, whose
    digits p * q * deg f <= k * deg f stay below the radices.

    The power list of an n or d of one term, or of two terms with
    deg <= p, is written down in closed form (:func:`_binomial_powers`);
    longer ones are chains of products.  The parts n^j d^(deg-j) of
    fewer than ``_PASS_PAIRS`` pairs are formed in batched passes of about
    that many pairs, each one set of outer sums and one merge
    (:func:`_pair_products`), across the coefficients of a vector and
    across vectors; larger parts are single :func:`_packed_mul` products.
    Passes and products whose keys lie above all before them (those of
    later vectors) are stacked; the others (one vector's) are merged in
    once they outnumber the terms of their sum so far, so memory stays
    near the size of the sum.

    SizeExceeded is raised when the packed keys would not fit in int64,
    and before the products building the powers of n, d and f (each
    counted at |a| * |b| terms, a closed-form list at what its chain would
    count; the powers of a nonzero n or d count at least deg) would pass
    ``DEFAULT_TERM_CAP`` terms.  Only then is ``vectors`` read, one vector
    at a time.  The block is never split: SizeExceeded is raised, naming
    the number of vectors read, as soon as the vectors would overflow the
    packed keys under their z digits, the stacked parts pass
    ``DEFAULT_TERM_CAP`` terms, a product of the stacked sum passes it
    (see :func:`_packed_mul`), or the sums do.  Parts are built for a
    chunk of vectors at a time, while the pairs of their products keep
    the chunk below the cap; a vector that may pass the cap is built
    alone, so the refusal names the same vector as building each vector
    when it is read would.
    """
    if domain.kind != "prime" or domain.p >= _PACKED_P_LIMIT:
        raise BadParams(f"packed sums need GF(p) with p < 2^31, not {domain!r}")
    p = domain.p
    arrays = {}  # id -> (exps, vals) of every input polynomial
    for n, d, factors in terms:
        for f in (n, d, *(f for f, _k in factors)):
            if id(f) not in arrays:
                arrays[id(f)] = _term_arrays(f)
    too_big = f"powers up to degree {deg} would exceed {DEFAULT_TERM_CAP} terms"
    floor = deg * sum(bool(f.terms) for n, d, _fs in terms for f in (n, d))
    if floor > DEFAULT_TERM_CAP:
        raise SizeExceeded(too_big)
    degs = {key: _degree_bound(exps) for key, (exps, _vals) in arrays.items()}
    bound = np.zeros(len(variables), dtype=np.int64)
    for n, d, factors in terms:
        top = deg * np.maximum(degs[id(n)], degs[id(d)])
        for f, k in factors:
            top += k * degs[id(f)]
        np.maximum(bound, top, out=bound)
    kron = _Kronecker(bound + 1)
    packed = {key: kron.pack(*ev) for key, ev in arrays.items()}
    kept = 0  # bound on the terms of the powers built so far

    def charge(terms):
        nonlocal kept
        kept += terms
        if kept > DEFAULT_TERM_CAP:
            raise SizeExceeded(too_big)

    def grow(a, b):
        charge(len(a[0]) * len(b[0]))
        return _packed_mul(a, b, p)

    one = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))

    def factor_power(base, k):
        # f^(pq+r) = f^r * f^q(x^p), the image's keys those of f^q times p
        if k < p:
            return _power(base, k, grow, one)
        q, r = divmod(k, p)
        keys, vals = factor_power(base, q)
        return grow(_power(base, r, grow, one), (keys * p, vals))

    def power_list(base):
        # powers 0..deg as one flat list, charged what the chain of
        # products pows[j] = pows[j-1] * base is charged: |pows[j-1]| * |base|
        # for j = 1..deg, where |pows[j-1]| = j below p
        size = len(base[0])
        if size == 1 or (size == 2 and deg <= p):
            charge(deg if size == 1 else deg * (deg + 1))
            return _binomial_powers(base, deg, p)
        pows = [one]
        for _ in range(deg):
            pows.append(grow(pows[-1], base))
        keys, vals = zip(*pows)
        return np.concatenate(keys), np.concatenate(vals), np.cumsum([0, *map(len, keys)])

    # factor powers first: square-and-multiply reaches a refusal in a few
    # products, where the power lists take deg of them per term
    powers = {}  # (id, exponent) -> packed factor power
    for _n, _d, factors in terms:
        for f, k in factors:
            if (id(f), k) not in powers:
                powers[id(f), k] = factor_power(packed[id(f)], k)
    # arguments equal as packed arrays share one list of powers
    lists = {}  # packed bytes -> flat list of the powers 0..deg
    built = []
    for n, d, factors in terms:
        pow_lists = []
        for base in (packed[id(n)], packed[id(d)]):
            key = base[0].tobytes(), base[1].tobytes()
            if key not in lists:
                lists[key] = power_list(base)
            pow_lists.append(lists[key])
        n_list, d_list = pow_lists
        # pairs[j]: the pairs of terms of n^j * d^(deg-j)
        pairs = (np.diff(n_list[2]) * np.diff(d_list[2])[::-1]).tolist()
        built.append((n_list, d_list, pairs, [(id(f), k) for f, k in factors]))
    # a vector's parts have at most the pairs of their products as terms
    most = [sum(col) for col in zip(*(pairs for *_lists, pairs, _fkeys in built))]
    most = most or [0] * (deg + 1)

    def part(n_list, d_list, pairs, triples):
        # sum over (shift, j, c) of c * n^j * d^(deg-j), keys raised by
        # shift: products of fewer than _PASS_PAIRS pairs are taken in
        # batched passes of about that many pairs, larger ones one by one
        def products():
            batch, batch_pairs = [], 0
            for shift, j, c in triples:
                if pairs[j] >= _PASS_PAIRS:
                    keys, vals = _packed_mul(
                        _power_of(n_list, j), _power_of(d_list, deg - j), p
                    )
                    # the scaled values first: with the shifted keys first,
                    # glibc leaves the freed product's blocks unused, and
                    # a refused FEIT solve at p=503 peaked at 263 MB, not
                    # 190 MB (whole process)
                    vals = vals * c % p
                    yield keys + shift, vals
                    continue
                batch.append((shift, j, c))
                batch_pairs += pairs[j]
                if batch_pairs >= _PASS_PAIRS:
                    yield batched(batch)
                    batch, batch_pairs = [], 0
            if batch:
                yield batched(batch)

        def batched(batch):
            shifts, js, coeffs = (np.array(col, dtype=np.int64) for col in zip(*batch))
            return _pair_products(n_list, js, d_list, deg - js, shifts, coeffs, p)

        # a product whose keys lie above all before it starts a new run,
        # and the runs, sorted and in increasing key ranges, are returned
        # to be stacked once; within a run (one vector's products) the
        # products are merged in once they outnumber the sum's terms, so
        # memory stays near the size of the sum, not of all products
        runs, acc, pending, pending_size, top = [], None, [], 0, -1
        for keys, vals in products():
            if not len(keys):
                continue
            if keys[0] > top:
                if acc is not None:
                    runs.append(_packed_add([acc, *pending], p))
                acc, pending, pending_size = (keys, vals), [], 0
            else:
                pending.append((keys, vals))
                pending_size += len(keys)
                if pending_size > len(acc[0]):
                    acc, pending, pending_size = _packed_add([acc, *pending], p), [], 0
            top = max(top, int(keys[-1]))
        if acc is not None:
            runs.append(_packed_add([acc, *pending], p))
        return runs

    def build(chunk):
        # the parts of the vectors of ``chunk``, appended to each term's runs
        nonlocal size
        triples = [(shift, j, c) for shift, nonzero in chunk for j, c in nonzero]
        for term_parts, (n_list, d_list, pairs, _fkeys) in zip(stacked, built):
            runs = part(n_list, d_list, pairs, triples)
            size += sum(len(keys) for keys, _vals in runs)
            if size > DEFAULT_TERM_CAP:
                raise SizeExceeded(
                    f"the parts of the first {count} vectors exceed {DEFAULT_TERM_CAP} terms"
                )
            term_parts.extend(runs)

    # the z digit sits above the variables' digits: the keys of `widest`
    # stacked vectors stay below 2^62
    widest = ((1 << 62) - 1) // kron.span
    stacked = [[] for _ in built]  # per term, the stacked parts in z order
    count = size = 0
    # Vectors are built a chunk at a time.  A chunk whose parts are bounded
    # below the cap by their pairs cannot be refused; a vector that may
    # pass it is built alone, so a refusal names the vector whose parts
    # pass the cap, as if every vector were built as it is read.
    chunk, chunk_bound = [], 0
    for count, w in enumerate(vectors, 1):
        sparse = isinstance(w, SparseVector)
        length, entries = (w.size, w.nonzero) if sparse else (len(w), enumerate(w))
        if length != deg + 1:
            raise BadParams(f"need {deg + 1} coefficients, got {length}")
        if count > widest:
            raise SizeExceeded(f"more than {widest} vectors overflow the packed keys")
        # zero coefficients of a dense vector cost one truth test each
        nonzero = [(j, c) for j, wj in entries if wj and (c := int(wj) % p)]
        bound = sum(most[j] for j, _c in nonzero)
        if chunk and size + chunk_bound + bound > DEFAULT_TERM_CAP:
            build(chunk)
            chunk, chunk_bound = [], 0
        chunk.append(((count - 1) * kron.span, nonzero))
        chunk_bound += bound
        if size + chunk_bound > DEFAULT_TERM_CAP:
            build(chunk)
            chunk, chunk_bound = [], 0
    if chunk:
        build(chunk)
    items = [(_stack(parts), fkeys) for parts, (*_pows, fkeys) in zip(stacked, built)]
    del built, lists  # the power lists are done
    try:
        keys, vals = _grouped_sum(items, powers, p)
    except SizeExceeded as exc:
        raise SizeExceeded(
            f"a product over the {count} stacked vectors exceeds {DEFAULT_TERM_CAP} terms"
        ) from exc
    if len(keys) > DEFAULT_TERM_CAP:
        raise SizeExceeded(f"the sums over the {count} vectors exceed {DEFAULT_TERM_CAP} terms")
    # every array here was made by this call, so the keys can drop their
    # z digit in place
    index = keys // kron.span
    keys %= kron.span
    return Coordinates(keys, index, vals, count, kron.radices)


def exact_divide(f: SparsePoly, g: SparsePoly):
    """Return f / g if g divides f exactly, else None (graded-lex division).

    The remainder's exponents also sit in a heap ordered by descending
    graded-lex key, so each leading term costs O(log n); an exponent that
    cancels stays in the heap and is skipped when it surfaces.
    """
    f._compat(g)
    if g.is_zero():
        raise ZeroDenominator("division by the zero polynomial")
    if f.is_zero():
        return f
    glead = g.leading_exponent()
    gc_inv = f.domain.inv(g.terms[glead])
    rem = dict(f.terms)
    heap = [(_gradlex_descending(e), e) for e in rem]
    heapq.heapify(heap)
    quo = {}
    p = f.domain.p if f.domain.kind == "prime" else None
    # bail out early if the division cannot terminate quickly
    steps = 0
    max_steps = 4 * len(f.terms) + 64
    while rem:
        steps += 1
        if steps > max_steps:
            return None
        rlead = heapq.heappop(heap)[1]
        while rlead not in rem:
            rlead = heapq.heappop(heap)[1]
        diff = tuple(a - b for a, b in zip(rlead, glead))
        if any(d < 0 for d in diff):
            return None
        if p is not None:
            qc = (rem[rlead] * gc_inv) % p
        else:
            qc = rem[rlead] * gc_inv
        quo[diff] = qc
        for ge, gcoef in g.terms.items():
            e = tuple(a + b for a, b in zip(diff, ge))
            if p is not None:
                nc = (rem.get(e, 0) - qc * gcoef) % p
            else:
                nc = rem.get(e, 0) - qc * gcoef
            if nc == 0:
                rem.pop(e, None)
            else:
                if e not in rem:
                    heapq.heappush(heap, (_gradlex_descending(e), e))
                rem[e] = nc
    return SparsePoly(f.vars, f.domain, quo, copy=False)


def _substitution(poly: SparsePoly, assignments: dict):
    """Numerator and denominator factors of ``poly`` with the rational
    functions in ``assignments`` substituted for its variables, unreduced.

    With N_v / D_v the value of variable v (v itself when unassigned) and
    K_v the degree of ``poly`` in v, the numerator is
    sum_e c_e prod_v N_v^(e_v) D_v^(K_v - e_v), built in one pass over the
    terms from cached products N_v^j D_v^(K_v - j), over the factors of
    every D_v raised to K_v.  Raises DomainMismatch when the values differ
    in universe or domain, when they change the domain of ``poly``, or when
    an unassigned variable is missing from their universe.
    """
    sample = next(iter(assignments.values()))
    tvars, tdom = sample.num.vars, sample.num.domain
    for rf in assignments.values():
        if rf.num.vars != tvars or rf.num.domain != tdom:
            raise DomainMismatch("inconsistent substitution targets")
    if tdom != poly.domain:
        raise DomainMismatch("substitution changes the coefficient domain")
    values = []
    for v in poly.vars:
        if v in assignments:
            values.append(assignments[v])
        elif v in tvars:
            values.append(RatFunc(SparsePoly.variable(v, tvars, tdom)))
        else:
            raise DomainMismatch(f"variable {v!r} missing from target universe")
    columns = []  # (position, value, K_v, cache of N^j D^(K_v - j) by j)
    factors = []
    for i, value in enumerate(values):
        k = max((e[i] for e in poly.terms), default=0)
        if k:
            columns.append((i, value, k, {}))
            factors.extend((f, m * k) for f, m in value.factors)
    if not columns:  # poly is a constant
        return SparsePoly.const(tvars, tdom, poly.constant_value()), factors
    acc = {}
    for e, c in poly.terms.items():
        term = None
        for i, value, k, cache in columns:
            j = e[i]
            part = cache.get(j)
            if part is None:
                part = cache[j] = value.num**j
                if value.factors and j < k:
                    part = cache[j] = part * value.den ** (k - j)
            term = part if term is None else term * part
        for te, tc in term.terms.items():
            acc[te] = acc.get(te, 0) + c * tc
    return SparsePoly(tvars, tdom, acc), factors


_REDUCE_NUM_CAP = 6000


class RatFunc:
    """Rational function num / prod(factor^mult) with monic tracked factors."""

    __slots__ = ("num", "factors", "_den", "_sig")

    def __init__(self, num: SparsePoly, factors=(), *, reduce=True):
        norm = []
        for fac, mult in factors:
            if mult == 0:
                continue
            if mult < 0:
                raise BadParams("negative factor multiplicity")
            num._compat(fac)
            if fac.is_zero():
                raise ZeroDenominator("zero denominator factor")
            if fac.is_constant():
                c = fac.constant_value()
                num = num.scale(_pow_coeff(num.domain, num.domain.inv(c), mult))
                continue
            lead, monic_fac = fac.monic()
            if lead != 1:
                inv_l = num.domain.inv(lead)
                num = num.scale(_pow_coeff(num.domain, inv_l, mult))
            norm.append((monic_fac, mult))
        if reduce and norm and not num.is_zero() and len(num.terms) <= _REDUCE_NUM_CAP:
            reduced = []
            for fac, mult in norm:
                while mult > 0:
                    q = exact_divide(num, fac)
                    if q is None:
                        break
                    num = q
                    mult -= 1
                if mult:
                    reduced.append((fac, mult))
            norm = reduced
        if num.is_zero():
            norm = []
        # merge identical factors and order deterministically
        merged = {}
        for fac, mult in norm:
            key = fac.serialize()
            if key in merged:
                merged[key] = (fac, merged[key][1] + mult)
            else:
                merged[key] = (fac, mult)
        self.num = num
        self.factors = tuple(
            merged[k] for k in sorted(merged)
        )
        self._den = None
        self._sig = None  # (leading signature,) once computed

    # -- basic structure ---------------------------------------------

    @property
    def den(self) -> SparsePoly:
        if self._den is None:
            d = SparsePoly.const(self.num.vars, self.num.domain, 1)
            for fac, mult in self.factors:
                d = d * fac**mult
            self._den = d
        return self._den

    @classmethod
    def const(cls, variables, domain, value):
        return cls(SparsePoly.const(variables, domain, value))

    @classmethod
    def variable(cls, name, variables, domain):
        return cls(SparsePoly.variable(name, variables, domain))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return not self.factors and self.num.is_constant()

    def constant_value(self):
        if self.factors:
            raise BadParams("not a constant")
        return self.num.constant_value()

    def _compat(self, other):
        if not isinstance(other, RatFunc):
            raise DomainMismatch("expected a RatFunc")
        self.num._compat(other.num)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = RatFunc.const(self.num.vars, self.num.domain, other)
        self._compat(other)
        mine = {f.serialize(): (f, m) for f, m in self.factors}
        theirs = {f.serialize(): (f, m) for f, m in other.factors}
        union = {}
        for key, (f, m) in mine.items():
            union[key] = (f, max(m, theirs.get(key, (None, 0))[1]))
        for key, (f, m) in theirs.items():
            if key not in union:
                union[key] = (f, m)
        num1 = self.num
        num2 = other.num
        for key, (f, m) in union.items():
            extra1 = m - mine.get(key, (None, 0))[1]
            extra2 = m - theirs.get(key, (None, 0))[1]
            if extra1:
                num1 = num1 * f**extra1
            if extra2:
                num2 = num2 * f**extra2
        return RatFunc(num1 + num2, tuple(union.values()))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.factors, reduce=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = RatFunc.const(self.num.vars, self.num.domain, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return RatFunc(
                self.num.scale(other), self.factors, reduce=False
            )
        self._compat(other)
        return RatFunc(
            self.num * other.num, self.factors + other.factors
        )

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroInverse("inverse of the zero rational function")
        new_num = self.den
        if self.num.is_constant():
            return RatFunc(
                new_num.scale(self.num.domain.inv(self.num.constant_value()))
            )
        return RatFunc(new_num, ((self.num, 1),))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            inv = self.num.domain.inv(self.num.domain.coerce(other))
            return RatFunc(self.num.scale(inv), self.factors, reduce=False)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        one = RatFunc.const(self.num.vars, self.num.domain, 1)
        return _power(self, n, operator.mul, one)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = RatFunc.const(self.num.vars, self.num.domain, other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.num.vars != other.num.vars or self.num.domain != other.num.domain:
            return False
        if self.leading_signature() != other.leading_signature():
            return False
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("RatFunc is unhashable; use canonical_key()")

    # -- structure -------------------------------------------------------

    def leading_signature(self):
        """The graded-lex leading exponent of num minus those of the
        denominator factors (times their multiplicities), with num's leading
        coefficient; None for zero.

        Leading exponents add and leading coefficients multiply under
        products, and every factor is monic, so equal rational functions
        have equal signatures."""
        if self._sig is None:
            if self.num.is_zero():
                sig = None
            else:
                lead = self.num.leading_exponent()
                exps = list(lead)
                for fac, mult in self.factors:
                    for i, k in enumerate(fac.leading_exponent()):
                        exps[i] -= mult * k
                sig = (tuple(exps), self.num.terms[lead])
            self._sig = (sig,)
        return self._sig[0]

    def canonical_key(self):
        """Deterministic key identifying the reduced num/den pair up to a
        scalar on the numerator side (numerator made monic)."""
        if self.num.is_zero():
            return ("0", "1")
        _, monic_num = self.num.monic()
        den_key = ";".join(
            f"{f.serialize()}^{m}" for f, m in self.factors
        )
        return (monic_num.serialize(), den_key)

    def frobenius(self) -> "RatFunc":
        return RatFunc(
            self.num.frobenius(),
            tuple((f.frobenius(), m) for f, m in self.factors),
            reduce=False,
        )

    def derivative(self, var: str) -> "RatFunc":
        """Quotient-rule derivative; denominator factors gain one power."""
        if not self.factors:
            return RatFunc(self.num.derivative(var))
        # d(num/D) = num'/D - num * D'/D^2 with D = prod f_i^m_i,
        # D'/D = sum m_i f_i'/f_i
        num_d = self.num.derivative(var)
        total = RatFunc(num_d, self.factors)
        for fac, mult in self.factors:
            fd = fac.derivative(var)
            if fd.is_zero():
                continue
            piece = RatFunc(
                self.num * fd.scale(mult),
                self.factors + ((fac, 1),),
            )
            total = total - piece
        return total

    def evaluate(self, point: dict):
        den_val = None
        for fac, mult in self.factors:
            v = fac.evaluate(point)
            if v == 0:
                raise InadmissiblePoint("denominator vanishes at the point")
            term = v**mult
            den_val = term if den_val is None else den_val * term
        num_val = self.num.evaluate(point)
        if den_val is None:
            return num_val
        if isinstance(num_val, Fraction):
            return num_val / den_val
        return num_val * den_val.inverse()

    def substitute(self, assignments: dict) -> "RatFunc":
        """The image of num over the images of the factors, formed once.

        Each factor's image B / E (reduced) raised to its multiplicity m
        puts B^m among the factors, as one factor, and E^m on the numerator
        side, where it nets against the factors of num's image.  Raises
        ZeroDenominator when a factor's image is zero."""
        image = self.num.substitute(assignments)
        if not self.factors:
            return image
        num = image.num
        net = {f.serialize(): [f, m] for f, m in image.factors}
        tops = []
        for fac, mult in self.factors:
            fr = fac.substitute(assignments)
            if fr.is_zero():
                raise ZeroDenominator("substitution kills a denominator factor")
            top = fr.num**mult
            if top.is_constant():
                num = num.scale(num.domain.inv(top.constant_value()))
            else:
                tops.append((top, 1))
            for f, m in fr.factors:
                net.setdefault(f.serialize(), [f, 0])[1] -= m * mult
        for f, m in net.values():
            if m < 0:
                num = num * f ** (-m)
        return RatFunc(num, [(f, m) for f, m in net.values() if m > 0] + tops)

    def serialize(self) -> str:
        num = self.num.serialize()
        if not self.factors:
            return num
        den = "*".join(
            f"({f.serialize()})^{m}" if m > 1 else f"({f.serialize()})"
            for f, m in self.factors
        )
        return f"({num}) / {den}"

    def __repr__(self):
        return f"RatFunc({self.serialize()})"


def _pow_coeff(domain, c, n):
    return pow(c, n, domain.p) if domain.kind == "prime" else c**n
