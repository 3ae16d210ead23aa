"""Finite polylogarithms over GF(p) and the twisted evaluator.

The weight-n finite polylog is the polynomial sum_{k=1}^{p-1} T^k / k^n with
coefficients in GF(p); it is (p-1)-periodic in n.  The twisted evaluator
pairs a formal sum with polylog values after raising every coefficient to
the p-th power: applied symbolically it produces a rational function whose
vanishing is the polynomial (strong) form of a functional equation, applied
at a point it gives the pointwise (weak) form.
"""

from dataclasses import replace
from functools import lru_cache
from math import comb

import numpy as np

from .errors import BadParams, DepthExceeded, DomainMismatch, IndexOutOfRange, SizeExceeded
from .fields import (
    FieldDescriptor,
    FieldElement,
    _bernoulli_table_mod_p,
    _poly_mul_mod,
    _power,
    genocchi,
)
from .formal import FormalSum
from .poly import _PACKED_P_LIMIT, DEFAULT_TERM_CAP, PrimeDomain, RatFunc, SparsePoly
from .poly import homogenized_sums


@lru_cache(maxsize=None)
def finite_polylog(n: int, p: int, var: str = "T") -> SparsePoly:
    """The finite polylog polynomial sum_{k=1}^{p-1} T^k k^(-n) over GF(p)."""
    terms = {(k,): c for k, c in enumerate(_inv_power_table(n, p), 1)}
    return SparsePoly((var,), PrimeDomain(p), terms)


def l1_via_witt(p: int, var: str = "T") -> SparsePoly:
    """Weight-1 polylog via the Witt-style expression (1 - T^p - (1-T)^p)/p.

    The division by p happens in the integers before reduction, which gives
    an independent construction of the same polynomial.
    """
    terms = {}
    for k in range(1, p):
        c = -comb(p, k) * (-1) ** k
        if c % p:
            raise BadParams("unexpected non-divisibility")  # cannot happen
        val = (c // p) % p
        if val:
            terms[(k,)] = val
    return SparsePoly((var,), PrimeDomain(p), terms)


@lru_cache(maxsize=None)
def _inv_power_table(m: int, p: int):
    """Tuple of k^(-m) mod p for k = 1..p-1 (index k-1); SizeExceeded, before
    any entry is computed, when p-1 entries pass ``DEFAULT_TERM_CAP``."""
    if p - 1 > DEFAULT_TERM_CAP:
        raise SizeExceeded(
            f"the {p - 1} polylog coefficients of GF({p}) exceed {DEFAULT_TERM_CAP} entries"
        )
    e = (-m) % (p - 1)
    return tuple(pow(k, e, p) for k in range(1, p))


@lru_cache(maxsize=None)
def _ltilde_prime_table(m: int, p: int):
    """Tuple of the weight-m polylog values at x = 0..p-1 (index x).

    Horner's rule runs over all points at once as int64 arrays; every
    intermediate stays below 2p^2, so the table is exact for p < 2^31.
    """
    coeffs = _inv_power_table(m, p)
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for k in range(p - 1, 0, -1):
        acc = ((acc + coeffs[k - 1]) * xs) % p
    return tuple(acc.tolist())


def ltilde(m: int, x: FieldElement) -> FieldElement:
    """Pointwise finite polylog value at a field element (any GF(p^e)), by
    Horner's rule over :func:`_inv_power_table`: p - 1 steps, in ints over
    GF(p), so one value never builds the table of all p values."""
    field = x.field
    p = field.p
    coeffs = _inv_power_table(m, p)
    if field.e == 1:
        t, acc = x.coords[0], 0
        for c in reversed(coeffs):
            acc = (acc + c) * t % p
        return field.element(acc)
    acc = field.zero()
    for c in reversed(coeffs):
        acc = (acc + c) * x
    return acc


def lhat_eval(m: int, s: FormalSum, point: dict) -> FieldElement:
    """Twisted pointwise evaluation sum_i c_i(pt)^p * polylog_m(x_i(pt)).

    Raises InadmissiblePoint when any denominator vanishes at the point.
    """
    field = None
    for v in point.values():
        if isinstance(v, FieldElement):
            field = v.field
            break
    if field is None:
        field = FieldDescriptor(s.domain.characteristic)
        point = {k: field.element(int(v)) for k, v in point.items()}
    acc = field.zero()
    for c, x in s.terms:
        cv = c.evaluate(point)
        xv = x.evaluate(point)
        acc = acc + cv.frobenius() * ltilde(m, xv)
    return acc


def _grid_field(fld) -> FieldDescriptor:
    """The field of a batched evaluation (an int p means GF(p)); its
    residues must fit the int64 products of :func:`lhat_eval_grid`."""
    if isinstance(fld, int):
        fld = FieldDescriptor(fld)
    if fld.p >= _PACKED_P_LIMIT:
        raise BadParams(f"batched evaluation needs p < 2^31, got p={fld.p}")
    return fld


def lhat_eval_grid(m: int, s: FormalSum, cols, fld, points: int | None = None):
    """Twisted evaluation of ``s`` at a batch of points of a finite field.

    ``fld`` is a :class:`FieldDescriptor` or a prime p (GF(p)), with
    p < 2^31.  ``cols`` holds the points as an int64 array of shape
    (nvars, e, n): point j gives variable i the element with coordinates
    ``cols[i, :, j]`` (residues in [0, p), the coordinates of
    :class:`FieldElement`).  Over GF(p) the shape (nvars, n) is accepted as
    well.  Returns ``(mask, values)``: ``mask[j]`` is False exactly where
    :func:`lhat_eval` raises InadmissiblePoint, i.e. where some denominator
    factor of a coefficient or argument vanishes, and ``values[..., j]``
    holds the coordinates of sum_i c_i(pt)^p * polylog_m(x_i(pt)) there
    (0 where ``mask`` is False); ``values`` has the shape of one
    variable's coordinates, (e, n) or (n,).

    A batch of elements is an (e, k) array, one row per coordinate.  Over
    GF(p) a product is ``a * b % p`` on int64, exact as residues below
    2^31 multiply below 2^62; for e > 1 every product goes through
    :func:`~finpolylog.fields._poly_mul_mod`.
    Every distinct polynomial (numerator or denominator factor) is
    evaluated once per batch from a cache of monomials, each the product of
    a cached monomial in the variables before its last one and a power of
    that variable; denominator factors are inverted as their (q-2)-th power at
    the admissible points only, and coefficients are raised to the p-th
    power (over GF(p) that is the identity, c^p = c, and is skipped).  The
    polylog is Horner's rule over :func:`_inv_power_table`, p - 1 steps for
    the whole batch.  Over GF(p) it is a lookup in
    :func:`_ltilde_prime_table` instead, which takes p such steps once per
    process, unless ``points`` (the number of points of the whole check,
    by default this batch's) is below p.  Raises DomainMismatch unless
    every term is over GF(p).
    """
    fld = _grid_field(fld)
    p, e, modulus = fld.p, fld.e, fld.modulus
    dom = PrimeDomain(p)
    if any(c.num.domain != dom for c, _x in s.terms):
        raise DomainMismatch(f"the sum is not over GF({p})")
    cols = np.asarray(cols, dtype=np.int64)
    flat = cols.ndim == 2
    if flat:
        cols = cols[:, None, :]
    if cols.shape[1] != e:
        raise BadParams(f"points of GF({p}^{e}) need {e} coordinates")
    n = cols.shape[2]
    if points is None:
        points = n
    one = np.zeros((e, 1), dtype=np.int64)
    one[0] = 1

    def mul(a, b):
        if e == 1:  # residues below 2^31 multiply below 2^62
            return a * b % p
        return np.array(_poly_mul_mod(a, b, modulus, p))

    monomials = {(0,) * len(cols): one}

    def monomial(exps):
        mono = monomials.get(exps)
        if mono is None:
            i = max(j for j, k in enumerate(exps) if k)  # the last variable
            rest = exps[:i] + (0,) * (len(exps) - i)
            if any(rest):
                mono = mul(monomial(rest), monomial((0,) * i + exps[i:]))
            else:
                mono = _power(cols[i], exps[i], mul, one)
            monomials[exps] = mono
        return mono

    evaluated = {}

    def evaluate(poly):
        key = poly.serialize()
        acc = evaluated.get(key)
        if acc is None:
            acc = np.zeros((e, n), dtype=np.int64)
            for exps, c in poly.terms.items():
                acc = (acc + c * monomial(exps)) % p
            evaluated[key] = acc
        return acc

    factors = {}
    for c, x in s.terms:
        for fac, _mult in c.factors + x.factors:
            factors.setdefault(fac.serialize(), fac)
    mask = np.ones(n, dtype=bool)
    for fac in factors.values():
        mask &= evaluate(fac).any(axis=0)
    values = np.zeros((e, n), dtype=np.int64)
    admissible = np.flatnonzero(mask)
    if admissible.size:
        inverses = {
            key: _power(evaluate(fac)[:, admissible], fld.q - 2, mul, one)
            for key, fac in factors.items()
        }

        def at_admissible(rf):
            val = evaluate(rf.num)[:, admissible]
            for fac, mult in rf.factors:
                val = mul(val, _power(inverses[fac.serialize()], mult, mul, one))
            return val

        if e == 1 and points >= p:
            table = np.asarray(_ltilde_prime_table(m, p), dtype=np.int64)

            def polylog(xv):
                return table[xv]

        else:
            coeffs = _inv_power_table(m, p)

            def polylog(xv):
                acc = np.zeros_like(xv)
                for k in range(p - 1, 0, -1):
                    acc = mul((acc + coeffs[k - 1] * one) % p, xv)
                return acc

        acc = 0
        for c, x in s.terms:
            cv = at_admissible(c)
            term = mul(
                cv if e == 1 else _power(cv, p, mul, one), polylog(at_admissible(x))
            )
            acc = (acc + term) % p
        values[:, admissible] = acc
    return mask, values[0] if flat else values


def clear_denominators(s: FormalSum, deg: int):
    """Put the terms of ``s``, read through a polynomial of degree ``deg``,
    over one common denominator.

    Term c[x] with x = n/d (d a product of tracked monic factors) is read
    as c^p * Q(x) for some Q of degree <= deg; its denominator is that of
    c^p times d^deg.  Returns ``(factors, terms)``: ``factors`` is the least
    common multiple of the term denominators as (monic factor, multiplicity)
    pairs, and ``terms`` holds one ``(cfn, x, cofactors)`` per term of ``s``,
    where ``cfn`` is the numerator of c^p and ``cofactors`` lists, as
    (monic factor, exponent) pairs, the factor powers that raise that
    term's denominator to the common one.

    The denominators of c^p are Frobenius images g^p = g(x^p), tracked as
    such.  At deg = p the argument factors enter as f^(pk) as well, so
    every cofactor of a tracked f is a power f^(pq) = f^q(x^p), which has
    as many terms as f^q (see :func:`~finpolylog.poly.homogenized_sums`).
    """
    need = {}  # factor key -> [factor poly, max multiplicity]
    prepared = []
    for c, x in s.terms:
        cf = c.frobenius()
        used = {}  # factor key -> multiplicity in this term's denominator
        for fac, mult in cf.factors + tuple((f, k * deg) for f, k in x.factors):
            key = fac.serialize()
            used[key] = used.get(key, 0) + mult
            cur = need.setdefault(key, [fac, 0])
            cur[1] = max(cur[1], used[key])
        prepared.append((cf.num, x, used))
    terms = []
    for cfn, x, used in prepared:
        cofactors = [
            (fac, mult - used.get(key, 0))
            for key, (fac, mult) in need.items()
            if mult > used.get(key, 0)
        ]
        terms.append((cfn, x, cofactors))
    return tuple((fac, mult) for fac, mult in need.values()), terms


def twisted_numerators(s: FormalSum, vectors):
    """Cleared numerators of sum_i c_i^p * P_w(x_i), one per coefficient
    vector w = (w_0, ..., w_p) in ``vectors``, where P_w(T) = sum_j w_j T^j
    and p is the characteristic of ``s``.

    Returns ``(factors, numerators)``: ``factors`` is the common denominator
    of :func:`clear_denominators` at degree p, shared by every vector, and
    ``numerators`` the :class:`~finpolylog.poly.Coordinates` of the
    numerators, indexed by vector, so that RatFunc(numerator, factors) is
    the sum read through P_w.  Term c[x] with x = n/d contributes
    c^p * (sum_j w_j n^j d^(p-j)) times its cofactors; a constant argument
    v has n = v and d = 1, so it contributes c^p * P_w(v).  The numerators
    are the :func:`~finpolylog.poly.homogenized_sums` of the terms
    (n, d, ((c^p numerator, 1), *cofactors)), with its domain and size
    guards; ``vectors`` is read only after the guards.  Every cofactor
    exponent of an argument factor is a multiple of p, and the
    denominators of c^p are Frobenius images, so every cofactor is built
    as a Frobenius image f^q(x^p), whose packed keys are those of f^q
    times p.
    """
    p = s.domain.p
    factors, terms = clear_denominators(s, p)
    terms = [(x.num, x.den, ((cfn, 1), *cofactors)) for cfn, x, cofactors in terms]
    return factors, homogenized_sums(terms, p, vectors, s.variables, s.domain)


def lhat_apply(m: int, s: FormalSum) -> RatFunc:
    """Twisted symbolic evaluation of a formal sum as one rational function.

    Terms with argument 0 vanish (the polylog has no constant term) and are
    dropped; the rest go through :func:`twisted_numerators` with the
    polylog's coefficient vector (0, 1^(-m), ..., (p-1)^(-m), 0), which is
    built only once the builder's guards have passed.  The result is that
    numerator over the common denominator, unreduced; a zero numerator
    gives the zero function.
    """
    dom = s.domain
    if dom.kind != "prime":
        raise BadParams("symbolic evaluation requires a GF(p) domain")
    p = dom.p
    nonzero = replace(s, terms=tuple(t for t in s.terms if not t[1].is_zero()))
    if not nonzero.terms:
        return RatFunc(SparsePoly.zero(s.variables, dom))
    vector = ((0, *_inv_power_table(m, p), 0) for _ in range(1))
    factors, nums = twisted_numerators(nonzero, vector)
    (num,) = nums.polys(s.variables, dom)
    return RatFunc(num, factors, reduce=False)


def tau(i: int, p: int, var: str = "T") -> SparsePoly:
    """The polynomial T^i (1-T)^i (T^(p-3i) + (-1)^i), defined for
    0 <= i <= floor(p/3)."""
    if i < 0 or 3 * i > p:
        raise IndexOutOfRange(f"tau index {i} outside [0, {p // 3}]")
    dom = PrimeDomain(p)
    t = SparsePoly.variable(var, (var,), dom)
    one = SparsePoly.const((var,), dom, 1)
    sign = 1 if i % 2 == 0 else -1
    return (t**i) * ((one - t) ** i) * (t ** (p - 3 * i) + sign)


def _unit_power_sums(p: int):
    """For n = 0..p-1, the weight-n polylog at 1 and at -1, as two lists
    indexed by n: sum_k k^(-n) and sum_k (-1)^k k^(-n) mod p, k = 1..p-1.

    One int64 vector of k^(-n) is carried from n to n + 1 by one product
    with the inverses of :func:`_inv_power_table`; residues stay below
    2^31, so products and sums stay inside int64.
    """
    if p >= _PACKED_P_LIMIT:
        raise BadParams(f"special values need p < 2^31, got {p}")
    inverses = np.array(_inv_power_table(1, p), dtype=np.int64)
    power = np.ones(p - 1, dtype=np.int64)  # k^(-n) at index k - 1
    at_one, at_minus_one = [], []
    for _n in range(p):
        at_one.append(int(power.sum() % p))
        at_minus_one.append(int((power[1::2].sum() - power[::2].sum()) % p))
        power = power * inverses % p
    return at_one, at_minus_one


def special_values(p: int) -> list:
    """Special-value table rows for GF(p): values at 1, at -1, and the
    Genocchi comparison at -1 for shifted weights.

    Each row is a dict with keys p, kind, index, argument, computed,
    expected, status; status is "ok", "mismatch" or "logged" (the known
    index-1 Genocchi discrepancy, reported but not asserted).
    """
    at_one, at_minus_one = _unit_power_sums(p)
    rows = []
    for n in range(1, p):
        computed = at_one[n]
        expected = (p - 1) if n % (p - 1) == 0 else 0
        rows.append(
            {
                "p": p,
                "kind": "value_at_one",
                "index": n,
                "argument": 1,
                "computed": computed,
                "expected": expected,
                "status": "ok" if computed == expected else "mismatch",
            }
        )
    for w in range(2, p, 2):
        computed = at_minus_one[w]
        rows.append(
            {
                "p": p,
                "kind": "even_weight_at_minus_one",
                "index": w,
                "argument": -1,
                "computed": computed,
                "expected": 0,
                "status": "ok" if computed == 0 else "mismatch",
            }
        )
    bern = _bernoulli_table_mod_p(p - 2, p)
    for mm in range(1, p - 1):
        if mm % 2 == 1 and mm != 1:
            continue
        computed = at_minus_one[p - mm]
        g = 2 * (1 - pow(2, mm, p)) * bern[mm] % p  # the Genocchi number G_mm
        expected = (g * pow(mm, p - 2, p)) % p
        if mm == 1:
            status = "logged" if computed != expected else "ok"
        else:
            status = "ok" if computed == expected else "mismatch"
        rows.append(
            {
                "p": p,
                "kind": "genocchi_at_minus_one",
                "index": mm,
                "argument": -1,
                "computed": computed,
                "expected": expected,
                "status": status,
            }
        )
    return rows


def special_values_csv(rows) -> str:
    """CSV rendering, header first, of special-value rows as returned by
    :func:`special_values`."""
    lines = ["p,kind,index,argument,computed,expected,status"]
    for r in rows:
        lines.append(
            f"{r['p']},{r['kind']},{r['index']},{r['argument']},"
            f"{r['computed']},{r['expected']},{r['status']}"
        )
    return "\n".join(lines) + "\n"


def kummer_congruence(p: int, m: int) -> bool:
    """Check m*G_(p-1+m) == (m-1)*G_m mod p (even m, exact Genocchi input)."""
    if m < 2 or m % 2 == 1:
        raise BadParams("Kummer check needs even m >= 2")
    lhs = (m * genocchi(p - 1 + m)) % p
    rhs = ((m - 1) * genocchi(m)) % p
    return lhs == rhs


def recipe_decompose(q: SparsePoly, var: str):
    """Split q = c0 + q1 + q2(T^p) along the exponents of one variable:
    c0 collects exponent 0, q1 the exponents not divisible by p, and q2 the
    positive multiples of p with the exponent divided by p."""
    p = q.domain.characteristic
    if not p:
        raise BadParams("decomposition requires positive characteristic")
    i = q.vars.index(var)
    c0, q1, q2 = {}, {}, {}
    for e, c in q.terms.items():
        k = e[i]
        if k == 0:
            c0[e] = c
        elif k % p:
            q1[e] = c
        else:
            q2[e[:i] + (k // p,) + e[i + 1 :]] = c
    mk = lambda d: SparsePoly(q.vars, q.domain, d, copy=False)
    return mk(c0), mk(q1), mk(q2)


def recipe_prove_zero(q: SparsePoly, var: str, max_depth: int = 64) -> bool:
    """Decide q == 0 by the decomposition recipe: the constant part must
    vanish, the non-p-divisible part must have zero derivative, and the
    p-divisible part recurses with exponents divided by p."""
    if max_depth <= 0:
        raise DepthExceeded("recipe recursion too deep")
    if q.is_zero():
        return True
    c0, q1, q2 = recipe_decompose(q, var)
    if not c0.is_zero():
        return False
    if not q1.derivative(var).is_zero():
        return False
    return recipe_prove_zero(q2, var, max_depth - 1)
