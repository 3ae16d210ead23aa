"""Linear-algebra characterization of polynomial solutions.

Each catalog equation, read with an unknown polynomial P(T) = sum a_i T^i
of degree <= p-1 in place of the polylogarithm, becomes a linear system
over GF(p) in the coefficients a_0..a_{p-1}: substituting the equation's
arguments into P and clearing denominators yields one polynomial identity
whose monomial coefficients are linear forms in the a_i.  The kernel of
the stacked systems is the solution space of the corresponding presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import BadParams, UnknownId
from .finlog import finite_polylog, tau, twisted_numerators
from .formal import FormalSum
from .poly import _PACKED_P_LIMIT, Coordinates, PrimeDomain, RatFunc, SparsePoly, SparseVector
from . import catalog as _catalog


def equation_columns(s: FormalSum, p: int, deg: int | None = None) -> Coordinates:
    """Columns of the linear system attached to a template equation.

    Column j (0 <= j <= deg, default deg = p-1) is the polynomial
    multiplying the unknown coefficient a_j after substituting
    P(T) = sum a_j T^j into every term of ``s`` and clearing all
    denominators globally: the numerator that
    :func:`~finpolylog.finlog.twisted_numerators`, the builder behind
    ``lhat_apply``, gives for the unit vector P = T^j, padded with zeros to
    degree p (coefficients are raised to the p-th power, matching the
    twisted evaluation convention).  Terms with argument 0 are kept: there
    P(0) = a_0.  The unit vectors go through one stacked build as
    :class:`~finpolylog.poly.SparseVector`, and the columns come back in
    coordinate form (packed monomial keys, column index j, values), as
    :func:`columns_matrix` reads them.
    """
    if deg is None:
        deg = p - 1
    dom = s.domain
    if dom.kind != "prime" or dom.p != p:
        raise BadParams("template must live over GF(p)")
    units = (SparseVector(p + 1, ((j, 1),)) for j in range(deg + 1))
    return twisted_numerators(s, units)[1]


def columns_matrix(cols: Coordinates, p: int) -> np.ndarray:
    """The dense (monomials x columns) matrix of columns in coordinate form:
    the rows of :class:`MatrixRows` stacked in one block.  No result of
    the solver depends on the row order: the RREF of the rows is unique.
    """
    rows = MatrixRows(cols, p)
    return rows.block(0, rows.shape[0])


class MatrixRows:
    """The rows of the columns matrix of ``cols``, built block by block.

    Rows are the distinct monomials of all columns in ascending order of
    their packed keys, ranked once by one stable int64 argsort, which
    merges the sorted runs the keys arrive in (one per column); the
    order within a key does not change a row.  The entries are
    the values mod p.  :func:`_rref` takes the rows in blocks, so the
    whole matrix need not be held, and may leave out the rows that lie
    in the span of the rows it has.  ``shape`` is the matrix's.  The
    keys are compared a chunk of ranks at a time and not kept, so no
    copy of them is made and, once ranked, a caller's Coordinates can
    free them.
    """

    def __init__(self, cols: Coordinates, p: int):
        order = np.argsort(cols.keys, kind="stable")
        new_row = np.ones(len(order), dtype=bool)
        for a in range(1, len(order), 1 << 14):
            ranked = cols.keys[order[a - 1 : a + (1 << 14)]]
            np.not_equal(ranked[1:], ranked[:-1], out=new_row[a : a + (1 << 14)])
        self.index, self.vals, self.p, self.order = cols.index, cols.vals, p, order
        # row r holds the terms order[bounds[r]:bounds[r + 1]]
        self.bounds = np.append(np.flatnonzero(new_row), len(order))
        self.shape = (len(self.bounds) - 1, cols.count)

    def block(self, start: int, stop: int, kernel: np.ndarray | None = None):
        """Rows ``start``..``stop``-1 as an int64 block with entries in
        [0, p), filled with one store.  Given ``kernel``, an int64 (ncols x
        k) basis of the kernel of some rows R with entries in [0, p), only
        the rows r with r @ kernel != 0 mod p go in: the others lie in the
        row space of R.  The products are taken in coordinate form; a row
        has at most ncols terms, so each sum is below ncols * (p-1)^2; past
        2^63 each product is reduced first, as a wrapped sum may drop a row.
        """
        bounds, p, ncols = self.bounds, self.p, self.shape[1]
        terms = self.order[bounds[start] : bounds[stop]]
        rows = np.repeat(np.arange(stop - start), np.diff(bounds[start : stop + 1]))
        index, vals = self.index[terms], self.vals[terms] % p
        if kernel is not None:
            heads = bounds[start:stop] - bounds[start]
            prods = vals[:, None] * kernel[index]
            if ncols * (p - 1) ** 2 >= 2**63:
                prods %= p
            outside = (np.add.reduceat(prods, heads) % p).any(axis=1)
            keep = outside[rows]
            rows = (np.cumsum(outside) - 1)[rows[keep]]
            index, vals = index[keep], vals[keep]
            stop = start + int(outside.sum())
        block = np.zeros((stop - start, ncols), dtype=np.int64)
        block[rows, index] = vals
        return block

    def rows_within(self, ncols: int) -> int:
        """The number of rows with a term among the first ``ncols`` columns."""
        within = (self.index < ncols)[self.order]
        return int(np.logical_or.reduceat(within, self.bounds[:-1]).sum())


def substitute_into_columns(mat: np.ndarray, vec, p: int) -> np.ndarray:
    """Residual of each row of a columns matrix for a concrete coefficient
    vector: ``mat @ vec`` mod p, exact (see :func:`_mul_mod`)."""
    mat = np.asarray(mat, dtype=np.int64) % p
    vec = np.array([int(q) % p for q in vec], dtype=np.int64)
    return _mul_mod(mat, vec, p) % p


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """An int64 array congruent to ``a @ b`` mod p, for int64 arrays with
    entries in [0, p), p < 2^31: the one GF(p) matrix product.  Below the
    float64 bound inner * (p-1)^2 < 2^53, one float64 product, exact and
    left unreduced; past it, two int64 products against the 16-bit halves
    of ``b``, reduced, exact up to 65534 inner terms (BadParams past that)."""
    inner = b.shape[0]
    if inner * (p - 1) ** 2 < 2**53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    if inner > 65534:
        raise BadParams(f"a GF({p}) product of {inner} > 65534 inner terms would wrap int64")
    return (((a @ (b >> 16)) % p << 16) + a @ (b & 0xFFFF)) % p


def h_two_term_matrix(p: int, deg: int) -> np.ndarray:
    """Rows forcing h(T) = T P'(T) to satisfy h(x) = h(1-x).

    Column j is j * (x^j - (1-x)^j), whose x^k coefficient is
    j * ([k = j] - (-1)^k C(j, k)); the binomials come from Pascal's rule
    mod p, one row of the triangle per column.  Rows are the powers x^k
    with a nonzero coefficient, by k.
    """
    binom = np.zeros(deg + 1, dtype=np.int64)  # C(j, k) mod p for k <= deg
    binom[0] = 1
    sign = np.where(np.arange(deg + 1) % 2, -1, 1)
    dense = np.zeros((deg + 1, deg + 1), dtype=np.int64)  # x^k coefficient x column j
    for j in range(deg + 1):
        if j:
            binom[1:] = (binom[1:] + binom[:-1]) % p
        col = -sign * binom
        col[j] += 1
        dense[:, j] = col * j % p
    return dense[dense.any(axis=1)]


def constant_term_matrix(p: int, deg: int) -> np.ndarray:
    """Single row forcing P(0) = 0."""
    row = np.zeros((1, deg + 1), dtype=np.int64)
    row[0, 0] = 1
    return row


_SIDE_CONDITIONS = {
    "P0_zero": constant_term_matrix,
    "h_two_term": h_two_term_matrix,
}

PRESETS = {
    "FEIT": {
        "constraints": (("feit", {}),),
        "side": ("P0_zero",),
        "target": 1,
        "expected_dim": 1,
        "degree": "p-1",
    },
    "L1_TRIPLE": {
        "constraints": (
            ("two_term", {}),
            ("inversion", {"n": 1}),
            ("distribution", {"n": 1, "m": 2}),
        ),
        "side": (),
        "target": 1,
        "expected_dim": 1,
    },
    "THREE_TERM": {
        "constraints": (("three_term", {}),),
        "side": (),
        "target": 2,
        "expected_dim": None,
        "degree": "p",
    },
    "L2_PAIR": {
        "constraints": (
            ("three_term", {}),
            ("distribution", {"n": 2, "m": 2}),
        ),
        "side": (),
        "target": 2,
        "expected_dim": 1,
        "degree": "p-1",
    },
    "KS": {
        "constraints": (("kummer_spence", {}),),
        "side": (),
        "target": 2,
        "expected_dim": 1,
        "degree": "p-1",
    },
    "J": {
        "constraints": (("cathelineau_J", {}),),
        "side": (),
        "target": 2,
        "expected_dim": 1,
        "degree": "p-1",
    },
    "THM423": {
        "constraints": (
            ("distribution", {"n": 2, "m": 2}),
            ("three_term", {}),
        ),
        "side": ("h_two_term",),
        "target": 2,
        "expected_dim": 1,
        "degree": "p-1",
    },
}


def preset_degree(preset: str, p: int) -> int:
    return p if PRESETS[preset].get("degree") == "p" else p - 1


_RREF_BLOCK = 512


def _gauss_jordan(m: np.ndarray, p: int):
    """Reduce ``m`` (int64, entries in [0, p)) to RREF in place.

    One pivot per column, chosen as the first nonzero entry among the rows
    not yet used; the pivot row is normalized and its column cleared from
    every other row that is nonzero there, in one array step, taken only
    if there is such a row.  The nonzero rows of a column are found once,
    on a view of it.  Returns (pivot_cols, rank); rows ``m[:rank]`` are
    the reduced pivot rows.  Every int64 product is below p^2.
    """
    nrows, ncols = m.shape
    pivot_cols = []
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        col = m[:, c]
        nz = col.nonzero()[0]
        i = nz.searchsorted(rank)
        if i == nz.size:
            continue
        if nz[i] != rank:
            # the row swapped down is zero in this column
            m[[rank, nz[i]]] = m[[nz[i], rank]]
        row = m[rank, c:]
        if col[rank] != 1:
            row *= pow(int(col[rank]), p - 2, p)
            row %= p
        if nz.size > 1:
            # columns left of c are zero in every row not yet used as a pivot
            others = nz[nz != nz[i]]
            m[others, c:] = (m[others, c:] - col[others, None] * row) % p
        pivot_cols.append(c)
        rank += 1
    return pivot_cols, rank


def _check_prime(p: int):
    """Refuse p >= 2^31, the packed kernels' limit: the int64 products of
    :func:`_gauss_jordan`, below p^2, pass 2^63 from p ~ 3.04e9 on."""
    if p >= _PACKED_P_LIMIT:
        raise BadParams(f"GF(p) row reduction needs p < 2^31, got {p}")


def _rref(mat, p: int, start=None):
    """Reduced row echelon form over GF(p), p < 2^31 (BadParams
    otherwise), of an int64 matrix or of the rows of a
    :class:`MatrixRows`, stacked under the rows of ``start``, an RREF
    (pivot_cols, reduced) of the same columns as :func:`_rref` returns
    it, whose rows are not eliminated again.

    One loop takes the rows in cuts and hands each block to
    :func:`_absorb`, at every p: a first cut of ``ncols + 32`` rows,
    which usually holds the rank, then cuts of ``_RREF_BLOCK``.  Once
    every column is a pivot no further block is built.  A matrix is not
    changed: each block is reduced mod p as it is taken.

    The rows of a :class:`MatrixRows` are tested against a kernel basis
    K (k columns) of the RREF so far once testing the rows left costs no
    more than building them: once k times their terms is at most their
    number times ncols.  A row lies in the row space of the RREF exactly
    when its product with K is 0 mod p, and only the rows that fail go
    into the block (see :meth:`MatrixRows.block`), so rows past a rank
    that has stopped growing are never laid out densely.  Every
    reduction of the solver comes through here, where the benchmark's
    tracer counts its rows.  Returns (pivot_cols, reduced):
    the ascending pivot columns and an int64 (rank x ncols) array whose
    row i is the normalized row with leading column pivot_cols[i].
    """
    _check_prime(p)
    streamed = isinstance(mat, MatrixRows)
    if not streamed:
        mat = np.asarray(mat, dtype=np.int64)
    nrows, ncols = mat.shape
    if start is None:
        pivot_cols, reduced = [], np.zeros((0, ncols), dtype=np.int64)
    else:
        pivot_cols, reduced = list(start[0]), start[1]
    first = min(_RREF_BLOCK, ncols + 32)
    cuts = [0, *range(first, nrows, _RREF_BLOCK), nrows]
    for a, b in zip(cuts, cuts[1:]):
        k = ncols - len(pivot_cols)
        if not k:
            break
        if not streamed:
            block = mat[a:b] % p
        elif k * (mat.bounds[-1] - mat.bounds[a]) <= (nrows - a) * ncols:
            block = mat.block(a, b, _free_column_basis(pivot_cols, reduced, ncols, p).T)
        else:
            block = mat.block(a, b)
        pivot_cols, reduced = _absorb(pivot_cols, reduced, block, p)
    return pivot_cols, reduced


def _absorb(pivot_cols: list, reduced: np.ndarray, block: np.ndarray, p: int):
    """The RREF (pivot_cols, reduced) with the rows of ``block`` (int64,
    entries in [0, p)) stacked under it, as a new list and array.

    The RREF of the row space is unique, so the result does not depend
    on the blocks or the elimination order.  The block B is reduced
    against the RREF R with one product ``B - B[:, piv] @ R``, and only
    its nonzero residual rows go through a column-by-column Gauss-Jordan
    elimination, whose new pivots are then cleared from R with one more
    product ``R - R[:, new] @ N``; R and N are merged by pivot column.
    Both products are :func:`_mul_mod`'s.
    """
    if pivot_cols:
        block = (block - _mul_mod(block[:, pivot_cols], reduced, p)) % p
    block = block[block.any(axis=1)]
    if not block.shape[0]:
        return pivot_cols, reduced
    new_cols, rank = _gauss_jordan(block, p)
    new = block[:rank]
    if pivot_cols:
        reduced = (reduced - _mul_mod(reduced[:, new_cols], new, p)) % p
    pivot_cols = pivot_cols + new_cols
    order = np.argsort(pivot_cols, kind="stable")
    return [pivot_cols[i] for i in order], np.vstack([reduced, new])[order]


def kernel_basis(mat: np.ndarray, p: int):
    """Deterministic basis of the right nullspace of ``mat`` over GF(p).

    Each basis vector has a 1 in its own free column and 0 in every other
    free column, ordered by ascending free column index.
    """
    mat = np.asarray(mat, dtype=np.int64)
    return list(_free_column_basis(*_rref(mat, p), mat.shape[1], p))


def _free_column_basis(pivot_cols, reduced: np.ndarray, ncols: int, p: int) -> np.ndarray:
    """The basis of :func:`kernel_basis` read off an RREF, given as
    :func:`_rref` returns it, as the rows of an int64 array with entries
    in [0, p)."""
    pivot_cols = list(pivot_cols)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivot_cols] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivot_cols] = (-reduced[:, free]).T % p
    return basis


def in_span(basis, vec, p: int) -> bool:
    """Membership test against a kernel basis in free-column normal form."""
    vec = np.asarray(vec, dtype=np.int64) % p
    if not basis:
        return not np.any(vec)
    cols, rows = _rref(np.stack(basis) % p, p)
    for c, row in zip(cols, rows):
        if vec[c]:
            vec = (vec - int(vec[c]) * row) % p
    return not np.any(vec)


def _coefficient_vector(poly: SparsePoly, p: int, deg: int) -> np.ndarray:
    """Coefficients of a univariate ``poly`` as a vector of length deg+1."""
    vec = np.zeros(deg + 1, dtype=np.int64)
    for exps, coeff in poly.terms.items():
        vec[exps[0]] = coeff % p
    return vec


def polylog_vector(n: int, p: int, deg: int | None = None) -> np.ndarray:
    return _coefficient_vector(finite_polylog(n, p), p, p - 1 if deg is None else deg)


def tau_vector(i: int, p: int, deg: int | None = None) -> np.ndarray:
    """Coefficient vector of tau_i inside polynomials of degree <= deg."""
    if deg is None:
        deg = p - 1
    poly = tau(i, p)
    if poly.total_degree() > deg:
        raise BadParams(f"tau_{i} has degree {poly.total_degree()} > {deg}")
    return _coefficient_vector(poly, p, deg)


def tau_satisfies_three_term(i: int, p: int) -> bool:
    """Direct substitution of tau_i into T^p Q(1-1/T) - Q(T) + Q(1-T)."""
    dom = PrimeDomain(p)
    t = SparsePoly.variable("T", ("T",), dom)
    one = SparsePoly.const(("T",), dom, 1)
    q = tau(i, p)
    t_rf = RatFunc(t)
    one_rf = RatFunc(one)
    sub = q.substitute({"T": (t_rf - one_rf) / t_rf})
    shifted = q.substitute({"T": one_rf - t_rf})
    residual = t_rf**p * sub - RatFunc(q) + shifted
    return residual.num.is_zero()


def tau_family_rank(p: int) -> int:
    """Rank of {tau_i : 0 <= i <= (p-1)//3} inside polynomials of deg <= p."""
    _check_prime(p)
    bound = (p - 1) // 3
    mat = np.stack([_coefficient_vector(tau(i, p), p, p) for i in range(bound + 1)])
    return len(_rref(mat, p)[0])


@dataclass
class KernelReport:
    """Result of characterizing a preset's polynomial solution space."""

    preset: str
    p: int
    dimension: int
    basis: list = field(default_factory=list)
    rows: int = 0
    target_weight: int = 0
    contains_target: bool = False
    proportional_to_target: bool = False
    zero_constant_term: bool = False

    def as_dict(self) -> dict:
        return {
            "preset": self.preset,
            "p": self.p,
            "dimension": self.dimension,
            "rows": self.rows,
            "basis": [[int(v) for v in b] for b in self.basis],
            "target_weight": self.target_weight,
            "contains_target": self.contains_target,
            "proportional_to_target": self.proportional_to_target,
            "zero_constant_term": self.zero_constant_term,
        }


class Reduction(NamedTuple):
    """One constraint's columns matrix at one degree, or the stack of
    several constraints' matrices, reduced."""

    pivots: tuple  # the RREF's pivot columns
    reduced: np.ndarray  # its rows, read-only
    rows: int  # the matrices' row count
    # for a build at degree p, the row count of its first p columns, which
    # are the columns at degree p-1; None otherwise
    head_rows: int | None


def _frozen(pivots, reduced: np.ndarray, rows: int, head_rows=None) -> Reduction:
    """A :class:`Reduction` of an RREF as :func:`_rref` returns it."""
    reduced.flags.writeable = False
    return Reduction(tuple(pivots), reduced, rows, head_rows)


def _matrix_rows(eq_id: str, params: dict, p: int, deg: int) -> MatrixRows:
    s = _catalog.build(eq_id, p, **params)
    return MatrixRows(equation_columns(s, p, deg), p)


def _reduced_constraint(eq_id: str, params: dict, p: int, deg: int) -> Reduction:
    """The reduction of one constraint's columns matrix, whose rows go to
    :func:`_rref` as :class:`MatrixRows`: the whole matrix is never held."""
    rows = _matrix_rows(eq_id, params, p, deg)
    head_rows = rows.rows_within(deg) if deg == p else None
    return _frozen(*_rref(rows, p), rows.shape[0], head_rows)


def _narrowed(wide: Reduction) -> Reduction:
    """The reduction at degree p-1 read off the one at degree p.

    The columns at degree p-1 are the first p at degree p (both pad each
    unit vector to degree p), so their row space is the projection of the
    wider one's: the first p columns of its RREF rows.  Those rows stay
    reduced, and the one row whose pivot is the last column, if any,
    becomes zero and goes.
    """
    ncols = wide.reduced.shape[1] - 1
    keep = sum(c < ncols for c in wide.pivots)
    return _frozen(wide.pivots[:keep], wide.reduced[:keep, :ncols], wide.head_rows)


def _held(key: tuple, reductions: dict) -> Reduction | None:
    """The reduction of the constraint ``key`` = (equation, params, p,
    degree) that ``reductions`` holds, or reads off one it holds at
    degree p (see :func:`_narrowed`); None if neither."""
    eq_id, params, p, deg = key
    wide = reductions.get((eq_id, params, p, p))
    if key not in reductions and deg == p - 1 and wide is not None:
        reductions[key] = _narrowed(wide)
    return reductions.get(key)


def _stacked(keys: list, reductions: dict) -> Reduction:
    """The reduction of the stacked matrices of the constraints ``keys``,
    one elimination that finds each pivot once.

    The first constraint's reduction starts the stack: a held one (see
    :func:`_held`), or one reduced now and kept under its key.  Each
    further constraint enters through :func:`_rref` with the stack so far
    as its start: its RREF rows if one is held, otherwise the rows of its
    matrix, which are never reduced alone.  The stack's reduction is kept
    under the frozenset of the keys, so a preset with the same
    constraints in another order reads it off.  ``rows`` counts the rows
    of the full matrices.
    """
    whole = frozenset(keys)
    if whole in reductions:
        return reductions[whole]
    (eq_id, params, p, deg), *rest = keys
    stack = _held(keys[0], reductions)
    if stack is None:
        stack = reductions[keys[0]] = _reduced_constraint(eq_id, dict(params), p, deg)
    for key in rest:
        eq_id, params, p, deg = key
        held = _held(key, reductions)
        if held is None:
            rows = _matrix_rows(eq_id, dict(params), p, deg)
            nrows = rows.shape[0]
        else:
            rows, nrows = held.reduced, held.rows
        rref = _rref(rows, p, start=(stack.pivots, stack.reduced))
        stack = _frozen(*rref, stack.rows + nrows)
    if rest:
        reductions[whole] = stack
    return stack


def characterize(preset: str, p: int, reductions: dict | None = None) -> KernelReport:
    """The solution space of ``preset`` at p.

    The constraints' matrices are reduced in one stacked elimination as
    they are built (see :func:`_stacked`), and only RREFs (at most
    (deg+1)^2 residues each) and row counts are kept.  The kernel is that
    of the stack's RREF with the side conditions stacked under it, which
    is the kernel of the full matrices stacked, as each RREF spans its
    rows.  ``reductions`` maps a constraint's (equation, params, p,
    degree), or the frozenset of a stack's, to a :class:`Reduction`; a
    caller that passes one dict to several calls shares the reductions
    they have in common.  ``rows`` counts the rows of the full matrices.
    The target lies in the kernel exactly when the RREF's rows annihilate
    it, which is tested with one exact product.
    """
    if preset not in PRESETS:
        raise UnknownId(f"unknown preset {preset!r}")
    info = PRESETS[preset]
    deg = preset_degree(preset, p)
    if reductions is None:
        reductions = {}
    keys = [(eq_id, tuple(sorted(ps.items())), p, deg) for eq_id, ps in info["constraints"]]
    stack = _stacked(keys, reductions)
    pivots, reduced, nrows = stack.pivots, stack.reduced, stack.rows
    sides = [_SIDE_CONDITIONS[side](p, deg) for side in info["side"]]
    if sides:
        pivots, reduced = _rref(np.vstack(sides), p, start=(pivots, reduced))
        nrows += sum(len(side) for side in sides)
    basis = list(_free_column_basis(pivots, reduced, deg + 1, p))
    target = polylog_vector(info["target"], p, deg)
    contains = not substitute_into_columns(reduced, target, p).any()
    return KernelReport(
        preset=preset,
        p=p,
        dimension=len(basis),
        basis=basis,
        rows=nrows,
        target_weight=info["target"],
        contains_target=contains,
        proportional_to_target=(len(basis) == 1 and contains),
        zero_constant_term=all(int(b[0]) % p == 0 for b in basis),
    )


def basis_residuals(preset: str, p: int, basis) -> bool:
    """Soundness: every basis vector strongly satisfies each constraint."""
    info = PRESETS[preset]
    deg = preset_degree(preset, p)
    for eq_id, params in info["constraints"]:
        s = _catalog.build(eq_id, p, **params)
        mat = columns_matrix(equation_columns(s, p, deg), p)
        for vec in basis:
            if substitute_into_columns(mat, vec, p).any():
                return False
    return True


def kernels_equal(preset_a: str, preset_b: str, p: int) -> bool:
    """Whether two presets cut out the same subspace of GF(p)[T]_{<p}: a
    subspace has one basis in free-column normal form, so the two bases
    are compared as they are."""
    ba = characterize(preset_a, p).basis
    bb = characterize(preset_b, p).basis
    return len(ba) == len(bb) and all(map(np.array_equal, ba, bb))


def lemma417_sequence(p: int, a1: int = 1) -> dict:
    """Solve the descending recurrence for sequences satisfying the
    three combinatorial rules, and check the closed form a_k = a1/k.

    Rules: a_k = -(1/2) sum_{i>k} C(i,k) a_i for odd k; a_k = a_{k/2}/2
    for even k; and a_{p-k} = -a_k.
    """
    if p < 5:
        raise BadParams("p must be at least 5")
    a1 %= p
    inv2 = pow(2, p - 2, p)
    a = {1: a1, p - 1: (-a1) % p}
    for k in range(p - 2, 1, -1):
        if k % 2 == 1:
            acc = 0
            for i in range(k + 1, p):
                acc = (acc + comb(i, k) * a[i]) % p
            a[k] = (-inv2 * acc) % p
        elif k == 2:
            a[2] = (inv2 * a1) % p
        else:
            t = (p - k + 1) // 2
            a_t = (-a[p - t]) % p
            a_pk1 = (inv2 * a_t) % p
            a_k1 = (-a_pk1) % p
            acc = 0
            for i in range(k + 1, p):
                acc = (acc + comb(i, k - 1) * a[i]) % p
            # rule for odd index k-1: a_{k-1} = -(1/2)(k a_k + acc)
            a[k] = ((-2 * a_k1 - acc) * pow(k, p - 2, p)) % p
    seq = tuple(a[k] for k in range(1, p))
    closed = tuple((a1 * pow(k, p - 2, p)) % p for k in range(1, p))
    return {
        "p": p,
        "a1": a1,
        "sequence": seq,
        "matches_closed_form": seq == closed,
        "antisymmetric": all(a[p - k] == (-a[k]) % p for k in range(1, p)),
    }
