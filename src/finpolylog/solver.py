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
from .poly import Coordinates, PrimeDomain, RatFunc, SparsePoly
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
    P(0) = a_0.  The unit vectors go through one stacked build, and the
    columns come back in coordinate form (packed monomial keys, column
    index j, values), as :func:`columns_matrix` reads them.
    """
    if deg is None:
        deg = p - 1
    dom = s.domain
    if dom.kind != "prime" or dom.p != p:
        raise BadParams("template must live over GF(p)")
    units = ([0] * j + [1] + [0] * (p - j) for j in range(deg + 1))
    return twisted_numerators(s, units)[1]


def columns_matrix(cols: Coordinates, p: int) -> np.ndarray:
    """The dense (monomials x columns) matrix of columns in coordinate form:
    the rows of :class:`MatrixRows` stacked in one block.  No result of
    the solver depends on the row order: the RREF of the rows is unique.
    """
    rows = MatrixRows(cols, p)
    if not rows.shape[0]:
        return np.zeros(rows.shape, dtype=np.int64)
    (mat,) = rows.blocks(rows.shape[0])
    return mat


def _row_cuts(nrows: int, size: int, first: int | None = None):
    """(start, stop) of blocks of ``size`` rows, the first of ``first``."""
    cuts = [0, *range(size if first is None else first, nrows, size), nrows]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


class MatrixRows:
    """The rows of the columns matrix of ``cols``, built block by block.

    Rows are the distinct monomials of all columns in ascending order of
    their packed keys, ranked once by one stable int64 argsort, which
    merges the sorted runs the keys arrive in (one per column); the
    order within a key does not change a row.  The entries are
    the values mod p.  :func:`_rref` takes the rows in blocks, so the
    whole matrix need not be held.  ``shape`` is the matrix's.
    """

    def __init__(self, cols: Coordinates, p: int):
        order = np.argsort(cols.keys, kind="stable")
        ranked = cols.keys[order]
        new_row = np.empty(len(order), dtype=bool)
        new_row[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=new_row[1:])
        del ranked
        self.cols, self.p, self.order = cols, p, order
        # row r holds the terms order[bounds[r]:bounds[r + 1]]
        self.bounds = np.append(np.flatnonzero(new_row), len(order))
        self.shape = (len(self.bounds) - 1, cols.count)

    def blocks(self, size: int, first: int | None = None):
        """The rows ``size`` at a time, the first block ``first`` rows if
        given, as int64 blocks with entries in [0, p), each filled with
        one store when it is asked for."""
        cols, bounds = self.cols, self.bounds
        for start, stop in _row_cuts(self.shape[0], size, first):
            terms = self.order[bounds[start] : bounds[stop]]
            rows = np.repeat(np.arange(stop - start), np.diff(bounds[start : stop + 1]))
            block = np.zeros((stop - start, cols.count), dtype=np.int64)
            block[rows, cols.index[terms]] = cols.vals[terms] % self.p
            yield block

    def rows_within(self, ncols: int) -> int:
        """The number of rows with a term among the first ``ncols`` columns."""
        within = self.cols.index[self.order] < ncols
        return int(np.logical_or.reduceat(within, self.bounds[:-1]).sum())


def substitute_into_columns(mat: np.ndarray, vec, p: int) -> np.ndarray:
    """Residual of each row of a columns matrix for a concrete coefficient
    vector: ``mat @ vec`` mod p, exact for p < 2^31."""
    acc = np.zeros(mat.shape[0], dtype=np.int64)
    for j, q in enumerate(vec):
        q = int(q) % p
        if q:
            acc = (acc + mat[:, j] * q) % p
    return acc


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
    every other row that is nonzero there, in one array step.  Returns
    (pivot_cols, rank); rows ``m[:rank]`` are the reduced pivot rows.
    Every int64 product is below p^2.
    """
    nrows, ncols = m.shape
    pivot_cols = []
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(m[rank:, c])
        if nz.size == 0:
            continue
        r = rank + int(nz[0])
        if r != rank:
            m[[rank, r]] = m[[r, rank]]
        # columns left of c are zero in every row not yet used as a pivot
        m[rank, c:] = m[rank, c:] * pow(int(m[rank, c]), p - 2, p) % p
        rows = np.flatnonzero(m[:, c])
        rows = rows[rows != rank]
        m[rows, c:] = (m[rows, c:] - np.outer(m[rows, c], m[rank, c:])) % p
        pivot_cols.append(c)
        rank += 1
    return pivot_cols, rank


def _rref(mat, p: int, start=None):
    """Reduced row echelon form over GF(p) of a matrix, or of the rows of
    a :class:`MatrixRows`, stacked under the rows of ``start``, an RREF
    (pivot_cols, pivot_rows) of the same columns as :func:`_rref` returns
    it, whose rows are not eliminated again.  The rows go to
    :func:`_rref_blocks` in blocks: a first one of ``ncols + 32`` rows,
    which usually holds the rank, then blocks of ``_RREF_BLOCK``, or one
    block past the float64 bound.  A matrix is not changed: each block is
    reduced mod p as it is taken, so below the bound the matrix is not
    copied whole.  Every reduction of the solver comes through here, where
    the benchmark's tracer counts its rows.  Returns (pivot_cols,
    pivot_rows) where pivot_rows[i] is the normalized row with leading
    column pivot_cols[i].
    """
    if not isinstance(mat, MatrixRows):
        mat = np.asarray(mat, dtype=np.int64)
    nrows, ncols = mat.shape
    if ncols * (p - 1) ** 2 >= 2**53:
        sizes = (max(nrows, 1),)
    else:
        sizes = (_RREF_BLOCK, min(_RREF_BLOCK, ncols + 32))
    if isinstance(mat, MatrixRows):
        blocks = mat.blocks(*sizes)
    else:
        blocks = (mat[a:b] % p for a, b in _row_cuts(nrows, *sizes))
    return _rref_blocks(blocks, ncols, p, start)


def _rref_blocks(blocks, ncols: int, p: int, start=None):
    """The RREF over GF(p) of the rows of ``start`` (an RREF as
    :func:`_rref` returns it, or None) and of ``blocks``, int64 arrays of
    ``ncols`` columns with entries in [0, p), taken one at a time.

    The RREF of the row space is unique, so the result does not depend
    on the blocks or the elimination order.  Each block B is reduced
    against the current RREF R with one product ``B - B[:, piv] @ R``, and
    only its nonzero residual rows go through a column-by-column
    Gauss-Jordan elimination, whose new pivots are then cleared from R
    with one more product ``R - R[:, new] @ N``; R and N are merged by
    pivot column.  The products run in float64, where they are exact while
    ncols * (p-1)^2 < 2^53; past that bound ``start`` and the blocks are
    gathered into one (:func:`_rref` hands over one), so no product is
    taken.  Once every column is a pivot no further block is asked for.
    Returns (pivot_cols, pivot_rows) as :func:`_rref` does.
    """
    reduced = np.zeros((0, ncols), dtype=np.int64)
    pivot_cols = []
    if start is not None:
        pivot_cols = list(start[0])
        reduced = np.array(start[1], dtype=np.int64).reshape(len(pivot_cols), ncols)
    if ncols * (p - 1) ** 2 >= 2**53:
        blocks = [np.concatenate([reduced, *blocks])]
        reduced, pivot_cols = reduced[:0], []
    blocks = iter(blocks)
    while len(pivot_cols) < ncols:
        block = next(blocks, None)
        if block is None:
            break
        if pivot_cols:
            prod = block[:, pivot_cols].astype(np.float64) @ reduced.astype(np.float64)
            block = (block - prod.astype(np.int64)) % p
        block = block[block.any(axis=1)]
        if not block.shape[0]:
            continue
        new_cols, rank = _gauss_jordan(block, p)
        new = block[:rank]
        if pivot_cols:
            prod = reduced[:, new_cols].astype(np.float64) @ new.astype(np.float64)
            reduced = (reduced - prod.astype(np.int64)) % p
        pivot_cols += new_cols
        order = np.argsort(pivot_cols, kind="stable")
        reduced = np.vstack([reduced, new])[order]
        pivot_cols = [pivot_cols[i] for i in order]
    return pivot_cols, list(reduced)


def kernel_basis(mat: np.ndarray, p: int):
    """Deterministic basis of the right nullspace of ``mat`` over GF(p).

    Each basis vector has a 1 in its own free column and 0 in every other
    free column, ordered by ascending free column index.
    """
    return _free_column_basis(*_rref(mat, p), mat.shape[1], p)


def _free_column_basis(pivot_cols, pivot_rows, ncols: int, p: int):
    """The basis of :func:`kernel_basis` read off an RREF, given as
    :func:`_rref` returns it."""
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = np.zeros(ncols, dtype=np.int64)
        vec[f] = 1
        for c, row in zip(pivot_cols, pivot_rows):
            vec[c] = (-int(row[f])) % p
        basis.append(vec)
    return basis


def in_span(basis, vec, p: int) -> bool:
    """Membership test against a kernel basis in free-column normal form."""
    vec = np.asarray(vec, dtype=np.int64) % p
    if not basis:
        return not np.any(vec)
    mat = np.stack(basis) % p
    cols, rows = _rref(mat, p)
    res = vec.copy()
    for c, row in zip(cols, rows):
        if res[c]:
            res = (res - int(res[c]) * row) % p
    return not np.any(res)


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
    bound = (p - 1) // 3
    mat = np.stack([_coefficient_vector(tau(i, p), p, p) for i in range(bound + 1)])
    cols, _rows = _rref(mat, p)
    return len(cols)


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
    """One constraint's columns matrix at one degree, reduced."""

    pivots: tuple  # the RREF's pivot columns
    reduced: np.ndarray  # its rows, read-only
    rows: int  # the matrix's row count
    # for a build at degree p, the row count of its first p columns, which
    # are the columns at degree p-1; None otherwise
    head_rows: int | None


def _reduced_constraint(eq_id: str, params: dict, p: int, deg: int) -> Reduction:
    """The reduction of one constraint's columns matrix, whose rows go to
    :func:`_rref` as :class:`MatrixRows`: below the float64 bound the
    whole matrix is never held."""
    s = _catalog.build(eq_id, p, **params)
    rows = MatrixRows(equation_columns(s, p, deg), p)
    pivots, reduced = _rref(rows, p)
    reduced = np.array(reduced, dtype=np.int64).reshape(len(reduced), deg + 1)
    reduced.flags.writeable = False
    head_rows = rows.rows_within(deg) if deg == p else None
    return Reduction(tuple(pivots), reduced, rows.shape[0], head_rows)


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
    reduced = wide.reduced[:keep, :ncols].copy()
    reduced.flags.writeable = False
    return Reduction(wide.pivots[:keep], reduced, wide.head_rows, None)


def characterize(preset: str, p: int, reductions: dict | None = None) -> KernelReport:
    """The solution space of ``preset`` at p.

    Each constraint's matrix is reduced as it is built, and only its RREF
    (at most (deg+1)^2 residues) and its row count are kept.  The kernel is
    read off the RREF of a constraint that stands alone, and is otherwise
    that of the reduced rows and the side conditions stacked, which is the
    kernel of the full matrices stacked, as each RREF spans its matrix's
    rows.  The stack's RREF starts from the first constraint's, which is
    not eliminated again: only the other rows go through :func:`_rref`.
    ``reductions`` maps (equation, params, p, degree) to a
    :class:`Reduction`; a caller that passes one dict to several calls
    shares the reductions of the constraints they have in common, and a
    reduction at degree p-1 is read off one at degree p that the dict
    holds (see :func:`_narrowed`).  ``rows`` counts the rows of the full
    matrices.
    """
    if preset not in PRESETS:
        raise UnknownId(f"unknown preset {preset!r}")
    info = PRESETS[preset]
    deg = preset_degree(preset, p)
    if reductions is None:
        reductions = {}
    parts, nrows = [], 0
    for eq_id, params in info["constraints"]:
        key = (eq_id, tuple(sorted(params.items())), p, deg)
        if key not in reductions:
            wide = reductions.get(key[:3] + (p,))
            if deg == p - 1 and wide is not None:
                reductions[key] = _narrowed(wide)
            else:
                reductions[key] = _reduced_constraint(eq_id, params, p, deg)
        parts.append(reductions[key])
        nrows += reductions[key].rows
    first, *rest = parts
    rest = [reduction.reduced for reduction in rest]
    for side in info["side"]:
        mat = _SIDE_CONDITIONS[side](p, deg)
        rest.append(mat)
        nrows += mat.shape[0]
    pivots, reduced = first.pivots, first.reduced
    if rest:
        # the first constraint's RREF starts the stack's, and is not
        # eliminated again
        pivots, reduced = _rref(np.vstack(rest), p, start=(pivots, reduced))
    basis = _free_column_basis(pivots, reduced, deg + 1, p)
    target = polylog_vector(info["target"], p, deg)
    contains = in_span(basis, target, p)
    report = KernelReport(
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
    return report


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
    """Whether two presets cut out the same subspace of GF(p)[T]_{<p}."""
    ba = characterize(preset_a, p).basis
    bb = characterize(preset_b, p).basis
    if len(ba) != len(bb):
        return False
    return all(in_span(bb, v, p) for v in ba) and all(
        in_span(ba, v, p) for v in bb
    )


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
