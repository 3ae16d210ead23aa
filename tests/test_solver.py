import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finpolylog import build, characterize, kernels_equal, lemma417_sequence, lhat_apply
from finpolylog import poly, solver
from finpolylog.cli import main
from finpolylog.finlog import twisted_numerators
from finpolylog.errors import BadParams, SizeExceeded
from finpolylog.poly import Coordinates, PrimeDomain, SparsePoly
from finpolylog.solver import (
    PRESETS,
    _rref,
    columns_matrix,
    equation_columns,
    h_two_term_matrix,
    kernel_basis,
    basis_residuals,
    in_span,
    polylog_vector,
    preset_degree,
    substitute_into_columns,
    tau_family_rank,
    tau_satisfies_three_term,
)


class TestLinearAlgebra:
    def test_kernel_of_zero_map_is_everything(self):
        mat = np.zeros((2, 4), dtype=np.int64)
        assert len(kernel_basis(mat, 5)) == 4

    def test_kernel_of_identity_is_trivial(self):
        assert kernel_basis(np.eye(3, dtype=np.int64), 5) == []

    def test_kernel_vectors_annihilate(self):
        rng = np.random.default_rng(1)
        mat = rng.integers(0, 7, size=(4, 9)).astype(np.int64)
        for v in kernel_basis(mat, 7):
            assert not np.any((mat @ np.array(v)) % 7)

    def test_kernel_of_nested_lists(self):
        # an array-like is converted once, as _rref converts it
        for mat in ([[1, 2], [2, 4]], np.array([[1, 2], [2, 4]])):
            assert [v.tolist() for v in kernel_basis(mat, 7)] == [[5, 1]]

    def test_in_span(self):
        basis = [np.array([1, 0, 2]), np.array([0, 1, 3])]
        assert in_span(basis, np.array([1, 1, 5]), 7)
        assert not in_span(basis, np.array([0, 0, 1]), 7)

    def test_a_prime_past_2_31_is_refused(self):
        # at p = 4294967311 > 2^32 the products of an int64 elimination
        # pass 2^63 and give a wrong kernel of these rows
        p = 4294967311
        mat = np.array([[p - 1, p - 2, 3], [5, p - 7, 11]])
        calls = (
            lambda: kernel_basis(mat, p),
            lambda: in_span([np.array([1, 0, 2])], np.array([1, 1, 5]), p),
            lambda: tau_family_rank(p),
            lambda: _rref(mat, 2**31),
        )
        for call in calls:
            with pytest.raises(BadParams, match=r"p < 2\^31"):
                call()


class TestMulMod:
    """_mul_mod against the Python-int product, on both sides of the
    float64 bound inner * (p-1)^2 < 2^53, up to the 65534 inner terms
    whose int64 sums stay below 2^63."""

    @pytest.mark.parametrize(
        "p, inner",
        [(97, n) for n in (1, 5, 300)]
        + [(94906249, n) for n in (1, 2, 40)]
        + [(2**31 - 1, n) for n in (1, 3, 65534)],
    )
    def test_matches_the_python_int_product(self, p, inner):
        rng = np.random.default_rng(inner)
        a, b = rng.integers(0, p, (3, inner)), rng.integers(0, p, (inner, 2))
        a[0], b[:, 0] = p - 1, p - 1  # the largest sums
        cols = b.T.tolist()
        want = [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a.tolist()]
        assert (solver._mul_mod(a, b, p) % p).tolist() == want
        assert (solver._mul_mod(a, b[:, 1], p) % p).tolist() == [row[1] for row in want]
        assert (solver._mul_mod(a[2], b, p) % p).tolist() == want[2]

    def test_more_inner_terms_are_refused_past_the_float_bound(self):
        p = 2**31 - 1
        a, b = np.ones((1, 65535), dtype=np.int64), np.ones(65535, dtype=np.int64)
        with pytest.raises(BadParams, match="65535 > 65534 inner terms"):
            solver._mul_mod(a, b, p)
        assert solver._mul_mod(a, b, 97).tolist() == [65535]

    def test_the_float_path_ends_at_the_bound(self):
        # (p-1)^2 < 2^53 <= 2 (p-1)^2: one inner term takes the float64
        # product, left unreduced, and two take the reduced int64 products
        p = 94906249
        assert (p - 1) ** 2 < 2**53 <= 2 * (p - 1) ** 2
        top = np.full((1, 2), p - 1, dtype=np.int64)
        assert solver._mul_mod(top[:, :1], top.T[:1], p).tolist() == [[(p - 1) ** 2]]
        assert solver._mul_mod(top, top.T, p).tolist() == [[2]]


def rref_oracle(rows, ncols, p):
    """Gauss-Jordan over Python ints, one pivot per column, leftmost first."""
    rows = [[v % p for v in row] for row in rows]
    pivot_cols = []
    for c in range(ncols):
        rank = len(pivot_cols)
        r = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                rows[i] = [(a - row[c] * b) % p for a, b in zip(row, rows[rank])]
        pivot_cols.append(c)
    return pivot_cols, rows[: len(pivot_cols)]


RREF_PRIMES = (2, 3, 5, 97, 2**31 - 1)


@st.composite
def gf_matrices(draw):
    """(rows, ncols, p): tall low-rank, wide, zero, full-rank or one-column
    integer matrices, entries anywhere in (-p, 2p)."""
    p = draw(st.sampled_from(RREF_PRIMES))
    entry = st.integers(-(p - 1), 2 * p - 1)

    def matrix(nrows, ncols):
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        return draw(st.lists(row, min_size=nrows, max_size=nrows))

    def product(left, right):
        return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]

    kind = draw(st.sampled_from(("tall_low_rank", "wide", "zero", "full_rank", "one_column")))
    if kind == "tall_low_rank":
        ncols = draw(st.integers(1, 8))
        rank = draw(st.integers(1, ncols))
        nrows = draw(st.integers(ncols + 1, 40))
        return product(matrix(nrows, rank), matrix(rank, ncols)), ncols, p
    if kind == "full_rank":
        # unit lower triangular times upper triangular with a unit diagonal
        n = draw(st.integers(1, 8))
        lower, upper = matrix(n, n), matrix(n, n)
        for i in range(n):
            lower[i][i + 1 :] = [0] * (n - i - 1)
            lower[i][i] = 1
            upper[i][:i] = [0] * i
            upper[i][i] = draw(st.integers(1, p - 1))
        return product(lower, upper), n, p
    nrows, ncols = {
        "wide": (draw(st.integers(1, 6)), draw(st.integers(7, 20))),
        "zero": (draw(st.integers(0, 10)), draw(st.integers(0, 6))),
        "one_column": (draw(st.integers(1, 30)), 1),
    }[kind]
    if kind == "zero":
        return [[0] * ncols for _ in range(nrows)], ncols, p
    return matrix(nrows, ncols), ncols, p


class TestBlockedRref:
    """The blocked RREF against a plain Gauss-Jordan elimination; the RREF
    of a row space is unique, so both must agree exactly."""

    @pytest.mark.parametrize("block", (1, 3, solver._RREF_BLOCK))
    @given(gf_matrices())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_plain_gauss_jordan(self, block, case):
        rows, ncols, p = case
        mat = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
        before = mat.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_RREF_BLOCK", block)
            pivot_cols, pivot_rows = _rref(mat, p)
        want_cols, want_rows = rref_oracle(rows, ncols, p)
        assert pivot_cols == want_cols
        assert pivot_rows.dtype == np.int64 and pivot_rows.shape == (len(want_cols), ncols)
        assert pivot_rows.tolist() == want_rows
        assert np.array_equal(mat, before)


def tall_matrix(rng, nrows, ncols, rank, p):
    """A random (nrows x ncols) matrix of rank at most ``rank`` mod p, with
    entries in [0, 3p) and some zero rows."""
    mat = rng.integers(0, p, (nrows, rank)) @ rng.integers(0, p, (rank, ncols)) % p
    mat[rng.random(nrows) < 0.1] = 0
    return mat + p * rng.integers(0, 3, mat.shape)


def spy_absorb(monkeypatch):
    """The row counts of the blocks that _rref hands to _absorb, as a
    list filled while the patch lasts."""
    sizes = []
    absorb = solver._absorb

    def counting(pivot_cols, reduced, block, p):
        sizes.append(len(block))
        return absorb(pivot_cols, reduced, block, p)

    monkeypatch.setattr(solver, "_absorb", counting)
    return sizes


def spy_blocks(monkeypatch):
    """The (start, stop, rows built) of every MatrixRows.block call, as a
    list filled while the patch lasts."""
    built = []
    block = solver.MatrixRows.block

    def spy(self, start, stop, kernel=None):
        rows = block(self, start, stop, kernel)
        built.append((start, stop, rows.tolist()))
        return rows

    monkeypatch.setattr(solver.MatrixRows, "block", spy)
    return built


class TestStreamedRref:
    """_rref takes its rows block by block; the RREF must be that of one
    Gauss-Jordan elimination over the whole matrix."""

    @pytest.mark.parametrize("block", (1, 7, 64, solver._RREF_BLOCK, 5000))
    @pytest.mark.parametrize("p", (5, 97))
    def test_tall_matrices_match_the_dense_elimination(self, p, block, monkeypatch):
        monkeypatch.setattr(solver, "_RREF_BLOCK", block)
        rng = np.random.default_rng(p * block)
        for nrows, ncols, rank in ((2000, 20, 13), (1500, 31, 31), (700, 12, 1)):
            mat = tall_matrix(rng, nrows, ncols, rank, p)
            dense = mat % p
            want_cols, want_rank = solver._gauss_jordan(dense, p)
            pivot_cols, pivot_rows = _rref(mat, p)
            assert pivot_cols == want_cols
            assert np.array_equal(pivot_rows, dense[:want_rank])

    def test_past_the_float_bound_rows_stream_in_cuts(self, monkeypatch):
        # 3 (p-1)^2 >= 2^53: the 50 rows still come in blocks of 4, under a
        # started row that is never eliminated again; the first block's
        # residuals add one pivot, and only the last two rows add another
        p = 2**31 - 1
        rng = np.random.default_rng(3)
        mat = np.outer(rng.integers(1, p, 50), [1, 2, 3]) % p
        mat[-2:] = [[0, 1, 5], [7, 0, 0]]
        eliminations = []
        gauss_jordan = solver._gauss_jordan

        def counting(m, q):
            eliminations.append(m.shape[0])
            return gauss_jordan(m, q)

        absorbed = spy_absorb(monkeypatch)
        monkeypatch.setattr(solver, "_gauss_jordan", counting)
        monkeypatch.setattr(solver, "_RREF_BLOCK", 4)
        want_cols, want_rows = rref_oracle([[0, 0, 1], *mat.tolist()], 3, p)
        pivot_cols, pivot_rows = _rref(mat, p, start=([2], np.array([[0, 0, 1]])))
        assert pivot_cols == want_cols == [0, 1, 2]
        assert pivot_rows.tolist() == want_rows
        assert absorbed == [4] * 12 + [2] and eliminations == [4, 2]

    def test_no_block_is_built_once_every_column_is_a_pivot(self, monkeypatch):
        # five blocks of three rows, the first spanning every column
        mat = np.vstack([np.eye(3, dtype=np.int64) * (i + 1) for i in range(5)])
        absorbed = spy_absorb(monkeypatch)
        monkeypatch.setattr(solver, "_RREF_BLOCK", 3)
        pivot_cols, pivot_rows = _rref(mat, 7)
        assert pivot_cols == [0, 1, 2] and absorbed == [3]
        assert np.array_equal(pivot_rows, np.eye(3, dtype=np.int64))

    def test_row_blocks_are_built_when_asked_for(self, monkeypatch):
        # columns x^j + 2x^(j+3): the first block of three rows holds every
        # pivot, and the rows x^3..x^5 are never placed into a block
        dom = PrimeDomain(7)
        rows = solver.MatrixRows(
            coordinates([SparsePoly(("x",), dom, {(j,): 1, (j + 3,): 2}) for j in range(3)]), 7
        )
        assert rows.shape == (6, 3)
        built = spy_blocks(monkeypatch)
        monkeypatch.setattr(solver, "_RREF_BLOCK", 3)
        pivot_cols, _rows = _rref(rows, 7)
        assert pivot_cols == [0, 1, 2] and built == [(0, 3, np.eye(3, dtype=int).tolist())]

    def test_past_the_float_bound_row_blocks_are_built_in_cuts(self, monkeypatch):
        # 4 (p-1)^2 >= 2^53: the rows x^0..x^5 of columns x^j + 5x^(j+2)
        # are built in blocks of 2, the second tested against the kernel
        # of the first, and x^4, x^5 are never built
        p = 2**31 - 1
        dom = PrimeDomain(p)
        polys = [SparsePoly(("x",), dom, {(j,): 1, (j + 2,): 5}) for j in range(4)]
        rows = solver.MatrixRows(coordinates(polys), p)
        monkeypatch.setattr(solver, "_RREF_BLOCK", 2)
        (pivot_cols, pivot_rows), calls = TestKernelTest.spied_rref(rows, p, monkeypatch)
        # (rows asked for, kernel columns, rows built) of each block
        assert calls == [(2, None, 2), (2, 2, 2)]
        want_cols, want_rows = rref_oracle(columns_matrix_oracle(polys, p).tolist(), 4, p)
        assert pivot_cols == want_cols == [0, 1, 2, 3]
        assert pivot_rows.tolist() == want_rows == np.eye(4, dtype=int).tolist()


@st.composite
def stacked_parts(draw):
    """(parts, permutation, p): a few matrices with the same columns,
    entries anywhere in (-p, 2p), some of low rank, and a shuffle of the
    rows of their stack."""
    p = draw(st.sampled_from((2, 3, 97, 2**31 - 1)))
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-(p - 1), 2 * p - 1)

    def matrix(nrows, ncols):
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        return draw(st.lists(row, min_size=nrows, max_size=nrows))

    parts = []
    for _ in range(draw(st.integers(1, 4))):
        nrows = draw(st.integers(0, 10))
        if draw(st.booleans()):  # rank at most `inner`
            inner = draw(st.integers(1, ncols))
            left, right = matrix(nrows, inner), matrix(inner, ncols)
            rows = [
                [sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                for row in left
            ]
        else:
            rows = matrix(nrows, ncols)
        parts.append(np.array(rows, dtype=np.int64).reshape(nrows, ncols))
    total = sum(len(part) for part in parts)
    return parts, draw(st.permutations(range(total))), p


class TestStackedReductions:
    """characterize stacks each constraint's RREF rows in place of its
    matrix, and columns_matrix gives rows in packed-key order: the kernel
    must not depend on either."""

    @given(stacked_parts())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_kernel_ignores_row_order_and_per_part_reduction(self, case):
        parts, perm, p = case
        stacked = np.vstack(parts)
        ncols = stacked.shape[1]
        reduced = np.vstack([_rref(part, p)[1] for part in parts])
        want = [v.tolist() for v in kernel_basis(stacked, p)]
        assert [v.tolist() for v in kernel_basis(stacked[list(perm)], p)] == want
        assert [v.tolist() for v in kernel_basis(reduced, p)] == want


class TestIncrementalRref:
    """_rref eliminates only each block's residual rows, and a stack may
    start from a given RREF; both against one Gauss-Jordan elimination
    over Python ints of every row."""

    @staticmethod
    def with_side_conditions(parts, p, sides):
        ncols = parts[0].shape[1]
        if sides:
            parts = parts + [
                solver.constant_term_matrix(p, ncols - 1),
                solver.h_two_term_matrix(p, ncols - 1),
            ]
        return parts

    @pytest.mark.parametrize("block", (1, 3, solver._RREF_BLOCK))
    @given(stacked_parts(), st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_blocks_match_the_oracle(self, block, case, sides):
        # the stack as an array and as a MatrixRows, in blocks of ``block``
        parts, _perm, p = case
        parts = self.with_side_conditions(parts, p, sides)
        stacked = np.vstack(parts)
        ncols = stacked.shape[1]
        want_cols, want_rows = rref_oracle(stacked.tolist(), ncols, p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_RREF_BLOCK", block)
            for rows in (stacked, matrix_rows(stacked, p)):
                pivot_cols, pivot_rows = _rref(rows, p)
                assert pivot_cols == want_cols
                assert pivot_rows.tolist() == want_rows

    @pytest.mark.parametrize("block", (1, 3, solver._RREF_BLOCK))
    @given(stacked_parts(), st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_a_stack_started_from_an_rref(self, block, case, sides):
        # the first part's RREF starts the stack of the others, as
        # characterize stacks a preset's constraints and side conditions;
        # the started rows are never eliminated again
        parts, _perm, p = case
        parts = self.with_side_conditions(parts, p, sides)
        first, rest = parts[0], np.vstack(parts[1:] or [parts[0][:0]])
        ncols = first.shape[1]
        want_cols, want_rows = rref_oracle(np.vstack(parts).tolist(), ncols, p)
        start = _rref(first, p)
        eliminated = []
        gauss_jordan = solver._gauss_jordan

        def counting(m, q):
            eliminated.append(m.shape[0])
            return gauss_jordan(m, q)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_RREF_BLOCK", block)
            mp.setattr(solver, "_gauss_jordan", counting)
            pivot_cols, pivot_rows = _rref(rest, p, start=start)
        assert pivot_cols == want_cols
        assert [[int(v) for v in row] for row in pivot_rows] == want_rows
        assert sum(eliminated) <= len(rest)
        basis = solver._free_column_basis(pivot_cols, pivot_rows, ncols, p)
        assert [v.tolist() for v in basis] == [v.tolist() for v in kernel_basis(np.vstack(parts), p)]

    @pytest.mark.parametrize("p", (7, 2**31 - 1))
    def test_a_full_rank_start_asks_for_no_block(self, p, monkeypatch):
        absorbed, built = spy_absorb(monkeypatch), spy_blocks(monkeypatch)
        start = ([0, 1, 2], np.eye(3, dtype=np.int64))
        dom = PrimeDomain(p)
        rows = solver.MatrixRows(coordinates([SparsePoly(("x",), dom, {(0,): 1})] * 3), p)
        for mat in (np.ones((1, 3), dtype=np.int64), rows):
            pivot_cols, pivot_rows = _rref(mat, p, start)
            assert pivot_cols == [0, 1, 2] and np.array_equal(pivot_rows, start[1])
        assert absorbed == [] and built == []

    def test_the_first_block_holds_the_columns_and_32_rows(self, monkeypatch):
        rng = np.random.default_rng(4)
        mat = rng.integers(0, 97, (1000, 20))
        sizes = spy_absorb(monkeypatch)
        _rref(np.zeros((1000, 20), dtype=np.int64), 97)
        assert sizes == [52, 512, 436]
        sizes.clear()
        assert _rref(mat, 97)[0] == list(range(20)) and sizes == [52]


def sparse_low_rank(rng, nrows, ncols, rank, p):
    """A (nrows x ncols) matrix whose rows are multiples of ``rank`` random
    generators of 1 to 3 terms each, its nonzero entries raised by 0 or p:
    rows of few terms in a row space of high rank, where _rref tests rows
    against a kernel basis in place of building them."""
    gens = np.zeros((rank, ncols), dtype=np.int64)
    for gen in gens:
        at = rng.choice(ncols, rng.integers(1, 4), replace=False)
        gen[at] = rng.integers(1, p, len(at))
    mat = gens[rng.integers(0, rank, nrows)] * rng.integers(1, p, (nrows, 1)) % p
    return mat + p * rng.integers(0, 2, mat.shape) * (mat != 0)


def matrix_rows(mat, p):
    """The MatrixRows of a matrix: row i is the monomial of key i, and its
    nonzero entries are the terms."""
    i, j = np.nonzero(mat)
    one = np.ones(1, dtype=np.int64)
    return solver.MatrixRows(Coordinates(i.astype(np.int64), j, mat[i, j], mat.shape[1], one), p)


class TestKernelTest:
    """_rref tests the rows of a MatrixRows against a kernel basis of
    the RREF so far once that is cheaper than building them, and builds
    only the rows outside its row space; the RREF must be that of the
    dense matrix and of the oracle, and no row outside the span may be
    skipped."""

    @staticmethod
    def spied_rref(rows, p, monkeypatch):
        """_rref of ``rows``, with the (rows asked for, kernel columns or
        None, rows built) of every block."""
        calls = []
        block = solver.MatrixRows.block

        def spy(self, start, stop, kernel=None):
            built = block(self, start, stop, kernel)
            calls.append((stop - start, None if kernel is None else kernel.shape[1], len(built)))
            return built

        monkeypatch.setattr(solver.MatrixRows, "block", spy)
        return _rref(rows, p), calls

    @pytest.mark.parametrize("block", (1, 7, solver._RREF_BLOCK))
    @pytest.mark.parametrize("p", (2, 3, 97, 65521, 2**31 - 1))
    def test_matches_the_dense_path_and_the_oracle(self, p, block, monkeypatch):
        monkeypatch.setattr(solver, "_RREF_BLOCK", block)
        rng = np.random.default_rng(p + block)
        tested = 0
        for nrows, ncols, rank in ((600, 12, 11), (300, 9, 9), (200, 6, 4), (40, 30, 28)):
            mat = sparse_low_rank(rng, nrows, ncols, rank, p)
            (pivot_cols, pivot_rows), calls = self.spied_rref(matrix_rows(mat, p), p, monkeypatch)
            want_cols, want_rows = rref_oracle(mat.tolist(), ncols, p)
            assert pivot_cols == want_cols
            assert [[int(v) for v in row] for row in pivot_rows] == want_rows
            dense_cols, dense_rows = _rref(mat, p)
            assert dense_cols == pivot_cols and np.array_equal(dense_rows, pivot_rows)
            tested += sum(k is not None for _n, k, _built in calls)
        assert tested

    def test_a_row_past_the_plateau_raises_the_rank(self, monkeypatch):
        # 400 rows in a span of rank 10 of 12 columns, then one row outside
        # it: every block after the first is tested against the kernel,
        # and the last row must still be built and raise the rank
        monkeypatch.setattr(solver, "_RREF_BLOCK", 16)
        p = 97
        rng = np.random.default_rng(7)
        mat = sparse_low_rank(rng, 400, 12, 10, p)
        rank = len(rref_oracle(mat.tolist(), 12, p)[0])
        kernel = kernel_basis(mat, p)
        outside = next(e for e in np.eye(12, dtype=np.int64) if any(e @ v % p for v in kernel))
        mat = np.vstack([mat, 5 * outside])
        (pivot_cols, pivot_rows), calls = self.spied_rref(matrix_rows(mat, p), p, monkeypatch)
        assert len(pivot_cols) == rank + 1
        assert (pivot_cols, [[int(v) for v in r] for r in pivot_rows]) == tuple(
            rref_oracle(mat.tolist(), 12, p)
        )
        assert calls[-1][1] is not None and calls[-1][2] == 1
        assert all(built == 0 for _n, k, built in calls[1:-1] if k is not None)

    def test_past_the_float_bound_rows_are_tested(self, monkeypatch):
        # 12 (p-1)^2 >= 2^53: the blocks past the plateau are tested against
        # the kernel and none of their rows is built
        p = 2**31 - 1
        rng = np.random.default_rng(8)
        mat = sparse_low_rank(rng, 300, 12, 9, p)
        (pivot_cols, pivot_rows), calls = self.spied_rref(matrix_rows(mat, p), p, monkeypatch)
        assert (pivot_cols, [[int(v) for v in r] for r in pivot_rows]) == tuple(
            rref_oracle(mat.tolist(), 12, p)
        )
        tested = [built for _n, k, built in calls if k is not None]
        assert tested and not any(tested)

    def test_a_sum_past_2_63_keeps_its_row(self):
        # the row (p-1, p-1, p-1) against the kernel column (p-1, p-1, p-2)
        # sums to s = 4 mod p, past 2^63, where s - 2^64 = 0 mod p: an
        # unreduced int64 sum would drop the row; (1, p-1, 0) does lie in
        # the span and is dropped
        p = 2**31 - 1
        s = 2 * (p - 1) ** 2 + (p - 1) * (p - 2)
        assert 2**63 <= s < 2**64 and s % p == 4 and (s - 2**64) % p == 0
        rows = matrix_rows(np.array([[p - 1] * 3, [1, p - 1, 0]]), p)
        kernel = np.array([[p - 1], [p - 1], [p - 2]])
        assert rows.block(0, 2, kernel).tolist() == [[p - 1] * 3]


class TestHTwoTermMatrix:
    @pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 19, 23, 29, 31, 97))
    def test_running_powers_match_direct_powers(self, p):
        # the Pascal rows mod p against j * (x^j - (1-x)^j) from SparsePoly powers
        dom = PrimeDomain(p)
        x = SparsePoly.variable("x", ("x",), dom)
        one = SparsePoly.const(("x",), dom, 1)
        for deg in (p - 1, p):
            direct = packed_order_oracle(
                [(x**j - (one - x) ** j).scale(j) for j in range(deg + 1)], p
            )
            assert_same_matrix(h_two_term_matrix(p, deg), direct)


class TestEquationColumns:
    def test_polylog_solves_its_own_equation(self):
        p = 7
        s = build("feit", p)
        mat = columns_matrix(equation_columns(s, p), p)
        for vec in (polylog_vector(1, p), np.zeros(p, dtype=np.int64)):
            assert not substitute_into_columns(mat, vec, p).any()

    def test_nonsolution_leaves_residual(self):
        p = 7
        s = build("feit", p)
        mat = columns_matrix(equation_columns(s, p), p)
        vec = np.zeros(p, dtype=np.int64)
        vec[2] = 1  # T^2 is not a solution
        assert substitute_into_columns(mat, vec, p).any()

    def test_residual_at_the_largest_packed_prime(self):
        # products of residues near 2^31 leave int64 unless reduced one by one
        p = 2147483647
        mat = np.array([[p - 1, p - 2, 1], [0, p - 1, p - 1]], dtype=np.int64)
        vec = [p - 1, p - 3, 5]
        want = [sum(int(a) * b for a, b in zip(row, vec)) % p for row in mat]
        assert substitute_into_columns(mat, vec, p).tolist() == want

    def test_columns_matrix_shape(self):
        p = 7
        mat = columns_matrix(equation_columns(build("feit", p), p), p)
        assert mat.shape[1] == p  # unknowns a_0..a_{p-1}


def columns_matrix_oracle(cols, p):
    """Dense matrix of the columns, one scalar store per entry; rows are
    the monomials by total degree, then exponents."""
    index = {}
    rows = []
    mat_entries = []
    for j, col in enumerate(cols):
        for exps, coeff in col.terms.items():
            if exps not in index:
                index[exps] = len(rows)
                rows.append(exps)
            mat_entries.append((index[exps], j, coeff % p))
    order = sorted(range(len(rows)), key=lambda i: (sum(rows[i]), rows[i]))
    rank_of = {old: new for new, old in enumerate(order)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for r, j, v in mat_entries:
        mat[rank_of[r], j] = v
    return mat


def packed_coordinates(exps, index, vals, count):
    """Coordinates of exponent rows, packed under radices one past each
    variable's largest exponent."""
    radices = exps.max(axis=0) + 1 if len(exps) else np.ones(exps.shape[1], dtype=np.int64)
    kron = poly._Kronecker(radices)
    return Coordinates(exps @ kron.strides, index, vals, count, kron.radices)


def coordinates(cols):
    """Coordinate form of a list of SparsePoly columns."""
    nvars = len(cols[0].vars) if cols else 0
    rows = [e for col in cols for e in col.terms]
    return packed_coordinates(
        np.array(rows, dtype=np.int64).reshape(len(rows), nvars),
        np.array([j for j, col in enumerate(cols) for _ in col.terms], dtype=np.int64),
        np.array([c for col in cols for c in col.terms.values()], dtype=np.int64),
        len(cols),
    )


def packed_order_oracle(cols, p):
    """``columns_matrix_oracle`` with its rows in the order of
    ``columns_matrix``: ascending packed key, whose most significant digit
    is the last variable's exponent, so the rows go by their reversed
    exponent tuples."""
    mat = columns_matrix_oracle(cols, p)
    exps = sorted({e for col in cols for e in col.terms}, key=lambda e: (sum(e), e))
    return mat[sorted(range(len(exps)), key=lambda i: exps[i][::-1])]


def assert_same_matrix(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


def per_vector_columns(s, p, deg):
    """The columns one unit vector at a time, each padded with zeros to
    degree p: one call of the numerator builder per column, each unpacked
    into a SparsePoly."""
    cols = []
    for j in range(deg + 1):
        unit = [int(i == j) for i in range(p + 1)]
        (col,) = twisted_numerators(s, [unit])[1].polys(s.variables, s.domain)
        cols.append(col)
    return cols


PRESET_CONSTRAINTS = [
    (preset, eq_id, params)
    for preset in sorted(PRESETS)
    for eq_id, params in PRESETS[preset]["constraints"]
]


class TestColumnsMatrix:
    """The stacked columns and their matrix against one builder call per
    unit vector, unpacked into dicts and placed one entry at a time."""

    @staticmethod
    def assert_matches_oracle(s, p, deg):
        got = columns_matrix(equation_columns(s, p, deg), p)
        want = packed_order_oracle(per_vector_columns(s, p, deg), p)
        assert_same_matrix(got, want)

    @pytest.mark.parametrize("p", (5, 7, 11))
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_columns(self, preset, p):
        deg = preset_degree(preset, p)
        for eq_id, params in PRESETS[preset]["constraints"]:
            self.assert_matches_oracle(build(eq_id, p, **params), p, deg)

    @pytest.mark.parametrize("p", (5, 7, 11))
    def test_preset_columns_under_a_lowered_cap(self, p, monkeypatch):
        """Once the first vector is read, the cap drops to the columns'
        total: the one stacked block then gives the same matrix or is
        refused, and a refused block is not summed again."""
        outer = []
        grouped_sum = poly._grouped_sum
        depth = [0]

        def counting(items, powers, q):
            outer.append(not depth[0])
            depth[0] += 1
            try:
                return grouped_sum(items, powers, q)
            finally:
                depth[0] -= 1

        numerators = solver.twisted_numerators
        summed = refused = 0
        for preset, eq_id, params in PRESET_CONSTRAINTS:
            s = build(eq_id, p, **params)
            deg = preset_degree(preset, p)
            want = packed_order_oracle(per_vector_columns(s, p, deg), p)
            cap = int(np.count_nonzero(want))

            def lowered(vectors):
                for w in vectors:
                    monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", cap)
                    yield w

            outer.clear()
            with monkeypatch.context() as mp:
                mp.setattr(poly, "_grouped_sum", counting)
                mp.setattr(
                    solver,
                    "twisted_numerators",
                    lambda s, vectors: numerators(s, lowered(vectors)),
                )
                try:
                    got = columns_matrix(equation_columns(s, p, deg), p)
                except SizeExceeded:
                    refused += 1
                else:
                    assert_same_matrix(got, want)
                    summed += 1
            monkeypatch.undo()
            assert outer.count(True) <= 1
        assert summed and refused

    def test_hand_made_columns(self):
        p, dom = 7, PrimeDomain(10007)  # coefficients up to 10006
        variables = ("x", "y")
        cols = [
            SparsePoly(variables, dom, {(2, 0): 9, (0, 0): 10006}),
            SparsePoly.zero(variables, dom),
            # monomials first seen here sort before and between earlier ones
            SparsePoly(variables, dom, {(0, 3): 7, (1, 0): 14, (2, 0): 1, (1, 1): 700}),
            SparsePoly(variables, dom, {(0, 0): 6, (0, 3): 8}),
        ]
        for part in (cols, cols[1:2], [], cols[::-1]):
            got = columns_matrix(coordinates(part), p)
            want = packed_order_oracle(part, p)
            assert_same_matrix(got, want)

    def test_columns_without_variables(self):
        dom = PrimeDomain(7)
        cols = [SparsePoly.const((), dom, c) for c in (3, 0, 5)]
        got = columns_matrix(coordinates(cols), 7)
        assert got.tolist() == [[3, 0, 5]]
        assert coordinates(cols).polys((), dom) == cols


SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def reduction_by_matrix(eq_id, params, p, deg):
    """pivots, RREF rows and row count of the whole columns matrix."""
    mat = columns_matrix(equation_columns(build(eq_id, p, **params), p, deg), p)
    pivots, rows = _rref(mat, p)
    return tuple(pivots), [[int(v) for v in row] for row in rows], mat.shape[0]


def reduction_parts(reduction):
    return reduction.pivots, reduction.reduced.tolist(), reduction.rows


class TestReducedConstraint:
    """_reduced_constraint streams its rows into the RREF without the
    matrix; the reduction must be that of the matrix."""

    @pytest.mark.parametrize(
        "preset, eq_id, params, p",
        [(*case, p) for case in PRESET_CONSTRAINTS for p in SMALL_PRIMES]
        + [("FEIT", "feit", {}, 97)],
    )
    def test_matches_the_matrix(self, preset, eq_id, params, p):
        deg = preset_degree(preset, p)
        got = solver._reduced_constraint(eq_id, params, p, deg)
        assert reduction_parts(got) == reduction_by_matrix(eq_id, params, p, deg)

    @pytest.mark.parametrize(
        "eq_id, params",
        (
            ("three_term", {}),
            ("feit", {}),
            ("two_term", {}),
            ("inversion", {"n": 1}),
            ("distribution", {"n": 1, "m": 2}),
            ("distribution", {"n": 2, "m": 2}),
        ),
    )
    def test_degree_p_minus_1_read_off_degree_p(self, eq_id, params):
        for p in SMALL_PRIMES + ((97,) if eq_id == "three_term" else ()):
            wide = solver._reduced_constraint(eq_id, params, p, p)
            direct = solver._reduced_constraint(eq_id, params, p, p - 1)
            narrow = solver._narrowed(wide)
            assert reduction_parts(narrow) == reduction_parts(direct)
            assert not narrow.reduced.flags.writeable

    def test_feit_at_97_peak(self, peak_of):
        # the column build holds one copy of each large packed polynomial
        # at a time: the stacked item times its two-term power is merged
        # with no spare copy of either; the coordinates (322,822 terms,
        # 7.7 MB) are ranked in chunks and their rows reduced in blocks, so
        # no 9,507 x 97 matrix or copy of it is held
        reduction, peak = peak_of(lambda: solver._reduced_constraint("feit", {}, 97, 97))
        assert reduction.rows == 9507 and len(reduction.pivots) == 97
        assert peak <= 11.5 * 10**6, peak


class TestSharedDenominatorClearing:
    """lhat_apply and equation_columns clear denominators with the same
    routine, both at degree p; reading the columns at the polylog's
    coefficient vector must give exactly the numerator of the twisted
    evaluation.  The numerator goes into the matrix as one more column, so
    both sides are read on the same rows."""

    @pytest.mark.parametrize(
        "eq_id, p, weight, residual_terms",
        (
            ("feit", 7, 1, 0),
            ("kummer_spence", 7, 2, 0),
            ("three_term", 7, 2, 0),
            ("feit", 7, 2, 50),
            ("cathelineau_J", 5, 1, 256),
            ("five_term_v1", 5, 2, 14404),
            ("five_term_v2", 7, 3, 38647),
        ),
    )
    def test_columns_at_polylog_equal_twisted_numerator(
        self, eq_id, p, weight, residual_terms
    ):
        s = build(eq_id, p)
        num = lhat_apply(weight, s).num
        cols = equation_columns(s, p, p - 1)
        assert len(num.terms) == residual_terms
        extra = coordinates([num])
        mat = columns_matrix(
            packed_coordinates(
                np.vstack([cols.exps, extra.exps]),
                np.concatenate([cols.index, extra.index + cols.count]),
                np.concatenate([cols.vals, extra.vals]),
                cols.count + 1,
            ),
            p,
        )
        residual = substitute_into_columns(mat[:, :-1], polylog_vector(weight, p), p)
        assert np.array_equal(residual, mat[:, -1])


class TestColumnSizeGuard:
    """The columns are refused once their stacked parts, a product of
    their stacked sum, or the sum itself passes the cap: FEIT has 322,818
    column terms at p=97."""

    def test_cli_exits_2_without_traceback(self, monkeypatch, capsys):
        monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", 10**5)
        assert main(["solve", "--preset", "FEIT", "--p", "97"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert main(["solve", "--preset", "FEIT", "--p", "31"]) == 0

    def test_cli_exits_2_after_an_unguarded_solve(self, monkeypatch, capsys):
        # reductions are shared within one call only: none of this call's
        # may let the next pass the lowered cap
        assert main(["solve", "--preset", "FEIT", "--p", "97"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", 10**5)
        assert main(["solve", "--preset", "FEIT", "--p", "97"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_refused_before_the_last_block(self, monkeypatch, capsys):
        # FEIT's stacked parts at p=97 (161,797 terms) pass this cap before
        # the 97th unit vector is read
        monkeypatch.setattr(poly, "DEFAULT_TERM_CAP", 10**5)
        read = []
        numerators = solver.twisted_numerators

        def counting(s, vectors):
            return numerators(s, (read.append(len(w)) or w for w in vectors))

        monkeypatch.setattr(solver, "twisted_numerators", counting)
        assert main(["solve", "--preset", "FEIT", "--p", "97"]) == 2
        assert "the parts of the first" in capsys.readouterr().err
        assert 0 < len(read) < 97
        read.clear()
        assert main(["solve", "--preset", "FEIT", "--p", "31"]) == 0
        assert len(read) == 31


class TestSharedReductions:
    """One solve call reduces each (equation, params, p, degree) once:
    L2_PAIR and THM423 have the same two constraints at degree p-1."""

    def test_two_presets_build_each_constraint_once(self, monkeypatch, capsys):
        def records(argv):
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)["records"]

        alone = records(["solve", "--preset", "L2_PAIR", "--p", "5..13"])
        alone += records(["solve", "--preset", "THM423", "--p", "5..13"])
        built = []
        columns = solver.equation_columns

        def counting(s, p, deg=None):
            built.append(p)
            return columns(s, p, deg)

        monkeypatch.setattr(solver, "equation_columns", counting)
        both = records(["solve", "--preset", "L2_PAIR,THM423", "--p", "5..13"])
        assert Counter(built) == {5: 2, 7: 2, 11: 2, 13: 2}
        assert both == alone

    @pytest.mark.parametrize("p", (5, 7, 11))
    @pytest.mark.parametrize(
        "preset",
        sorted(n for n, i in PRESETS.items() if len(i["constraints"]) == 1 and not i["side"]),
    )
    def test_lone_constraint_kernel_read_off_its_reduction(self, preset, p):
        ((eq_id, params),) = PRESETS[preset]["constraints"]
        deg = preset_degree(preset, p)
        mat = columns_matrix(equation_columns(build(eq_id, p, **params), p, deg), p)
        want = [v.tolist() for v in kernel_basis(mat, p)]
        assert [v.tolist() for v in characterize(preset, p).basis] == want

    BENCHMARK_CALL = ["solve", "--preset", "FEIT,L1_TRIPLE,THREE_TERM,L2_PAIR,THM423"]

    def test_benchmark_call_builds_six_columns_per_prime(self, monkeypatch, capsys):
        # FEIT, two_term, inversion, distribution (n=1), three_term at
        # degree p and distribution (n=2): three_term at degree p-1 for
        # L2_PAIR and THM423 is read off its degree-p reduction
        built = []
        columns = solver.equation_columns

        def counting(s, p, deg=None):
            built.append(p)
            return columns(s, p, deg)

        monkeypatch.setattr(solver, "equation_columns", counting)
        assert main(self.BENCHMARK_CALL + ["--p", "5..31,97"]) == 0
        capsys.readouterr()
        assert Counter(built) == {p: 6 for p in SMALL_PRIMES + (97,)}

    def test_narrowed_reductions_keep_the_records(self, capsys):
        def records(argv):
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)["records"]

        alone = []
        for preset in ("L2_PAIR", "THM423", "THREE_TERM"):
            alone += records(["solve", "--preset", preset, "--p", "5..13"])
        both = records(["solve", "--preset", "THREE_TERM,L2_PAIR,THM423", "--p", "5..13"])
        assert sorted(both, key=json.dumps) == sorted(alone, key=json.dumps)

    def test_reductions_are_read_only(self):
        # three_term's own reduction starts the stack; distribution's rows
        # enter the stack and are not reduced alone; the stack is kept
        # under the set of both keys, which THM423 reads off
        reductions = {}
        characterize("L2_PAIR", 7, reductions)
        keys = [
            (eq_id, tuple(sorted(params.items())), 7, 6)
            for eq_id, params in PRESETS["L2_PAIR"]["constraints"]
        ]
        assert set(reductions) == {keys[0], frozenset(keys)}
        assert reductions[frozenset(keys)].rows == 8 + 7
        for reduction in reductions.values():
            with pytest.raises(ValueError):
                reduction.reduced[0, 0] = 0
        # THM423 builds no columns: it adds its side condition to the stack
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "equation_columns", None)
            report = characterize("THM423", 7, reductions)
        assert report.rows == 8 + 7 + len(solver.h_two_term_matrix(7, 6))
        assert len(reductions) == 2


def full_stack_oracle(preset, p):
    """Kernel basis and target membership of a preset read off the whole
    columns matrices of its constraints and its side conditions stacked,
    through kernel_basis and in_span."""
    info = PRESETS[preset]
    deg = preset_degree(preset, p)
    parts = [
        columns_matrix(equation_columns(build(eq_id, p, **params), p, deg), p)
        for eq_id, params in info["constraints"]
    ]
    parts += [solver._SIDE_CONDITIONS[side](p, deg) for side in info["side"]]
    stacked = np.vstack(parts)
    basis = kernel_basis(stacked, p)
    return basis, in_span(basis, polylog_vector(info["target"], p, deg), p), len(stacked)


class TestOneStackedElimination:
    """characterize reduces each preset's constraints in one stacked
    elimination, shares the stacks and single reductions through one
    dict, and tests the target with one product; the report must be that
    of the full stacked matrices."""

    @pytest.mark.parametrize("shared", (False, True), ids=("fresh", "shared"))
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_every_preset_matches_the_full_stacked_matrix(self, p, shared):
        reductions = {}
        for preset in (*PRESETS, *reversed(PRESETS)):
            report = characterize(preset, p, reductions if shared else None)
            basis, contains, rows = full_stack_oracle(preset, p)
            assert [v.tolist() for v in report.basis] == [v.tolist() for v in basis]
            assert report.dimension == len(basis) and report.rows == rows
            assert report.contains_target == contains
            assert report.proportional_to_target == (len(basis) == 1 and contains)
            assert report.zero_constant_term == all(int(v[0]) == 0 for v in basis)

    @pytest.mark.parametrize("preset", ("FEIT", "L1_TRIPLE", "KS"))
    def test_a_target_outside_the_kernel(self, preset, monkeypatch):
        # each preset with the target of another weight, which its kernel
        # does not hold
        info = dict(PRESETS[preset], target=3 - PRESETS[preset]["target"])
        monkeypatch.setitem(PRESETS, "OTHER_WEIGHT", info)
        for p in (7, 11):
            report = characterize("OTHER_WEIGHT", p)
            basis, contains, _rows = full_stack_oracle("OTHER_WEIGHT", p)
            assert [v.tolist() for v in report.basis] == [v.tolist() for v in basis]
            assert report.contains_target is contains is False

    def test_exact_span_test_at_the_largest_packed_prime(self):
        # R @ v mod p for an RREF R of 9 columns at p = 2^31 - 1, where
        # float64 products are not exact: zero exactly on R's kernel
        p = 2**31 - 1
        rng = np.random.default_rng(9)
        mat = rng.integers(0, p, (5, 9)) % p
        _pivot_cols, reduced = _rref(mat, p)
        basis = kernel_basis(mat, p)
        combo = sum(int(c) * v.astype(object) for c, v in zip(rng.integers(0, p, 4), basis))
        inside = np.array([int(v) % p for v in combo], dtype=np.int64)
        for vec, want in ((inside, True), ((inside + 1) % p, False), (basis[-1], True)):
            residual = substitute_into_columns(reduced, vec, p)
            oracle = [sum(int(a) * int(b) for a, b in zip(row, vec)) % p for row in reduced]
            assert residual.tolist() == oracle
            assert (not residual.any()) == want == in_span(basis, vec, p)


class TestPresets:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_dimension_and_target_at_seven(self, preset):
        r = characterize(preset, 7)
        expected = PRESETS[preset]["expected_dim"]
        if expected is None:
            expected = (7 - 1) // 3 + 1
        assert r.dimension == expected
        assert r.contains_target

    @pytest.mark.parametrize("preset", ("FEIT", "KS", "J"))
    def test_basis_is_sound(self, preset):
        r = characterize(preset, 7)
        assert basis_residuals(preset, 7, r.basis)
        vec = polylog_vector(PRESETS[preset]["target"], 7) + 1
        assert not basis_residuals(preset, 7, [vec])

    def test_kernels_equal_for_both_weight_two_presets(self):
        assert kernels_equal("KS", "J", 7)

    def test_distinct_kernels_detected(self):
        assert not kernels_equal("FEIT", "KS", 7)

    def test_reach(self):
        r = characterize("J", 31)
        assert r.dimension == 1 and r.proportional_to_target


class TestTauFamily:
    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_tau_members_satisfy_cyclic_equation(self, p):
        for i in range((p - 1) // 3 + 1):
            assert tau_satisfies_three_term(i, p)

    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_family_has_full_rank(self, p):
        assert tau_family_rank(p) == (p - 1) // 3 + 1


class TestDescendingSequences:
    @pytest.mark.parametrize("p", (5, 7, 11, 13, 31))
    def test_closed_form_and_antisymmetry(self, p):
        r = lemma417_sequence(p)
        assert r["matches_closed_form"] and r["antisymmetric"]

    def test_known_sequence_mod_five(self):
        assert lemma417_sequence(5, 1)["sequence"] == (1, 3, 2, 4)

    def test_scaling_in_initial_value(self):
        r1 = lemma417_sequence(11, 1)["sequence"]
        r2 = lemma417_sequence(11, 3)["sequence"]
        assert tuple((3 * v) % 11 for v in r1) == r2
