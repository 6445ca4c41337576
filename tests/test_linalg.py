"""Exact dense linear algebra: elimination, determinants, the left solver.

The differential tests at the end check rank, solve_right, the kernels and
det against test-local oracles (row-span enumeration, the largest nonzero
minor, plain products and permutation expansion) over prime, binary and
general fields on the exp/log table kernels, and over a prime and a binary
field above the table cap, which eliminate through the modular and the
comb/fold kernels.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from convec import field
from convec.errors import DimensionMismatch, FieldMismatch, IndexOutOfRange
from convec.gf import Field
from convec.linalg import (
    Mat,
    _solve_packed,
    det,
    minor,
    rank,
    right_kernel,
    solve_right,
)
from convec.polymat import PolyMatrix


def _perm_det(a: Mat):
    """Permutation-expansion determinant, the independent oracle."""
    n = a.nrows
    fld = a.field
    total = fld.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = fld.one
        for i in range(n):
            term = term * a.data[i][perm[i]]
        total = total + (-term if inversions % 2 else term)
    return total


@pytest.mark.parametrize("p", [2, 3])
def test_det_matches_permutation_expansion(p):
    F = field(p)
    rng = random.Random(40 + p)
    for n in range(1, 7):
        for _ in range(8):
            a = Mat(F, [[F.random_element(rng) for _ in range(n)] for _ in range(n)])
            assert det(a) == _perm_det(a)


def test_det_multiplicative():
    F = field(7)
    rng = random.Random(9)
    for _ in range(25):
        a = Mat(F, [[F.random_element(rng) for _ in range(3)] for _ in range(3)])
        b = Mat(F, [[F.random_element(rng) for _ in range(3)] for _ in range(3)])
        assert det(a * b) == det(a) * det(b)


def test_det_identity_and_empty():
    F = field(5)
    assert det(Mat.identity(F, 4)) == F.one
    assert det(Mat(F, [], 0)) == F.one
    with pytest.raises(DimensionMismatch):
        det(Mat.zeros(F, 2, 3))


def test_minor_validation():
    F = field(2)
    a = Mat.identity(F, 3)
    assert minor(a, [0, 1], [0, 1]) == F.one
    assert minor(a, [0, 1], [1, 2]) == F.zero
    with pytest.raises(DimensionMismatch):
        minor(a, [0, 1], [0])
    with pytest.raises(IndexOutOfRange):
        minor(a, [0, 3], [0, 1])
    with pytest.raises(IndexOutOfRange):
        minor(a, [1, 0], [0, 1])


def test_rank_examples():
    F = field(2)
    g0 = Mat.from_packed(F, [[1, 1, 0, 1, 1], [1, 0, 1, 1, 0]])
    assert rank(g0) == 2
    assert rank(Mat.zeros(F, 3, 4)) == 0
    assert rank(Mat.identity(F, 5)) == 5
    assert rank(Mat.from_packed(F, [[1, 1], [1, 1]])) == 1


def test_solve_unique_known_system():
    # punctured sliding system from a hand-worked GF(2) decode: the solution
    # (1,1,0,0) is forced.
    F = field(2)
    a = Mat.from_packed(F, [
        [1, 1, 1, 1, 1, 1],
        [1, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
    ])
    b = Mat.from_packed(F, [[0, 1, 1, 1, 1, 0]])
    res = solve_right(a, b)
    assert res.is_unique
    assert res.solution.to_packed() == [[1, 1, 0, 0]]
    assert res.kernel.nrows == 0
    assert res.solution * a == b


def test_solve_identity():
    F = field(7)
    b = Mat.from_packed(F, [[3, 1, 4], [1, 5, 2]])
    res = solve_right(Mat.identity(F, 3), b)
    assert res.is_unique and res.solution == b


def test_solve_inconsistent():
    F = field(2)
    a = Mat.from_packed(F, [[1, 0], [0, 0]])
    b = Mat.from_packed(F, [[0, 1]])
    assert solve_right(a, b).status == "inconsistent"


def test_solve_underdetermined():
    F = field(2)
    a = Mat.from_packed(F, [[1, 1], [1, 1]])
    b = Mat.from_packed(F, [[1, 1]])
    res = solve_right(a, b)
    assert res.status == "underdetermined"
    assert res.solution * a == b
    assert res.kernel.nrows == 1
    assert (res.kernel * a).is_zero
    # every kernel translate solves too
    sol2 = res.solution + res.kernel
    assert sol2 * a == b


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 3)])
def test_solve_random_round_trip(p, m):
    F = field(p, m)
    rng = random.Random(100 * p + m)
    for _ in range(30):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 6)
        a = Mat(F, [[F.random_element(rng) for _ in range(c)] for _ in range(r)])
        x0 = Mat(F, [[F.random_element(rng) for _ in range(r)]])
        b = x0 * a
        res = solve_right(a, b)
        assert res.status != "inconsistent"
        assert res.solution * a == b
        if res.is_unique:
            assert res.solution == x0
            assert rank(a) == r
        else:
            assert rank(a) < r


def test_kernels():
    F = field(3)
    rng = random.Random(77)
    for _ in range(20):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 6)
        a = Mat(F, [[F.random_element(rng) for _ in range(c)] for _ in range(r)])
        rk = right_kernel(a)
        assert rk.nrows == a.ncols - rank(a)
        for row in rk.data:
            prod = a * Mat(F, [list(row)]).transpose()
            assert prod.is_zero


def test_stack_and_slice():
    F = field(2)
    a = Mat.from_packed(F, [[1, 0, 1, 1], [0, 1, 0, 0]])
    assert a.transpose().to_packed() == [[1, 0], [0, 1], [1, 0], [1, 0]]
    assert a.take_cols([0, 3]).to_packed() == [[1, 1], [0, 0]]
    assert a.take_rows([1]).to_packed() == [[0, 1, 0, 0]]


@pytest.mark.parametrize("take,bad", [("take_rows", -1), ("take_rows", 2),
                                      ("take_cols", -1), ("take_cols", 4)])
def test_take_refuses_indices_out_of_range(take, bad):
    # a negative index used to count from the end, one past it to raise a
    # bare IndexError
    a = Mat.from_packed(field(2), [[1, 0, 1, 1], [0, 1, 0, 0]])
    name = "row" if take == "take_rows" else "column"
    with pytest.raises(IndexOutOfRange, match=f"^{name} index out of range$"):
        getattr(a, take)([0, bad])


def test_data_is_a_fresh_view():
    F = field(3)
    a = Mat.from_packed(F, [[1, 2], [0, 1]])
    view = a.data
    view[0][0] = F.zero
    view.append([F.one, F.one])
    assert a.to_packed() == [[1, 2], [0, 1]] and a.data == [[F.one, F.el(2)], [F.zero, F.one]]
    rows = a.to_packed()
    rows[1][1] = 2
    assert a.to_packed() == [[1, 2], [0, 1]]


def test_matmul_shapes():
    F = field(2)
    a = Mat.zeros(F, 2, 3)
    b = Mat.zeros(F, 4, 2)
    with pytest.raises(DimensionMismatch):
        a * b


# -- differential tests against test-local oracles ------------------------------

def _rows(fld, vals, ncols):
    """Element rows of a matrix from a flat list of packed values."""
    return [[fld.el(v) for v in vals[i:i + ncols]] for i in range(0, len(vals), ncols)]


def _product(x, a, fld):
    """Plain row-by-matrix product of lists of Element rows."""
    out = []
    for xrow in x:
        acc = [fld.zero] * len(a[0])
        for xi, arow in zip(xrow, a):
            acc = [s + xi * e for s, e in zip(acc, arow)]
        out.append(acc)
    return out


def _span_size(fld, rows):
    """Number of distinct vectors in the row span, by enumerating every
    combination of the rows."""
    span = set()
    for coeffs in itertools.product(range(fld.q), repeat=len(rows)):
        span.add(tuple(e.val for e in _product([[fld.el(c) for c in coeffs]], rows, fld)[0]))
    return len(span)


@st.composite
def _matrices(draw, q, max_rows, max_cols):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    return r, c, draw(st.lists(st.integers(0, q - 1), min_size=r * c, max_size=r * c))


def _minor_rank(fld, rows):
    """Size of the largest square submatrix with a nonzero permutation
    expansion."""
    r, c = len(rows), len(rows[0])
    for s in range(min(r, c), 0, -1):
        for ri in itertools.combinations(range(r), s):
            for ci in itertools.combinations(range(c), s):
                sub = Mat(fld, [[rows[i][j] for j in ci] for i in ri])
                if not _perm_det(sub).is_zero:
                    return s
    return 0


def _free_unknowns(fld, rows):
    """Indices i whose row lies in the span of the rows before it, by
    _minor_rank of the growing prefixes."""
    ranks = [0] + [_minor_rank(fld, rows[:i + 1]) for i in range(len(rows))]
    return [i for i in range(len(rows)) if ranks[i + 1] == ranks[i]]


def _dependent_last_row(data, fld, rows):
    """Maybe replace the last row by a combination of the first and the one
    before it, so that large fields also draw rank-deficient matrices."""
    if len(rows) > 1 and data.draw(st.booleans()):
        k = fld.el(data.draw(st.integers(0, fld.q - 1)))
        rows[-1] = [k * x + y for x, y in zip(rows[0], rows[-2])]


# GF(27) (the burst workload's general field), a prime above the table cap
# and a large binary field
KERNEL_FIELDS = [(3, 3), (65537, 1), (2, 67)]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)] + KERNEL_FIELDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_counts_row_span(p, m, data):
    F = field(p, m)
    r, c, vals = data.draw(_matrices(F.q, 3, 4))
    rows = _rows(F, vals, c)
    _dependent_last_row(data, F, rows)
    rk = rank(Mat(F, rows))
    assert rk == _minor_rank(F, rows)
    if F.q ** r <= 1024:
        assert F.q ** rk == _span_size(F, rows)


@pytest.mark.parametrize("p,m", [(5, 1), (2, 4), (3, 2)] + KERNEL_FIELDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_solve_and_kernels_satisfy_their_equations(p, m, data):
    F = field(p, m)
    r, c, vals = data.draw(_matrices(F.q, 5, 6))
    a = _rows(F, vals, c)
    _dependent_last_row(data, F, a)
    t = data.draw(st.integers(1, 2))
    x0 = _rows(F, data.draw(st.lists(st.integers(0, F.q - 1), min_size=t * r,
                                      max_size=t * r)), r)
    b = _product(x0, a, F)
    if data.draw(st.booleans()):  # a right-hand side that may leave the row space
        b[0][data.draw(st.integers(0, c - 1))] += F.one
    ma, mb = Mat(F, a), Mat(F, b)
    s = min(r, c)
    sq = Mat(F, [row[:s] for row in a[:s]])
    bt = Mat(F, [list(col) for col in zip(*b)])
    # no routine may reduce a matrix's own packed rows in place
    mats = (ma, mb, sq, bt)
    before = [m.to_packed() for m in mats]
    res = solve_right(ma, mb)
    rk = rank(ma)
    right = right_kernel(ma).data
    assert det(sq) == _perm_det(sq)
    assert minor(ma, range(s), range(s)) == _perm_det(sq)
    assert (ma * bt).data == _product(a, bt.data, F)
    prod = PolyMatrix(F, r, c, [ma, ma]) * PolyMatrix(F, c, t, [bt])
    assert [m.data for m in prod.coeffs] == [_product(a, bt.data, F)] * len(prod.coeffs)
    assert [m.to_packed() for m in mats] == before
    at = [list(col) for col in zip(*a)]
    assert len(right) == c - rk
    assert all(row == [F.zero] * r for row in _product(right, at, F))
    if res.status == "inconsistent":
        assert rank(Mat(F, a + b)) > rk
        return
    assert _product(res.solution.data, a, F) == b
    assert res.kernel.nrows == r - rk
    assert res.is_unique == (rk == r)
    zero_row = [F.zero] * c
    assert all(row == zero_row for row in _product(res.kernel.data, a, F))
    # the canonical form: free unknowns are 0 in the particular solution,
    # and kernel rows, in order of their free unknown, are 1 at it and 0 at
    # the other free unknowns
    free = _free_unknowns(F, a)
    assert all(row[j].is_zero for row in res.solution.data for j in free)
    for kernel, free in ((res.kernel.data, free), (right, _free_unknowns(F, at))):
        assert len(kernel) == len(free)
        for row, fv in zip(kernel, free):
            assert [row[j].val for j in free] == [int(j == fv) for j in free]


# GF(3^7) is above the table cap, so it eliminates through the general
# coefficient-tuple kernels; GF(2^193) through the comb/fold ones
@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (3, 7), (2, 193)])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_solve_packed_ignores_row_order(p, m, data):
    # the rows of [A^T | B^T] are the equations: their order decides which
    # values _rref inverts, never (X, K) or None
    F = field(p, m)
    r, t, c = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (0, 2), (1, 4)))
    vals = st.integers(0, F.q - 1)
    work = [data.draw(st.lists(vals, min_size=r + t, max_size=r + t)) for _ in range(c)]
    kind = data.draw(st.sampled_from(["random", "deficient", "inconsistent"]))
    if kind == "deficient":
        # the last unknown's column a multiple of the first: A loses rank;
        # and the last equation a combination of the first two
        k = F.el(data.draw(vals))
        for row in work:
            row[r - 1] = (k * F.el(row[0])).val
        if c > 2:
            work[-1] = [(k * F.el(a) + F.el(b)).val for a, b in zip(work[0], work[1])]
    elif kind == "inconsistent" and t:
        # the equation 0 = nonzero, at any position
        work[data.draw(st.integers(0, c - 1))] = (
            [0] * r + [data.draw(st.integers(1, F.q - 1))] + data.draw(
                st.lists(vals, min_size=t - 1, max_size=t - 1)))
    want = _solve_packed(F, [list(row) for row in work], r, t)
    if kind == "inconsistent" and t:
        assert want is None
    if kind == "deficient" and r > 1 and want is not None:
        assert want[1]
    for order in itertools.permutations(work):
        assert _solve_packed(F, [list(row) for row in order], r, t) == want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_det_matches_permutation_expansion_general_field(data):
    F = field(3, 2)
    n = data.draw(st.integers(1, 5))
    vals = data.draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n))
    if n > 1 and data.draw(st.booleans()):  # a repeated row makes it singular
        vals[-n:] = vals[:n]
    a = Mat(F, _rows(F, vals, n))
    assert det(a) == _perm_det(a)


@pytest.mark.parametrize("p,m", [(5, 1), (2, 4)] + KERNEL_FIELDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_det_matches_permutation_expansion_across_kernels(p, m, data):
    F = field(p, m)
    n = data.draw(st.integers(1, 5))
    vals = data.draw(st.lists(st.integers(0, F.q - 1), min_size=n * n, max_size=n * n))
    rows = _rows(F, vals, n)
    _dependent_last_row(data, F, rows)
    a = Mat(F, rows)
    d = det(a)
    assert d == _perm_det(a)
    if n > 1:
        assert minor(a, range(1, n), range(n - 1)) == _perm_det(
            Mat(F, [row[:n - 1] for row in rows[1:]]))


def test_foreign_entries_raise_field_mismatch():
    F, G = field(3, 3), field(3, 3, modulus=[2, 2, 0, 1])  # x^3 + 2x + 2
    assert F != G
    with pytest.raises(FieldMismatch):
        Mat(F, [[F.one, G.one]])
    with pytest.raises(FieldMismatch):
        Mat(F, [[F.one, 1]])
    # an equal field built separately is the same field
    assert Mat(F, [[F.one, Field(3, 3).one]]).data[0][1] == F.one
    with pytest.raises(FieldMismatch):
        Mat.from_packed(F, [[1, 2]]) * Mat.from_packed(G, [[1], [2]])
    with pytest.raises(FieldMismatch):
        solve_right(Mat.identity(F, 2), Mat.from_packed(G, [[1, 2]]))
