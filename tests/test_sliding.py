"""Sliding-window layouts, non-trivial index sets, puncturing by column lists."""

from __future__ import annotations

import itertools
import random

import pytest

from convec import field
from convec.errors import BadCardinality, BudgetExceeded, IndexOutOfRange
from convec.linalg import Mat, minor
from convec.polymat import PolyMatrix
from convec.sliding import (
    _bounds_for,
    count_bounded,
    count_nontrivial,
    enumerate_bounded,
    enumerate_nontrivial,
    generator_band,
    generator_truncation,
    is_nontrivial_set,
    parity_band,
    parity_truncation,
    walk_bounded,
)


def grid(m: Mat):
    return [[e.val for e in row] for row in m.data]


def flatten(pm: PolyMatrix, lo: int, hi: int):
    """Row-vector coefficients of a 1 x n polynomial vector, blocks lo..hi."""
    return [pm.coeff(i).data[0][c] for i in range(lo, hi + 1)
            for c in range(pm.ncols)]


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def test_generator_truncation_layout(code522):
    g0 = [[1, 1, 0, 1, 1], [1, 0, 1, 1, 0]]
    g1 = [[1, 1, 1, 1, 1], [0, 0, 0, 1, 1]]
    m = generator_truncation(code522.G, 1)
    assert (m.nrows, m.ncols) == (4, 10)
    assert grid(m) == [
        g0[0] + g1[0],
        g0[1] + g1[1],
        [0] * 5 + g0[0],
        [0] * 5 + g0[1],
    ]


def test_generator_band_layout(code522):
    g0 = [[1, 1, 0, 1, 1], [1, 0, 1, 1, 0]]
    g1 = [[1, 1, 1, 1, 1], [0, 0, 0, 1, 1]]
    m = generator_band(code522.G, 1)
    assert (m.nrows, m.ncols) == (6, 10)
    assert grid(m) == [
        g1[0] + [0] * 5,
        g1[1] + [0] * 5,
        g0[0] + g1[0],
        g0[1] + g1[1],
        [0] * 5 + g0[0],
        [0] * 5 + g0[1],
    ]


def test_parity_layouts(pair_2_1, gf2):
    code = pair_2_1(gf2, [1, 1], [1, 0])  # g = (1+z, 1), h = (1, 1+z)
    m = parity_truncation(code.H, 1)
    assert grid(m) == [[1, 1, 0, 0], [0, 1, 1, 1]]
    b = parity_band(code.H, 1)
    assert (b.nrows, b.ncols) == (2, 6)
    assert grid(b) == [[0, 1, 1, 1, 0, 0], [0, 0, 0, 1, 1, 1]]


def test_truncation_is_windowed_encoding(code522, msg522):
    # stacking the first j+1 coefficients of u against G_j^c reproduces the
    # first j+1 codeword blocks, for every window length
    v = code522.encode(msg522)
    for j in range(5):
        m = generator_truncation(code522.G, j)
        ubar = Mat(code522.field, [flatten(msg522, 0, j)])
        assert (ubar * m).data[0] == flatten(v, 0, j)


def test_band_maps_history_and_window(code522, msg522):
    # rows of the band correspond to u_{t-mu} .. u_{t+j}; the product gives
    # the codeword window v_t .. v_{t+j}
    v = code522.encode(msg522)
    f = code522.field
    for t, j in [(1, 0), (1, 2), (2, 1)]:
        b = generator_band(code522.G, j)
        ubar = Mat(f, [flatten(msg522, t - 1, t + j)])
        assert (ubar * b).data[0] == flatten(v, t, t + j)


def test_parity_band_annihilates_codewords(pair_2_1, gf2):
    code = pair_2_1(gf2, [1, 1, 1], [1, 0, 1])  # degree 2 pair
    rng = random.Random(7)
    for _ in range(10):
        u = PolyMatrix.from_packed(gf2, [[[rng.randrange(2)]] for _ in range(5)])
        v = code.encode(u)
        for t, j in [(2, 0), (2, 1), (3, 0)]:
            b = parity_band(code.H, j)
            vbar = Mat(gf2, [flatten(v, t - 2, t + j)])
            assert (b * vbar.transpose()).is_zero


# ---------------------------------------------------------------------------
# non-trivial index sets
# ---------------------------------------------------------------------------

def test_known_generator_sets():
    # (n, k, mu, j) = (3, 1, 1, 1): sets of size 4 out of 9 columns with
    # l_1 <= 3, l_2 <= 6, l_3 >= 4, l_4 >= 7
    yes = [(1, 5, 6, 9), (1, 4, 7, 8), (2, 3, 4, 7), (3, 6, 7, 9)]
    no = [(1, 2, 3, 4), (4, 5, 6, 7), (1, 2, 3, 9), (1, 7, 8, 9)]
    for t in yes:
        assert is_nontrivial_set("generator", t, 3, 1, 1, 1)
    for t in no:
        assert not is_nontrivial_set("generator", t, 3, 1, 1, 1)


def test_known_parity_sets():
    # (n, k, nu, j) = (3, 2, 2, 1): pairs out of 12 columns with
    # l_1 <= 9 and l_2 >= 4
    assert is_nontrivial_set("parity", (1, 4), 3, 2, 2, 1)
    assert is_nontrivial_set("parity", (9, 12), 3, 2, 2, 1)
    assert not is_nontrivial_set("parity", (1, 2), 3, 2, 2, 1)
    assert not is_nontrivial_set("parity", (10, 11), 3, 2, 2, 1)


def test_index_set_validation():
    with pytest.raises(IndexOutOfRange, match="strictly increasing"):
        is_nontrivial_set("generator", (1, 1, 2, 3), 3, 1, 1, 1)
    with pytest.raises(IndexOutOfRange, match="strictly increasing"):
        is_nontrivial_set("generator", (2, 1), 3, 1, 1, 1)  # order before size
    with pytest.raises(BadCardinality):
        is_nontrivial_set("generator", (1, 2, 3), 3, 1, 1, 1)
    with pytest.raises(IndexOutOfRange):
        is_nontrivial_set("generator", (1, 2, 3, 10), 3, 1, 1, 1)
    with pytest.raises(ValueError):
        count_nontrivial("other", 3, 1, 1, 1)
    for kind in ("generator", "parity", "generator_truncation", "parity_truncation"):
        with pytest.raises(ValueError, match="j must be >= 0"):
            count_nontrivial(kind, 3, 1, 1, -1)
    # shapes L_of refuses: k outside 0 < k < n, or a negative degree
    for kind, n, k, deg, j in [("parity", 3, 4, 1, 1), ("generator", 3, 3, 1, 1),
                               ("generator", 3, 0, 1, 1), ("generator", 3, 1, -1, 1),
                               ("parity_truncation", 3, 1, -1, 1)]:
        with pytest.raises(ValueError):
            count_nontrivial(kind, n, k, deg, j)
        with pytest.raises(ValueError):
            enumerate_nontrivial(kind, n, k, deg, j)
        with pytest.raises(ValueError):
            is_nontrivial_set(kind, (1,), n, k, deg, j)


def test_negative_depth_is_refused(code522h):
    for build, pm in ((generator_truncation, code522h.G), (generator_band, code522h.G),
                      (parity_truncation, code522h.H), (parity_band, code522h.H)):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            build(pm, -2)


@pytest.mark.parametrize("kind,n,k,deg,j", [
    ("generator", 3, 1, 1, 1),
    ("generator", 2, 1, 1, 2),
    ("parity", 3, 2, 2, 1),
    ("parity", 3, 1, 1, 2),
    ("generator_truncation", 3, 1, 1, 3),
    ("generator_truncation", 3, 2, 1, 2),
    ("parity_truncation", 3, 1, 1, 3),
    ("parity_truncation", 3, 2, 1, 2),
])
def test_enumeration_matches_filter(kind, n, k, deg, j):
    size, ncols = {
        "generator": ((j + 1 + 2 * deg) * k, n * (j + 1 + deg)),
        "parity": ((j + 1) * (n - k), (j + 1 + deg) * n),
        "generator_truncation": ((j + 1) * k, (j + 1) * n),
        "parity_truncation": ((j + 1) * (n - k), (j + 1) * n),
    }[kind]
    brute = [c for c in itertools.combinations(range(1, ncols + 1), size)
             if is_nontrivial_set(kind, c, n, k, deg, j)]
    got = list(enumerate_nontrivial(kind, n, k, deg, j))
    assert got == brute  # same sets, lexicographic order
    assert count_nontrivial(kind, n, k, deg, j) == len(brute)


def first_change(prev, cur) -> int:
    """First 0-based index where cur differs from prev; 0 for the first."""
    if prev is None:
        return 0
    return next(i for i, (a, b) in enumerate(zip(prev, cur)) if a != b)


KINDS = ("generator", "parity", "generator_truncation", "parity_truncation")


@pytest.mark.parametrize("kind", KINDS)
def test_walk_and_complement_walk_match_enumeration(kind):
    checked = complements = 0
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 3)):
        for deg in range(3):
            for j in range(3):
                size, ncols, lo, hi = _bounds_for(kind, n, k, deg, j)
                total = count_nontrivial(kind, n, k, deg, j)
                if total > 4000 or ncols == size:
                    continue
                sets = list(enumerate_nontrivial(kind, n, k, deg, j))
                everything = set(range(1, ncols + 1))
                for complement in (False, True):
                    walked = list(walk_bounded(size, ncols, lo, hi, complement))
                    want = [tuple(sorted(everything - set(s))) for s in sets] \
                        if complement else sets
                    assert [t for _, t in walked] == want, (kind, n, k, deg, j, complement)
                    assert len(walked) == total
                    prev = None
                    for p, t in walked:
                        assert p == first_change(prev, t), (kind, n, k, deg, j, prev, t)
                        prev = t
                checked += 1
                complements += ncols - size < size
    # the grid reaches shapes whose minor checks take the kernel side
    assert checked >= 50 and complements >= 5, (checked, complements)


def test_bounded_count_random_property():
    rng = random.Random(31)
    for _ in range(40):
        ncols = rng.randrange(1, 13)
        size = rng.randrange(0, min(ncols, 6) + 1)
        lo = {p: rng.randrange(1, ncols + 1) for p in range(1, size + 1)
              if rng.random() < 0.4}
        hi = {p: rng.randrange(1, ncols + 1) for p in range(1, size + 1)
              if rng.random() < 0.4}
        got = list(enumerate_bounded(size, ncols, lo, hi))
        brute = [c for c in itertools.combinations(range(1, ncols + 1), size)
                 if all(c[p - 1] >= v for p, v in lo.items())
                 and all(c[p - 1] <= v for p, v in hi.items())]
        assert got == brute
        assert count_bounded(size, ncols, lo, hi) == len(brute)


def test_enumeration_budget():
    n, k, delta = 3, 1, 18
    j = 2 * delta + 9  # window deep enough to blow past any sane budget
    count = count_nontrivial("parity", n, k, delta, j)
    assert count > 10 ** 7
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_nontrivial("parity", n, k, delta, j)
    assert ei.value.estimate == count
    # an explicit budget large enough lets the same enumeration start
    it = enumerate_nontrivial("parity", 3, 1, 1, 1, budget=10 ** 9)
    assert next(it)[0] == 1


def test_enumeration_budget_env(monkeypatch):
    monkeypatch.setenv("CONVEC_BUDGET", "5")
    with pytest.raises(BudgetExceeded):
        enumerate_nontrivial("generator", 3, 1, 1, 1)
    monkeypatch.setenv("CONVEC_BUDGET", "1000")
    assert len(list(enumerate_nontrivial("generator", 3, 1, 1, 1))) == 90


def test_trivial_sets_are_structurally_zero():
    # sets rejected by the bounds must give a singular submatrix for every
    # coefficient choice; try random matrices over a couple of fields, for
    # the band and the truncation G_j^c (with j > mu, so blocks past G_mu
    # are zero too)
    rng = random.Random(11)
    for fld in (field(2), field(3), field(7)):
        n, k, mu, j = 3, 1, 1, 1
        for _ in range(6):
            grids = [[[rng.randrange(fld.q) for _ in range(n)]]
                     for _ in range(mu + 1)]
            grids[mu][0][0] = rng.randrange(1, fld.q)  # degree exactly mu
            g = PolyMatrix.from_packed(fld, grids)
            for kind, jj, mat in (
                    ("generator", j, generator_band(g, j + mu)),
                    ("generator_truncation", j + 1, generator_truncation(g, j + 1))):
                rows = list(range(mat.nrows))
                for cols in itertools.combinations(range(1, mat.ncols + 1), mat.nrows):
                    if is_nontrivial_set(kind, cols, n, k, mu, jj):
                        continue
                    assert minor(mat, rows, [c - 1 for c in cols]).val == 0


def test_trivial_parity_sets_are_structurally_zero():
    rng = random.Random(13)
    fld = field(5)
    n, k, nu, j = 3, 2, 1, 1
    for _ in range(6):
        grids = [[[rng.randrange(5) for _ in range(n)] for _ in range(n - k)]
                 for _ in range(nu + 1)]
        grids[nu][0][0] = rng.randrange(1, 5)  # degree exactly nu
        h = PolyMatrix.from_packed(fld, grids)
        for kind, jj, mat in (("parity", j, parity_band(h, j)),
                              ("parity_truncation", j + 1, parity_truncation(h, j + 1))):
            rows = list(range(mat.nrows))
            for cols in itertools.combinations(range(1, mat.ncols + 1), mat.nrows):
                if is_nontrivial_set(kind, cols, n, k, nu, jj):
                    continue
                assert minor(mat, rows, [c - 1 for c in cols]).val == 0


def _has_perfect_matching(mat: Mat, cols) -> bool:
    """Kuhn's augmenting paths: each row of mat gets its own column of cols
    through a nonzero entry."""
    owner: dict[int, int] = {}

    def augment(row, seen):
        for c in cols:
            if mat.data[row][c - 1].val and c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = row
                    return True
        return False

    return all(augment(row, set()) for row in range(mat.nrows))


def test_nontrivial_sets_are_the_perfect_matchings():
    # a set is non-trivial exactly when the layout's block pattern matches
    # every row to its own chosen column; all-ones coefficients make every
    # block that the layout can fill nonzero, and the truncations are read
    # as the generic triangle (degree j)
    def ones(rows, n, d):
        return PolyMatrix.from_packed(field(2), [[[1] * n] * rows] * (d + 1))

    checked = 0
    for n in range(2, 5):
        for k in range(1, n):
            for deg in range(3):
                for j in range(3):
                    for kind, mat in (
                            ("generator", generator_band(ones(k, n, deg), deg + j)),
                            ("parity", parity_band(ones(n - k, n, deg), j)),
                            ("generator_truncation", generator_truncation(ones(k, n, j), j)),
                            ("parity_truncation", parity_truncation(ones(n - k, n, j), j))):
                        if mat.ncols > 14:
                            continue
                        for cols in itertools.combinations(range(1, mat.ncols + 1),
                                                           mat.nrows):
                            assert (is_nontrivial_set(kind, cols, n, k, deg, j)
                                    == _has_perfect_matching(mat, cols)), (kind, cols)
                            checked += 1
    assert checked == 22152


def test_nontrivial_sets_are_realizable():
    # every accepted set admits coefficients with a nonzero minor; over a
    # large field a few random draws find one with high probability
    rng = random.Random(17)
    fld = field(251)
    n, k, mu, j = 3, 1, 1, 1
    for iset in enumerate_nontrivial("generator", n, k, mu, j):
        cols = [c - 1 for c in iset]
        hit = False
        for _ in range(6):
            grids = [[[rng.randrange(251) for _ in range(n)]] for _ in range(mu + 1)]
            band = generator_band(PolyMatrix.from_packed(fld, grids), j + mu)
            if minor(band, list(range(band.nrows)), cols).val != 0:
                hit = True
                break
        assert hit, f"no witness for {iset}"


# ---------------------------------------------------------------------------
# puncturing
# ---------------------------------------------------------------------------

def test_puncture_reference_window(code522):
    # erasing positions {3, 4, 6, 10} of the 4 x 10 two-block window leaves
    # the system whose unique solution is pinned in the linear algebra tests
    kept = [i for i in range(10) if i + 1 not in {3, 4, 6, 10}]
    assert kept == [0, 1, 4, 6, 7, 8]
    m = generator_truncation(code522.G, 1).take_cols(kept)
    assert grid(m) == [
        [1, 1, 1, 1, 1, 1],
        [1, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
    ]
