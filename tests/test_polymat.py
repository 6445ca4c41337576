"""Polynomial matrices, encoding, external degree, structural flags."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from convec import field
from convec.codec import gm_decode_forward, message_degree_bound
from convec.errors import (
    DegreeMismatch,
    DimensionMismatch,
    FieldMismatch,
    NotDelayFree,
    RankDeficient,
)
from convec.gf import Element
from convec.linalg import Mat, rank
from convec.stream import ErasureStream
from convec.polymat import (
    ConvCode,
    Poly,
    PolyMatrix,
    code_from_json,
    full_size_minors,
    poly_gcd,
)
from test_golden_decode import codes as golden_codes


def _rand_poly(fld, rng, dmax):
    return Poly(fld, [fld.random_element(rng) for _ in range(rng.randrange(dmax + 1) + 1)])


def test_poly_divmod_property():
    F = field(5)
    rng = random.Random(11)
    for _ in range(50):
        a = _rand_poly(F, rng, 6)
        b = _rand_poly(F, rng, 4)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_poly_gcd_known():
    F = field(5)
    z = Poly.from_packed(F, [0, 1])
    one = Poly.one(F)
    a = (z - one) * (z + one)
    b = (z - one) * (z + Poly.from_packed(F, [2]))
    assert poly_gcd(a, b) == (z - one).monic()
    assert poly_gcd(one, a) == one


def test_exact_div_raises_on_remainder():
    F = field(2)
    z = Poly.from_packed(F, [0, 1])
    with pytest.raises(DegreeMismatch):
        (z * z + Poly.one(F)).exact_div(z)
    with pytest.raises(DegreeMismatch):
        (z * z + Poly.one(F)) // z
    assert (z * z + z) // z == z + Poly.one(F)


def test_poly_checks_its_coefficients():
    F = field(2)
    with pytest.raises(TypeError, match="coefficient 1 is not an Element"):
        Poly(F, [1, 0])
    with pytest.raises(FieldMismatch):
        Poly(F, [field(3).one])
    assert not Poly(F, [F.zero]) and Poly(F, [F.one])


def test_polymatrix_trims_trailing_zeros():
    F = field(2)
    pm = PolyMatrix.from_packed(F, [[[1, 0]], [[0, 0]]])
    assert pm.degree == 0
    assert PolyMatrix.zero(F, 2, 3).degree == -1
    assert PolyMatrix.zero(F, 2, 3).is_zero


def test_polymatrix_eval_matches_direct():
    F = field(7)
    rng = random.Random(5)
    pm = PolyMatrix(F, 2, 3, [
        Mat(F, [[F.random_element(rng) for _ in range(3)] for _ in range(2)])
        for _ in range(3)
    ])
    x = F.el(4)
    want = Mat.zeros(F, 2, 3)
    xp = F.one
    for i in range(pm.degree + 1):
        want = want + Mat(F, [[e * xp for e in row] for row in pm.coeff(i).data])
        xp = xp * x
    assert [[pm.entry(i, j).eval(x) for j in range(3)] for i in range(2)] == want.data
    assert pm.eval_at_zero() == pm.coeff(0)


def test_encode_reference_codeword(code522, msg522):
    v = code522.encode(msg522)
    assert v.degree == 4
    assert v == PolyMatrix.from_packed(code522.field, [
        [[0, 1, 1, 0, 1]],
        [[1, 1, 1, 0, 0]],
        [[1, 1, 0, 1, 1]],
        [[0, 1, 0, 0, 1]],
        [[0, 0, 0, 1, 1]],
    ])


def test_encode_linearity():
    F = field(2, 3)
    rng = random.Random(8)
    G = PolyMatrix(F, 2, 4, [
        Mat(F, [[F.random_element(rng) for _ in range(4)] for _ in range(2)])
        for _ in range(2)
    ])
    code = ConvCode(4, 2, G)
    for _ in range(10):
        u1 = PolyMatrix(F, 1, 2, [Mat(F, [[F.random_element(rng) for _ in range(2)]])
                                  for _ in range(3)])
        u2 = PolyMatrix(F, 1, 2, [Mat(F, [[F.random_element(rng) for _ in range(2)]])
                                  for _ in range(3)])
        assert code.encode(u1 + u2) == code.encode(u1) + code.encode(u2)


def test_encode_unit_messages_give_rows(code522):
    F = code522.field
    for i in range(code522.k):
        u = PolyMatrix(F, 1, 2, [Mat.from_packed(F, [[1 if j == i else 0 for j in range(2)]])])
        v = code522.encode(u)
        for d in range(code522.G.degree + 1):
            assert v.coeff(d).data[0] == code522.G.coeff(d).data[i]


# -- products ------------------------------------------------------------------
#
# PolyMatrix products run on packed values through linalg._vecmat; the
# reference is a schoolbook product of Elements, one entry at a time.

def _schoolbook(a, b):
    """The coefficient grids of a * b, trailing zero grids dropped."""
    F = a.field
    out = [[[F.zero] * b.ncols for _ in range(a.nrows)]
           for _ in range(a.degree + b.degree + 1)]
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            for r in range(a.nrows):
                for c in range(b.ncols):
                    for s in range(a.ncols):
                        out[i + j][r][c] = out[i + j][r][c] + ca.data[r][s] * cb.data[s][c]
    while out and all(e.is_zero for row in out[-1] for e in row):
        out.pop()
    return [[[e.val for e in row] for row in g] for g in out]


def _rand_polymatrix(F, rng, nrows, ncols, deg):
    """Sparse random coefficients, some of them zero matrices, with a
    nonzero top one."""
    def grid():
        return [[F.random_element(rng) if rng.random() < 0.6 else F.zero
                 for _ in range(ncols)] for _ in range(nrows)]

    cs = [Mat(F, grid()) if rng.random() < 0.7 else Mat.zeros(F, nrows, ncols)
          for _ in range(deg)]
    top = grid()
    top[0][0] = F.one
    return PolyMatrix(F, nrows, ncols, cs + [Mat(F, top)])


PRODUCT_FIELDS = [(2, 1), (5, 1), (2, 4), (3, 3), (2, 9), (3, 6)]


@pytest.mark.parametrize("p,m", PRODUCT_FIELDS)
def test_product_matches_schoolbook(p, m):
    F = field(p, m)
    rng = random.Random(p * 100 + m)
    for r, s, t in itertools.product((1, 2, 3), repeat=3):
        a = _rand_polymatrix(F, rng, r, s, rng.randrange(4))
        b = _rand_polymatrix(F, rng, s, t, rng.randrange(4))
        assert [c.to_packed() for c in (a * b).coeffs] == _schoolbook(a, b)
    # top coefficients whose product cancels, 1*1 + 1*(-1): the degree drops
    one, minus = F.one, -F.one
    a = PolyMatrix(F, 1, 2, [Mat(F, [[F.el(rng.randrange(1, F.q)), one]]),
                             Mat(F, [[one, one]])])
    b = PolyMatrix(F, 2, 1, [Mat(F, [[one], [F.el(rng.randrange(1, F.q))]]),
                             Mat(F, [[one], [minus]])])
    prod = a * b
    assert prod.degree < a.degree + b.degree
    assert [c.to_packed() for c in prod.coeffs] == _schoolbook(a, b)


def test_product_fields():
    F, E = field(2, 4), field(5)
    a = PolyMatrix.from_packed(F, [[[1, 2]]])
    b = PolyMatrix.from_packed(E, [[[1], [3]]])
    # a zero factor gives zero over the left factor's field, whatever the other's
    assert (PolyMatrix.zero(F, 1, 2) * b) == PolyMatrix.zero(F, 1, 1)
    assert (a * PolyMatrix.zero(E, 2, 1)) == PolyMatrix.zero(F, 1, 1)
    with pytest.raises(FieldMismatch):
        a * b
    with pytest.raises(DimensionMismatch):
        a * a


def test_encode_builds_one_mat_per_coefficient(code522, msg522, monkeypatch):
    # every Mat, checked or not, is made by Mat.__new__; the product works
    # on packed values, so it makes no Element either
    built = []

    def counted_new(cls, *args, **kwargs):
        built.append(cls)
        return object.__new__(cls)

    def no_element(*args):
        raise AssertionError("encoding built an Element")

    monkeypatch.setattr(Mat, "__new__", counted_new)
    monkeypatch.setattr(Element, "__init__", no_element)
    v = code522.encode(msg522)
    monkeypatch.undo()
    assert v.degree == 4
    assert 0 < len(built) <= msg522.degree + code522.G.degree + 1


def test_degree_delta_reference(code522):
    assert code522.delta == 2
    assert code522.G.degree == 1


def test_degree_delta_constant_matrix():
    F = field(5)
    g = PolyMatrix.from_packed(F, [[[1, 0, 2], [0, 1, 3]]])
    assert ConvCode(3, 2, g).delta == 0


def test_degree_delta_rank_deficient():
    F = field(2)
    g = PolyMatrix.from_packed(F, [[[1, 1, 0], [1, 1, 0]]])
    with pytest.raises(RankDeficient):
        ConvCode(3, 2, g)


def _det_at(g, cols, x):
    """det G(x) restricted to cols, by Horner evaluation of every entry and
    permutation expansion; independent of linalg and of the minor route."""
    fld = g.field
    k = g.nrows
    sub = []
    for i in range(k):
        row = []
        for j in cols:
            acc = fld.zero
            for c in reversed(g.coeffs):
                acc = acc * x + c.data[i][j]
            row.append(acc)
        sub.append(row)
    total = fld.zero
    for perm in itertools.permutations(range(k)):
        term = fld.one
        for i in range(k):
            term = term * sub[i][perm[i]]
        odd = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k)) % 2
        total = total - term if odd else total + term
    return total


def test_full_size_minors_need_0_lt_k_le_n():
    F = field(2)
    for k, n in ((0, 3), (3, 2)):
        with pytest.raises(DimensionMismatch):
            full_size_minors(PolyMatrix.zero(F, k, n))


# GF(3), 2 x 3: entry (0, 0) is the zero polynomial, so the minors on
# column 0 swap rows before eliminating
ZERO_CORNER = [[[0, 1, 1], [1, 1, 0]], [[0, 0, 1], [1, 0, 1]]]
# GF(5), 3 x 4: column 1 is twice column 0, so the minors on both columns
# end early, on a zero pivot
PROPORTIONAL = [[[1, 2, 0, 3], [3, 1, 1, 0], [0, 0, 2, 1]],
                [[2, 4, 1, 0], [0, 0, 1, 4], [4, 3, 0, 1]]]


@pytest.mark.parametrize("p,m,grids,zeros", [
    pytest.param(2, 1, None, None, id="2-1"),
    pytest.param(5, 1, None, None, id="5-1"),
    pytest.param(2, 4, None, None, id="2-4"),
    pytest.param(3, 2, None, None, id="3-2"),
    pytest.param(3, 1, ZERO_CORNER, [], id="zero-corner"),
    pytest.param(5, 1, PROPORTIONAL, [(0, 1, 2), (0, 1, 3)], id="proportional"),
])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_full_size_minors_evaluate_to_determinants(p, m, grids, zeros, data):
    F = field(p, m)
    if grids is None:
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(k, k + 2))
        d = data.draw(st.integers(0, 2))
        vals = data.draw(st.lists(st.integers(0, F.q - 1), min_size=(d + 1) * k * n,
                                  max_size=(d + 1) * k * n))
        grids = [[vals[(c * k + i) * n:(c * k + i + 1) * n] for i in range(k)]
                 for c in range(d + 1)]
    g = PolyMatrix.from_packed(F, grids)
    k, n = g.nrows, g.ncols
    minors = full_size_minors(g)
    assert list(minors) == list(itertools.combinations(range(n), k))
    for cols, poly in minors.items():
        for v in range(F.q):
            x = F.el(v)
            assert poly.eval(x) == _det_at(g, cols, x)
    if zeros is not None:
        assert [cols for cols, poly in minors.items() if poly.is_zero] == zeros
        # delta is the largest degree among the nonzero minors alone
        assert ConvCode(n, k, g).delta == max(
            poly.degree for cols, poly in minors.items() if cols not in zeros) >= 0


def test_structural_flags_reference(code522):
    flags = code522.flags
    assert flags.delay_free
    assert flags.row_reduced
    assert flags.noncatastrophic_certified


def test_structural_flags_known_cases():
    F = field(2)
    # (1, z): coprime minors, delay free
    g = PolyMatrix.from_packed(F, [[[1, 0]], [[0, 1]]])
    c = ConvCode(2, 1, g)
    assert c.flags.noncatastrophic_certified
    assert c.flags.delay_free
    # (z, z + z^2): common factor z, not delay free
    g2 = PolyMatrix.from_packed(F, [[[0, 0]], [[1, 1]], [[0, 1]]])
    c2 = ConvCode(2, 1, g2)
    assert not c2.flags.noncatastrophic_certified
    assert not c2.flags.delay_free
    # unit determinant but leading row matrix singular
    g3 = PolyMatrix.from_packed(F, [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, 0], [0, 1]],
    ])
    c3 = ConvCode(3, 2, PolyMatrix.from_packed(F, [
        [[1, 0, 0], [0, 1, 0]],
        [[0, 1, 0], [1, 0, 0]],
        [[0, 0, 0], [0, 1, 0]],
    ]))
    assert not c3.flags.row_reduced
    del g3


def _facts_code(fld, rng, k, mu, deficient):
    """A (3, k) code of memory mu with seeded coefficients; deficient names
    the coefficient, 0 or mu, whose last row is made a multiple of its first
    (zero when k = 1), so that it has rank below k.  G_mu is nonzero, so it
    can be deficient only when k > 1."""
    while True:
        grids = [[[rng.randrange(fld.q) for _ in range(3)] for _ in range(k)]
                 for _ in range(mu + 1)]
        if deficient is not None:
            g, a = grids[deficient], rng.randrange(fld.q) if k > 1 else 0
            g[-1] = [fld._vmul(a, x) for x in g[0]]
        if not any(map(any, grids[mu])):
            continue
        try:
            return ConvCode(3, k, PolyMatrix.from_packed(fld, grids))
        except RankDeficient:  # no nonzero full-size minor
            continue


def test_construction_facts_match_a_direct_computation():
    # ConvCode fixes G_0's and G_mu's full rank and G's column view once;
    # each must agree with rank and transpose over every kernel, and the
    # two rank facts must still decide NotDelayFree and the degree bound
    rng = random.Random(3737)
    seen = set()
    for fld in (field(2), field(7), field(2, 4), field(3, 3), field(2, 41)):
        for k in (1, 2):
            for mu in (1, 2):
                for deficient in (None, 0, mu)[:3 if k > 1 else 2]:
                    code = _facts_code(fld, rng, k, mu, deficient)
                    G = code.G
                    g0 = rank(G.coeff(0)) == k
                    gmu = rank(G.coeff(mu)) == k
                    assert (code._g0_full_rank, code._gmu_full_rank) == (g0, gmu)
                    assert code.flags.delay_free is g0
                    assert code._g_cols == [
                        [tuple(col) for col in c.transpose()._rows] for c in G.coeffs]
                    if deficient == 0:
                        assert not g0
                    if deficient == mu:
                        assert not gmu
                    seen.add((g0, gmu))
                    u = PolyMatrix.from_packed(fld, [[[rng.randrange(fld.q) for _ in range(k)]]
                                                     for _ in range(4)])
                    s = ErasureStream.from_codeword(code.encode(u))
                    assert s.origin_degree is not None
                    bound = message_degree_bound(code, s)
                    assert bound == (s.origin_degree - mu if gmu else None)
                    if not g0:
                        with pytest.raises(NotDelayFree):
                            gm_decode_forward(code, s)
    assert {(True, True), (False, True), (True, False)} <= seen


def test_noncatastrophic_implies_delay_free():
    F = field(3)
    rng = random.Random(21)
    hits = 0
    for _ in range(120):
        grids = [[[rng.randrange(3) for _ in range(3)] for _ in range(1)]
                 for _ in range(3)]
        g = PolyMatrix.from_packed(F, grids)
        if g.is_zero:
            continue
        try:
            c = ConvCode(3, 1, g)
        except RankDeficient:
            continue
        if c.flags.noncatastrophic_certified:
            hits += 1
            assert c.flags.delay_free
    assert hits > 10


def test_parity_check_validation(pair_2_1):
    F = field(2)
    code = pair_2_1(F, [1, 1], [1])  # G = (1 + z, 1), H = (1, 1 + z)
    assert code.H.degree == 1
    assert (code.H * code.G.transpose()).is_zero
    # wrong H rejected
    G = code.G
    badH = PolyMatrix.from_packed(F, [[[1, 1]], [[1, 0]]])
    with pytest.raises(DegreeMismatch):
        ConvCode(2, 1, G, badH)
    # H(0) must keep full row rank
    zH = PolyMatrix.from_packed(F, [[[0, 0]], [[1, 1]], [[0, 1]]])  # z * (1, 1+z)
    with pytest.raises(RankDeficient):
        ConvCode(2, 1, G, zH)


def test_code_shape_validation(gf2):
    g = PolyMatrix.from_packed(gf2, [[[1, 0], [0, 1]]])
    with pytest.raises(DimensionMismatch):
        ConvCode(2, 2, g)
    with pytest.raises(DimensionMismatch):
        ConvCode(3, 1, g)


def test_code_json_round_trip(code522, pair_2_1):
    again = code_from_json(code522.to_json())
    assert again.G == code522.G
    assert again.n == code522.n and again.k == code522.k
    assert again.delta == code522.delta
    withH = pair_2_1(field(5), [1, 2], [3, 0, 1])
    withH.metadata["note"] = "fixture"
    back = code_from_json(withH.to_json())
    assert back.H == withH.H
    assert back.metadata == {"note": "fixture"}


@pytest.mark.parametrize("entry", ["0x1", "+1", "0_1", "01"])
def test_code_json_refuses_non_canonical_hex(code522, entry):
    doc = code522.to_json()
    doc["G"][0][0][0] = entry  # each used to load as 1
    with pytest.raises(ValueError, match=re.escape(f"{entry!r} is not in canonical form")):
        code_from_json(doc)


@pytest.mark.parametrize("bad", [16, -1])
def test_packed_values_out_of_range_raise(bad):
    F = field(2, 4)
    msg = f"^packed value {bad} out of range for GF\\(2\\^4\\)$"
    with pytest.raises(ValueError, match=msg):
        Mat.from_packed(F, [[bad]])
    with pytest.raises(ValueError, match=msg):
        PolyMatrix.from_packed(F, [[[1, 0]], [[0, bad]]])


@pytest.mark.parametrize("bad", [1.5, 2.0, True, Fraction(1), "1", None],
                         ids=["1.5", "2.0", "True", "Fraction", "str", "None"])
def test_packed_values_that_are_not_ints_raise(bad):
    # only an int (not a bool, though bool subclasses int) is a packed value
    F = field(5)
    msg = f"^packed value {re.escape(repr(bad))} is not an int$"
    for build in (lambda: F.el(bad), lambda: Poly.from_packed(F, [1, bad]),
                  lambda: Mat.from_packed(F, [[1, 2], [bad, 0]]),
                  lambda: PolyMatrix.from_packed(F, [[[1, 0]], [[0, bad]]])):
        with pytest.raises(TypeError, match=msg):
            build()


def test_code_json_refuses_entry_out_of_range():
    doc = golden_codes()["gf16_mu2"].to_json()
    doc["G"][0][0][0] = "10"
    with pytest.raises(ValueError, match=re.escape("packed value 16 out of range for GF(2^4)")):
        code_from_json(doc)
