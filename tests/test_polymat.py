"""Polynomial matrices, encoding, external degree, structural flags."""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from convec import field
from convec.errors import DegreeMismatch, DimensionMismatch, FieldMismatch, RankDeficient
from convec.linalg import Mat
from convec.polymat import (
    ConvCode,
    Poly,
    PolyMatrix,
    code_from_json,
    full_size_minors,
    poly_gcd,
)


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
    built = []
    init, derived = Mat.__init__, Mat._derived.__func__

    def counted_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counted_derived(cls, *args, **kwargs):
        built.append("derived")
        return derived(cls, *args, **kwargs)

    monkeypatch.setattr(Mat, "__init__", counted_init)
    monkeypatch.setattr(Mat, "_derived", classmethod(counted_derived))
    v = code522.encode(msg522)
    assert v.degree == 4
    assert len(built) <= msg522.degree + code522.G.degree + 1


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


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 4), (3, 2)])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_full_size_minors_evaluate_to_determinants(p, m, data):
    F = field(p, m)
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(k, k + 2))
    d = data.draw(st.integers(0, 2))
    vals = data.draw(st.lists(st.integers(0, F.q - 1), min_size=(d + 1) * k * n,
                              max_size=(d + 1) * k * n))
    grids = [[vals[(c * k + i) * n:(c * k + i + 1) * n] for i in range(k)]
             for c in range(d + 1)]
    g = PolyMatrix.from_packed(F, grids)
    minors = full_size_minors(g)
    assert list(minors) == list(itertools.combinations(range(n), k))
    for cols, poly in minors.items():
        for v in range(F.q):
            x = F.el(v)
            assert poly.eval(x) == _det_at(g, cols, x)


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
