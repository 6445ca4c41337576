"""Field construction and arithmetic."""

from __future__ import annotations

import random
import re

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from convec import field, gf
from convec.errors import (
    DivisionByZero,
    FieldMismatch,
    NoPrimitiveFound,
    NotPrime,
    Reducible,
)
from convec.gf import (
    TABLE_MAX_Q,
    Field,
    _clmul,
    _FROBENIUS,
    _coeffs,
    _factorint,
    _fold_shifts,
    _gcd2,
    _inv2,
    _irreducible,
    _isprime,
    _kernels,
    _pack,
    _rem2,
    _sq2,
    _xm_mod_frobenius,
    field_from_json,
    field_from_ref,
)


def test_auto_modulus_gf2():
    F = field(2)
    assert F.modulus == (1, 1)
    assert F.alpha.val == 1
    assert not F.unverified_primitive


def test_auto_modulus_gf8():
    F = field(2, 3)
    assert F.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert F.alpha.val == 2  # x generates, 2^3 - 1 = 7 is prime
    assert not F.unverified_primitive


def test_auto_modulus_gf256_is_first_octic():
    F = field(2, 8)
    # 0x11b: x^8 + x^4 + x^3 + x + 1, the first irreducible octic in packed
    # order; x itself has order 51 there, so alpha moves on to x + 1.
    assert F.modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert F.alpha.val == 3
    assert not F.unverified_primitive
    assert F.alpha ** 255 == F.one
    assert F.alpha ** 51 != F.one


def test_auto_modulus_gf9():
    F = field(3, 2)
    assert F.modulus == (1, 0, 1)  # x^2 + 1
    assert F.alpha.val == 4  # x has order 4, x + 1 has order 8
    for e in range(1, 8):
        assert F.alpha ** e != F.one
    assert F.alpha ** 8 == F.one


def test_prime_field_alpha():
    assert field(5).alpha.val == 2
    assert field(7).alpha.val == 3


def test_not_prime():
    with pytest.raises(NotPrime):
        field(4)
    with pytest.raises(NotPrime):
        field(6, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(Reducible):
        field(2, 4, modulus=[1, 0, 0, 0, 1])  # x^4 + 1 = (x+1)^4


def test_malformed_modulus_rejected():
    with pytest.raises(ValueError):
        field(2, 3, modulus=[1, 1, 1])  # wrong length
    with pytest.raises(ValueError):
        field(3, 2, modulus=[1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        field(3, 2, modulus=[5, 0, 1])  # coefficient out of range


def test_supplied_modulus_checked_before_m_is_used():
    # a degree-4 modulus with m = 10**30 fails its length check before
    # anything, p ** m above all, is computed from m
    with pytest.raises(ValueError, match="length m\\+1"):
        field(2, 10 ** 30, modulus=[1, 1, 0, 0, 1])


@pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (3, 1), (3, 2), (7, 1), (5, 2)])
def test_field_axioms_sampled(p, m):
    F = field(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(60):
        a = F.random_element(rng)
        b = F.random_element(rng)
        c = F.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + F.zero == a
        assert a * F.one == a
        assert a - a == F.zero
        assert a + (-a) == F.zero
        if not b.is_zero:
            assert (a / b) * b == a
            assert b * b.inverse() == F.one


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 1)])
def test_frobenius(p, m):
    F = field(p, m)
    rng = random.Random(7)
    for _ in range(40):
        a = F.random_element(rng)
        b = F.random_element(rng)
        assert (a + b) ** p == a ** p + b ** p


def test_pow_edge_cases():
    F = field(2, 5)
    a = F.alpha
    q = F.q
    assert F.zero ** 0 == F.one
    assert F.zero ** 5 == F.zero
    assert a ** 0 == F.one
    assert a ** (q - 1) == F.one
    # arbitrary-precision exponents reduce mod q - 1
    big = (q - 1) * (10 ** 30) + 3
    assert a ** big == a ** 3
    assert a ** -1 == a.inverse()
    with pytest.raises(DivisionByZero):
        F.zero ** -2
    with pytest.raises(DivisionByZero):
        F.zero.inverse()


def test_exhaustive_small_field_inverses():
    F = field(2, 4)
    for a in F.elements():
        if a.is_zero:
            continue
        assert a * a.inverse() == F.one
        assert a + a == F.zero


def test_field_mismatch():
    a = field(2).one
    b = field(3).one
    with pytest.raises(FieldMismatch):
        a + b
    F1 = field(2, 3)  # x^3 + x + 1
    F2 = field(2, 3, modulus=[1, 0, 1, 1])  # x^3 + x^2 + 1
    with pytest.raises(FieldMismatch):
        F1.alpha * F2.alpha


def test_serialization_round_trip():
    F = field(2, 8)
    rng = random.Random(3)
    for _ in range(20):
        a = F.random_element(rng)
        assert F.from_hex(a.to_hex()) == a
    assert F.zero.to_hex() == "0"
    assert F.one.to_hex() == "1"
    G = field_from_json(F.to_json())
    assert G == F
    assert field_from_ref(F.ref()) == F


@pytest.mark.parametrize("text", ["0x1", "+1", "0_1", "01", "1 ", "B", "-1", ""])
def test_only_canonical_hex_loads(text):
    # a symbol loads exactly when to_hex writes it back unchanged
    F = field(2, 8)
    with pytest.raises(ValueError):
        F.from_hex(text)
    spec = dict(F.to_json(), primitive=text)
    with pytest.raises(ValueError):
        field_from_json(spec)
    assert [F.from_hex(e.to_hex()) for e in F.elements()] == list(F.elements())


def test_custom_primitive_via_json():
    F = field(7)
    spec = F.to_json()
    spec["primitive"] = "5"  # 5 also generates GF(7)*
    G = field_from_json(spec)
    assert G.alpha.val == 5
    # a spec without a modulus takes the auto modulus, also with a
    # nonstandard generator
    H = field_from_json({"p": 2, "m": 3, "primitive": "3"})
    assert H == field(2, 3) and H.alpha.val == 3
    spec["primitive"] = "2"  # order 3, certainly not primitive
    with pytest.raises(NoPrimitiveFound):
        field_from_json(spec)


def test_large_field_checks_supplied_generator_on_first_read():
    # past TABLE_MAX_Q elements a supplied generator is checked on first
    # read, not at load; 511 = 7 * 73
    F = field(2, 9)
    low = F.alpha ** 7  # order 73
    G = field_from_json(dict(F.to_json(), primitive=low.to_hex()))
    assert G == F
    with pytest.raises(NoPrimitiveFound, match=re.escape("(order divides (q-1)/7)")):
        G.alpha
    other = F.alpha ** 2  # also a generator
    H = field_from_json(dict(F.to_json(), primitive=other.to_hex()))
    assert H.alpha == other and H.alpha.val != F.alpha.val
    assert H == field(2, 9) and not H.unverified_primitive


def test_big_binary_field():
    F = field(2, 193)
    assert F.modulus_packed == (1 << 193) | 503
    assert F.alpha.val == 2
    assert F.unverified_primitive  # 2^193 - 1 does not factor within budget
    a = F.alpha
    assert (a ** (1 << 5)) * (a ** (1 << 5)) == a ** (1 << 6)
    b = F.el(0x1234567890ABCDEF)
    assert b * b.inverse() == F.one


def test_field_identity_ignores_generator():
    spec = {"p": 2, "m": 3, "modulus": [1, 1, 0, 1], "primitive": "3"}
    F = field_from_json(spec)
    assert F.alpha.val == 3
    G = field_from_ref(F.ref())
    assert G.alpha.val == 2
    assert F == G and hash(F) == hash(G)
    assert F.alpha * G.one == F.alpha


# -- differential tests of the GF(2)[x] kernels --------------------------------
#
# The references share no code with convec.gf: schoolbook multiply and
# remainder on bit-packed ints, and sympy for irreducibility.

def ref_mul(a: int, b: int) -> int:
    r = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            r ^= a << i
    return r


def ref_rem(x: int, f: int) -> int:
    df = f.bit_length() - 1
    for i in range(x.bit_length() - 1, df - 1, -1):
        if x >> i & 1:
            x ^= f << (i - df)
    return x


def sympy_irreducible(f: int) -> bool:
    x = sympy.Symbol("x")
    return sympy.Poly([int(c) for c in bin(f)[2:]], x, modulus=2).is_irreducible


def compose_x_plus_1(f: int) -> int:
    """f(x + 1); (x + 1)^k has a term x^j for every bit-submask j of k."""
    r = 0
    for k in range(f.bit_length()):
        if f >> k & 1:
            j = k
            while True:
                r ^= 1 << j
                if j == 0:
                    break
                j = (j - 1) & k
    return r


# the auto moduli, pinned: they are part of every field's identity
AUTO = {2: 0b111, 4: 0b10011, 8: 0x11B, 63: (1 << 63) | 0b11,
        193: (1 << 193) | 503, 769: (1 << 769) | 0b1011000001}
# irreducible moduli whose low part reaches degree m - 1, so the fold lowers
# the degree by one bit per round; f -> f(x + 1) keeps irreducibility and,
# for odd m, puts in the x^(m-1) term
DENSE = {2: 0b111, 4: 0b11111, 8: 0b111111001,
         **{m: compose_x_plus_1(AUTO[m]) for m in (63, 193, 769)}}
MODULI = [(m, f) for m in AUTO for f in sorted({AUTO[m], DENSE[m]})]
MODULI_IDS = [f"m{m}-{'auto' if f == AUTO[m] else 'dense'}" for m, f in MODULI]


def test_reference_moduli():
    for m, f in AUTO.items():
        assert _pack(Field._auto_modulus(2, m), 2) == f
    for m, f in DENSE.items():
        assert f.bit_length() - 1 == m
        assert (f ^ (1 << m)).bit_length() - 1 == m - 1
        if m <= 63:
            assert sympy_irreducible(f)


# auto moduli of large fields, pinned from Rabin's test, which decided
# irreducibility before Ben-Or's and again finishes every candidate that
# passes Ben-Or's prefix: a new test must choose the same first irreducible
AUTO_LARGE = {2305: (1 << 2305) | 0b101101, 2561: (1 << 2561) | 0b110101101}


@pytest.mark.parametrize("m", sorted(AUTO_LARGE))
def test_large_auto_moduli_unchanged(m):
    assert _pack(Field._auto_modulus(2, m), 2) == AUTO_LARGE[m]


# packed auto moduli in odd characteristic, pinned from Rabin's test, which
# decided irreducibility for odd p before Ben-Or's (odd p runs Ben-Or's test
# to m/2, with no Rabin finish)
AUTO_ODD = {
    (3, 2): 10, (3, 3): 34, (3, 4): 86, (3, 5): 250, (3, 6): 734,
    (3, 7): 2198, (3, 8): 6572, (3, 9): 19747, (3, 10): 59068,
    (3, 11): 177158, (3, 12): 531452, (3, 41): 36472996377170786410,
    (3, 97): 19088056323407827075424486287615602692670649034,
    (5, 2): 27, (5, 3): 131, (5, 4): 627, (5, 5): 3146, (5, 6): 15632,
    (5, 7): 78131, (5, 8): 390627,
    (7, 2): 50, (7, 3): 345, (7, 4): 2409, (7, 5): 16817, (7, 6): 117651,
}


@pytest.mark.parametrize("p,m", sorted(AUTO_ODD))
def test_odd_auto_moduli_unchanged(p, m):
    assert _pack(Field._auto_modulus(p, m), p) == AUTO_ODD[p, m]


@pytest.mark.parametrize("p,top", [(3, 5), (5, 4), (7, 3)])
def test_irreducible_matches_sympy_odd(p, top):
    # every monic polynomial of degree 1..top over GF(p)
    x = sympy.Symbol("x")
    for m in range(1, top + 1):
        for f in range(p ** m, p ** (m + 1)):
            coeffs = [int(c) for c in reversed(_coeffs(f, p))]
            want = sympy.Poly(coeffs, x, modulus=p).is_irreducible
            assert _irreducible(p, m, f) == want, (p, coeffs)


def test_irreducible2_matches_sympy():
    for f in range(2, 1 << 11):
        assert _irreducible(2, f.bit_length() - 1, f) == sympy_irreducible(f), bin(f)


def rabin_irreducible(f: int) -> bool:
    """Rabin's test on plain shift-XOR arithmetic: x^(2^m) = x mod f, and
    x^(2^(m/q)) - x coprime to f for every prime q dividing m."""
    m = f.bit_length() - 1
    x = ref_rem(2, f)
    t, powers = x, {}
    for i in range(1, m + 1):
        t = ref_rem(ref_mul(t, t), f)
        powers[i] = t
    if powers[m] != x:
        return False
    for q in sympy.primefactors(m):
        a, b = powers[m // q] ^ x, f
        while b:
            a, b = b, ref_rem(a, b)
        if a != 1:
            return False
    return True


def test_irreducible2_matches_rabin():
    for f in range(2, 1 << 13):
        assert _irreducible(2, f.bit_length() - 1, f) == rabin_irreducible(f), bin(f)


# -- Rabin's finish: polynomials whose factors all lie above the prefix -------
#
# For p = 2, Ben-Or's products stop at gf.PREFIX_DEGREE and Rabin's test
# decides what passes them, so these polynomials reach the finish.  The
# references are rabin_irreducible and shift-XOR arithmetic above.

def first_irreducibles(d: int, count: int) -> list[int]:
    """The first count irreducibles of degree d with a constant term, in
    packed order, by the test-local Rabin's test."""
    out, f = [], (1 << d) | 1
    while len(out) < count:
        if rabin_irreducible(f):
            out.append(f)
        f += 2
    return out


def xpow2m_is_x(f: int) -> bool:
    """x^(2^m) = x mod f, for f of degree m, by plain squarings."""
    t = ref_rem(2, f)
    for _ in range(f.bit_length() - 1):
        t = ref_rem(ref_mul(t, t), f)
    return t == ref_rem(2, f)


D = gf.PREFIX_DEGREE + 1
G1, G2 = first_irreducibles(D, 2)
H1 = first_irreducibles(D + 2, 1)[0]
# reducible, every factor of degree above the prefix: (name, f)
REDUCIBLE_ABOVE_PREFIX = [
    ("equal-degrees", ref_mul(G1, G2)),
    ("unequal-degrees", ref_mul(G1, H1)),
    ("square", ref_mul(G1, G1)),
]


@pytest.mark.parametrize("f", [f for _, f in REDUCIBLE_ABOVE_PREFIX],
                         ids=[name for name, _ in REDUCIBLE_ABOVE_PREFIX])
def test_finish_rejects_factors_above_prefix(f):
    m = f.bit_length() - 1
    assert m // 2 > gf.PREFIX_DEGREE
    assert not rabin_irreducible(f)
    assert not _irreducible(2, m, f)
    with pytest.raises(Reducible):
        Field(2, m, modulus=_coeffs(f, 2))


def test_finish_gcd_alone_rejects_equal_degrees():
    # both factors have degree m/2, so x^(2^m) = x mod f holds and only the
    # gcd with x^(2^(m/2)) - x can tell f from an irreducible
    f = ref_mul(G1, G2)
    assert xpow2m_is_x(f)
    assert not _irreducible(2, 2 * D, f)


@pytest.mark.parametrize("m", [67, 70])  # prime, and 2 * 5 * 7 with 70/2 > 32
def test_finish_accepts_irreducibles(m):
    assert m > 2 * gf.PREFIX_DEGREE
    f = first_irreducibles(m, 1)[0]
    assert _irreducible(2, m, f)
    assert _pack(Field._auto_modulus(2, m), 2) == f


@pytest.fixture(scope="module")
def rabin_up_to_12():
    return [rabin_irreducible(f) for f in range(2, 1 << 13)]


@pytest.mark.parametrize("prefix", [1, 2])
def test_irreducible2_with_short_prefix_matches_rabin(prefix, rabin_up_to_12, monkeypatch):
    # every monic polynomial of degree 1..12, with the finish from degree 4 on
    monkeypatch.setattr(gf, "PREFIX_DEGREE", prefix)
    for f, want in zip(range(2, 1 << 13), rabin_up_to_12):
        assert _irreducible(2, f.bit_length() - 1, f) == want, bin(f)


def test_frobenius_products_and_shared_powers():
    acc = 1
    for i, mi in _FROBENIUS:
        assert mi.bit_length() - 1 == 2 ** (i + 1) - 2
        for l in range(1, i + 1):
            assert ref_rem(mi, (1 << 2 ** l) ^ 2) == 0
        assert ref_rem(mi, acc) == 0
        acc = mi
    for m in (2, 3, 7, 30, 31, 511, 769):
        want = tuple(ref_rem(1 << m, mi) for _, mi in _FROBENIUS if mi.bit_length() <= m)
        assert _xm_mod_frobenius(m) == want


@pytest.mark.parametrize("d", [5, 6, 7, 8, 9])
def test_fixed_checkpoints_at_large_m(d):
    # m = 520 takes the checkpoints up to i = 8 against the fixed products
    # M_i: f = g * r * G1^15, whose smallest factor g has degree d
    g, r = first_irreducibles(d, 1)[0], first_irreducibles(25 - d, 1)[0]
    f = ref_mul(g, r)
    for _ in range(15):
        f = ref_mul(f, G1)
    assert f.bit_length() - 1 == 520
    assert not _irreducible(2, 520, f)


@pytest.mark.parametrize("m", sorted(AUTO_LARGE))
def test_large_auto_moduli_load_as_supplied(m):
    F = Field(2, m, modulus=_coeffs(AUTO_LARGE[m], 2))
    assert F.modulus_packed == AUTO_LARGE[m]


def check_kernels(m: int, f: int, a: int, b: int):
    shifts = _fold_shifts(f, m)
    assert _clmul(a, b) == ref_mul(a, b)
    assert _rem2(_clmul(a, b), m, shifts) == ref_rem(ref_mul(a, b), f)
    assert _sq2(a) == ref_mul(a, a)
    assert _rem2(_sq2(a), m, shifts) == ref_rem(ref_mul(a, a), f)
    if a:
        inv = _inv2(a, f)
        assert inv < 1 << m
        assert ref_rem(ref_mul(a, inv), f) == 1


@pytest.mark.parametrize("m,f", MODULI, ids=MODULI_IDS)
def test_kernels_on_edge_operands(m, f):
    edges = [0, 1, 1 << (m - 1), (1 << m) - 1]
    for a in edges:
        for b in edges:
            check_kernels(m, f, a, b)
    with pytest.raises(DivisionByZero):
        _inv2(0, f)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(MODULI), st.data())
def test_kernels_match_reference(mf, data):
    m, f = mf
    a = data.draw(st.integers(0, (1 << m) - 1))
    b = data.draw(st.integers(0, (1 << m) - 1))
    check_kernels(m, f, a, b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 1 << 800), st.integers(0, 1 << 40))
def test_clmul_unequal_lengths(a, b):
    # operands of very different lengths, in both orders: the shorter one
    # is walked bit by bit below 16 bits and by the comb above
    assert _clmul(a, b) == ref_mul(a, b) == _clmul(b, a)


# operand lengths around the bit-serial/comb switch at 16 bits and around
# the byte boundaries the comb reads its shorter operand in
CLMUL_BITS = [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 769, 2305]


def test_clmul_fixed_lengths():
    rng = random.Random(24)
    for la in CLMUL_BITS:
        for lb in CLMUL_BITS:
            ones_a, ones_b = (1 << la) - 1, (1 << lb) - 1
            top_a = rng.getrandbits(la) | 1 << (la - 1)
            top_b = rng.getrandbits(lb) | 1 << (lb - 1)
            for a, b in ((ones_a, ones_b), (top_a, top_b), (ones_a, top_b),
                         (top_a, ones_b), (1 << (la - 1), top_b)):
                want = ref_mul(a, b)
                assert _clmul(a, b) == want == _clmul(b, a), (la, lb)
            assert _clmul(top_a, 0) == _clmul(0, top_a) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(CLMUL_BITS), st.sampled_from(CLMUL_BITS), st.data())
def test_clmul_matches_bit_serial(la, lb, data):
    a = data.draw(st.integers(0, (1 << la) - 1))
    b = data.draw(st.integers(0, (1 << lb) - 1))
    assert _clmul(a, b) == ref_mul(a, b) == _clmul(b, a)


def ref_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, ref_rem(a, b)
    return a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 1 << 800), st.integers(0, 800), st.integers(0, 1 << 40),
       st.integers(1, 1 << 12), st.booleans())
def test_gcd2_matches_reference(dense, e, short, common, sparse):
    # a long operand, dense or a lone leading term over a short tail (as a
    # sparse modulus is), against a short one, both multiples of a shared
    # factor so the gcd is not always 1; both argument orders
    if sparse:
        a = (1 << e) ^ ref_rem(1 << e, common) ^ ref_mul(common, dense & 0xFF)
    else:
        a = ref_mul(dense, common)
    b = ref_mul(short, common)
    want = ref_gcd(a, b)
    assert _gcd2(a, b) == want == _gcd2(b, a)


def test_gcd2_of_auto_modulus_and_early_ben_or_products():
    f = AUTO[769]
    x = 2
    acc, t = 1, x
    for i in range(1, 5):  # the products at Ben-Or's first checkpoints
        t = ref_mul(t, t)
        acc = ref_rem(ref_mul(acc, t ^ x), f)
        assert _gcd2(acc, f) == ref_gcd(f, acc) == 1
    assert _gcd2(f, ref_mul(0b111, 0b1011)) == 1
    assert _gcd2(ref_mul(f, 0b111), ref_mul(0b111, 0b1011)) == 0b111


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(MODULI), st.data())
def test_rem2_matches_reference(mf, data):
    m, f = mf
    x = data.draw(st.integers(0, 1 << (3 * m)))
    assert _rem2(x, m, _fold_shifts(f, m)) == ref_rem(x, f)


@pytest.mark.parametrize("m", [8, 63])
def test_dense_modulus_field(m):
    F = field(2, m, modulus=_coeffs(DENSE[m], 2))
    assert F.modulus_packed == DENSE[m]
    rng = random.Random(m)
    for _ in range(40):
        a = F.random_element(rng)
        b = F.random_element(rng)
        assert (a * b).val == ref_rem(ref_mul(a.val, b.val), DENSE[m])
        assert (a ** 2).val == ref_rem(ref_mul(a.val, a.val), DENSE[m])
        if a:
            assert a * a.inverse() == F.one
    with pytest.raises(DivisionByZero):
        F.zero.inverse()


# -- table kernels against the polynomial arithmetic they replace --------------
#
# Extension fields up to TABLE_MAX_Q elements multiply, invert and square
# through exp/log tables, and the general kind adds through Zech logarithms.
# Prime fields keep the modular kernel.  The
# reference is the coefficient-tuple arithmetic (odd p) or the carry-less
# product with fold reduction (p = 2) that every larger field still uses.

def _poly_arith(F):
    """(add, sub, neg, mul) on packed values without the tables."""
    return _kernels(F.p, F.m, F.modulus_packed)[:4]


def _last_generator(F) -> Field:
    """GF(q) with the largest primitive element as its designated alpha."""
    n = F.q - 1
    primes = _factorint(n)
    for g in range(F.q - 1, 1, -1):
        if all(F._vpow(g, n // r) != 1 for r in primes):
            spec = F.to_json()
            spec["primitive"] = format(g, "x")
            return field_from_json(spec)
    raise AssertionError("no generator")


TABLE_FIELDS = [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8), (3, 5)]


@pytest.mark.parametrize("p,m,generator", [(p, m, "auto") for p, m in TABLE_FIELDS]
                         + [(3, 2, "last"), (3, 3, "last")])
def test_table_kernels_match_polynomial_arithmetic(p, m, generator):
    F = field(p, m)
    if generator == "last":
        F = _last_generator(F)
        assert F.alpha.val != field(p, m).alpha.val and F == field(p, m)
    # the kernels under test are the tables, not the arithmetic compared with
    bound = [F._vmul, F._vinv, F._vsq]
    if F.kind == "general":
        bound += [F._vadd, F._vsub, F._vneg]
    assert all("_bind_tables" in k.__qualname__ for k in bound)
    add, sub, neg, mul = _poly_arith(F)
    els = list(F.elements())
    for x in els:
        a = x.val
        assert (-x).val == neg(a)
        assert (x ** 2).val == mul(a, a)
        for y in els:
            b = y.val
            assert (x + y).val == add(a, b)
            assert (x - y).val == sub(a, b)
            assert (x * y).val == mul(a, b)
        if a:
            inv = x.inverse().val
            assert mul(a, inv) == 1
            assert [b for b in range(1, F.q) if mul(a, b) == 1] == [inv]
    with pytest.raises(DivisionByZero):
        F.zero.inverse()
    with pytest.raises(DivisionByZero):
        F.one / F.zero


@pytest.mark.parametrize("p,m", [(2, 9), (3, 6), (251, 1), (65537, 1)])
def test_fields_without_tables_sampled(p, m):
    # the smallest extension fields above the cap keep the polynomial
    # kernels, and prime fields of any size the modular one
    F = field(p, m)
    assert (F.q > TABLE_MAX_Q) or m == 1
    assert "_bind_tables" not in F._vmul.__qualname__
    add, sub, neg, mul = _poly_arith(F) if m > 1 else (
        lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
        lambda a: -a % p, lambda a, b: a * b % p)
    rng = random.Random(F.q)
    for _ in range(300):
        x, y = F.random_element(rng), F.random_element(rng)
        assert (x * y).val == mul(x.val, y.val)
        assert (x + y).val == add(x.val, y.val)
        assert (x - y).val == sub(x.val, y.val)
        assert (-x).val == neg(x.val)
        if x:
            assert mul(x.val, x.inverse().val) == 1
    assert F.alpha ** (F.q - 1) == F.one


def test_small_number_theory_matches_sympy():
    for n in list(range(1, 3000)) + [2 ** 31 - 1, 2 ** 32 - 5, 65536 * 65521, 3 ** 20 - 1]:
        assert _factorint(n) == sympy.factorint(n), n
        assert _isprime(n) == sympy.isprime(n), n
    for n in (2 ** 32 + 15, 2 ** 61 - 1, 2 ** 64 - 1):
        assert _factorint(n) == sympy.factorint(n), n
        assert _isprime(n) == sympy.isprime(n), n
