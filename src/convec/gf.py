"""Exact arithmetic in finite fields GF(p^m).

Elements live in the polynomial basis over GF(p): an element is a coefficient
vector (c_0, ..., c_{m-1}) stored packed as the integer sum(c_i * p**i), so
for p = 2 the packed value is simply the bitmask of the polynomial.  The
packed value is also what the hex serialization encodes, which keeps "0" and
"1" as the shorthand for the additive and multiplicative identities in any
field.  Only the canonical text loads: a symbol, a generator and the
modulus of a field reference exactly as ``format(v, "x")`` writes them
(lower case, no sign, prefix, underscore, space or leading zero), and p and
m of a field reference exactly as ``str`` writes them, so whatever is read
is written back unchanged.

One builder, ``_kernels``, makes the arithmetic kernels of three kinds:

  * m = 1           : integers mod p
  * p = 2, m >= 2   : bit-packed polynomials with xor add and
      - multiply: carry-less product over the shorter operand, bit by bit
        under 16 bits and by a 4-bit comb (Lopez-Dahab) from 16 bits on;
      - reduction: the excess above degree m folds back through the set
        bits of the modulus's low part, so the sparse auto modulus takes
        at most two rounds per product;
      - inversion: shift-XOR extended Euclid (Hankerson-Menezes-Vanstone,
        Guide to ECC, Alg. 2.48);
      - squaring: bits spread apart through 256-entry byte tables;
  * general p^m     : coefficient-tuple arithmetic (correct but unhurried)

Extension fields (m >= 2) of at most TABLE_MAX_Q = 2^8 elements then
replace multiply, inverse and square by exp/log tables of alpha, built once
through the kernel above; the general kind also adds, subtracts and negates
through Zech logarithms.  Prime fields keep their one-operation modular
kernel.  The tables are an acceleration only: a packed value means the same
element whichever kernel computed it, and whichever generator the tables
were built from.

The module needs only the standard library.  A field's p is tested by
Baillie-PSW, exact below 2^64 and a probable-prime verdict above.  The
numbers a field factors, q - 1 for its generator and m in Rabin's test,
are small, and trial division factors them; it refuses n >= SMALL_INT.

Modulus selection with ``modulus=None`` ("auto") picks the monic irreducible
of degree m with the smallest packed value among those with a nonzero
constant term; the constant-term rule only bites at m = 1, where it selects
x + 1.  Irreducibility, of a candidate or of a supplied modulus, is decided
for every p by one test on the same kernels: Ben-Or's, which rejects a
polynomial with a small factor after a few Frobenius steps, runs to m/2 for
odd p and to PREFIX_DEGREE for p = 2, where Rabin's test finishes a survivor
by squarings alone.  For p = 2 two sieves come first.  A small-factor sieve
strikes every polynomial with an irreducible factor of degree at most 8,
found by the sieve of Eratosthenes: such a factor P divides x^m + low
exactly when low = x^m mod P, mod P.  The auto search strikes those whole
residue classes in windows of 2^10 low parts by XOR steps through each P's
multiples, and a supplied modulus is a window of one.  Then, for odd m, a
polynomial whose low part has degree at most PREFIX_DEGREE meets a parity
sieve before Ben-Or's products (the auto search tries no low part above
degree 14 at any odd m measured, up to 4097): the discriminant of its 0/1
lift to Z[x], taken mod 8 from the low part alone, rejects about half of
the reducible ones that reach it.  All of these are exact and
deterministic, so the sieves never change which modulus is chosen.  The
parity sieve's determinant is ``_det``, the package's one fraction-free
elimination, which polymat also runs on polynomials for G's full-size minors.

A field of at most TABLE_MAX_Q elements designates a generator alpha: the
first element, in packed order starting at x (or at 1 for m = 1), whose
multiplicative order is p^m - 1, certified by factoring p^m - 1.  A
generator supplied through :func:`field_from_json` takes the same order
test instead of the search.  Its tables are alpha's powers.  A larger
field designates none, and its alpha is None: no arithmetic needs one,
and the explicit construction takes the class of x, whose minimal
polynomial has full degree whether or not x is primitive.  Certifying a
generator there would factor p^m - 1, which for the construction's fields
does not complete.

A field's identity is (p, m, modulus): two fields with the same modulus
are equal, and their elements combine, whichever generator each designates.
The generator is metadata, so a stream header (:meth:`Field.ref`), which
names no generator, matches a code built with a nonstandard one.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NoPrimitiveFound,
    NotPrime,
    ParseError,
    Reducible,
)

# fields up to this order designate a generator, and extension fields up
# to it multiply, invert and square through exp/log tables; the build steps
# q - 2 times through the polynomial kernel, which at this cap costs a few
# milliseconds
TABLE_MAX_Q = 1 << 8
# _factorint, trial division alone, refuses numbers from this one on
SMALL_INT = 1 << 32
# for p = 2, the degree up to which the irreducibility test runs Ben-Or's
# products before Rabin's test finishes a survivor by squarings
PREFIX_DEGREE = 32
# for p = 2, the small-factor sieve strikes candidates with an irreducible
# factor of degree up to _SIEVE_DEGREE, 2^_WINDOW_BITS low parts at a time
_SIEVE_DEGREE = 8
_WINDOW_BITS = 10


# ---------------------------------------------------------------------------
# primality (Baillie-PSW) and factoring (trial division below SMALL_INT)
# ---------------------------------------------------------------------------

def _factorint(n: int) -> dict[int, int]:
    """Complete factorization of 1 <= n < SMALL_INT by trial division; a
    larger n raises ValueError before any work."""
    if n >= SMALL_INT:
        raise ValueError(f"{n} is too large to factor by trial division")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, t = a % n, 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                t = -t
        a, n = n, a
        if a & n & 3 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _isprime(n: int) -> bool:
    """Baillie-PSW (Baillie-Wagstaff and Pomerance-Selfridge-Wagstaff, Math.
    Comp. 35, 1980): trial division by the primes up to 47, a strong
    probable-prime test to base 2, and a strong Lucas test with Selfridge's
    parameters D (the first of 5, -7, 9, -11, ... with (D/n) = -1), P = 1
    and Q = (1 - D)/4.  Exact below 2^64; above, no composite that passes
    is known."""
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % d == 0:
            return n == d
    if n < 53 * 53:
        return n > 1
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
        return False
    if math.isqrt(n) ** 2 == n:  # no D with (D/n) = -1 exists
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    # U_k, V_k and Q^k mod n from k = 1 up to d, top bit of d first
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V  # twice U_(k+1) and V_(k+1)
            U, V = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# GF(2)[x] on bit-packed ints
# ---------------------------------------------------------------------------

def _clmul(a: int, b: int) -> int:
    """Carry-less product in GF(2)[x], looping over the shorter operand.

    An operand under 16 bits is walked bit by bit.  From 16 bits on, a
    4-bit comb (Lopez-Dahab) reads it one byte at a time, top byte first,
    two digits per byte, against the 16 multiples of the longer operand by
    the digit polynomials 0..15, built by shifts and XORs.
    """
    if a < b:
        a, b = b, a
    if b < 1 << 15:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r
    a2 = a << 1
    a3 = a2 ^ a
    a4 = a << 2
    a5 = a4 ^ a
    a6 = a4 ^ a2
    a7 = a4 ^ a3
    a8 = a << 3
    t = [0, a, a2, a3, a4, a5, a6, a7,
         a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7]
    r = 0
    for c in b.to_bytes((b.bit_length() + 7) // 8, "big"):
        r = (r << 8) ^ (t[c >> 4] << 4) ^ t[c & 15]
    return r


def _spread4(v: int) -> int:
    """The low 4 bits of v moved to the even positions of a byte."""
    return (v & 1) | (v & 2) << 1 | (v & 4) << 2 | (v & 8) << 3


# squaring over GF(2) spreads the bits apart: byte b of a becomes the byte
# pair (_SQ_LO[b], _SQ_HI[b]) of a^2, little-endian
_SQ_LO = bytes(_spread4(b) for b in range(256))
_SQ_HI = bytes(_spread4(b >> 4) for b in range(256))


def _sq2(a: int) -> int:
    n = (a.bit_length() + 7) // 8
    s = a.to_bytes(n, "little")
    out = bytearray(2 * n)
    out[0::2] = s.translate(_SQ_LO)
    out[1::2] = s.translate(_SQ_HI)
    return int.from_bytes(out, "little")


def _fold_shifts(f: int, m: int) -> tuple[int, ...]:
    """Positions of the set bits of the low part f ^ x^m of a degree-m f."""
    low = f ^ (1 << m)
    return tuple(k for k in range(low.bit_length()) if low >> k & 1)


def _rem2(x: int, m: int, shifts: tuple[int, ...]) -> int:
    """x mod f, where f has degree m and ``shifts == _fold_shifts(f, m)``.

    Since x^m = sum(x^k for k in shifts) mod f, the part of x from degree m
    up folds back as shifted copies.  Each round lowers the degree by at
    least m - max(shifts), so a modulus with a short low part (the auto
    modulus) finishes a product in at most two rounds; a modulus whose low
    part reaches degree m - 1 lowers it by one per round.
    """
    hi = x >> m
    if not hi:
        return x
    mask = (1 << m) - 1
    while hi:
        x &= mask
        for k in shifts:
            x ^= hi << k
        hi = x >> m
    return x


def _mod2(a: int, b: int) -> int:
    """a mod b in GF(2)[x] by shift-XOR, one leading bit per turn."""
    lb = b.bit_length()
    d = a.bit_length() - lb
    while d >= 0:
        a ^= b << d
        d = a.bit_length() - lb
    return a


def _xpow2(e: int, b: int) -> int:
    """x^e mod b in GF(2)[x] by square-and-multiply, top bit of e first."""
    r = 1
    for bit in bin(e)[2:]:
        r = _mod2(_sq2(r) << (bit == "1"), b)
    return r


def _gcd2(a: int, b: int) -> int:
    """gcd in GF(2)[x] by shift-XOR Euclid, one leading bit per turn."""
    while b:
        la, lb = a.bit_length(), b.bit_length()
        if la < lb:
            a, b = b, a
            continue
        a ^= b << (la - lb)
    return a


def _inv2(a: int, f: int) -> int:
    """Inverse of a modulo the irreducible f by shift-XOR extended Euclid.

    Hankerson-Menezes-Vanstone, Guide to ECC, Alg. 2.48: a * g1 = u and
    a * g2 = v (mod f) hold throughout, and g1, g2 stay below deg f.
    """
    if a == 0:
        raise DivisionByZero("inverse of zero")
    u, v = a, f
    g1, g2 = 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v = v, u
            g1, g2 = g2, g1
            j = -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


# ---------------------------------------------------------------------------
# GF(p)[x] on coefficient tuples (constant term first, no trailing zeros)
# ---------------------------------------------------------------------------

def _ptrim(a: list[int]) -> tuple[int, ...]:
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _ptrim(out)


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    terms = [(i, bc) for i, bc in enumerate(b) if bc]  # sparse moduli are common
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        d = len(a) - 1 - db
        c = (a[-1] * lead_inv) % p
        q[d] = c
        for i, bc in terms:
            a[d + i] = (a[d + i] - c * bc) % p
        while a and a[-1] == 0:
            a.pop()
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


# ---------------------------------------------------------------------------
# packing helpers
# ---------------------------------------------------------------------------

def _pack(coeffs, p: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _canonical(s: str, base: int) -> int:
    """int(s, base) for base 10 or 16 when s is exactly how format writes
    the nonnegative value back; ValueError otherwise."""
    v = int(s, base)
    if v < 0 or s != format(v, "x" if base == 16 else "d"):
        raise ValueError(f"{s!r} is not in canonical form")
    return v


def _coeffs(v: int, p: int) -> tuple[int, ...]:
    """The coefficient tuple of a packed value, without trailing zeros."""
    out = []
    while v:
        v, c = divmod(v, p)
        out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# kernels on packed values, and the irreducibility test built on them
# ---------------------------------------------------------------------------

def _kernels(p: int, m: int, f: int):
    """(add, sub, neg, mul, inv, sq) on packed values modulo the packed
    monic f of degree m: integers mod p for m = 1, the GF(2)[x] kernels
    for p = 2, and coefficient-tuple arithmetic otherwise."""
    if m == 1:
        def inv(a):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return pow(a, -1, p)

        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                lambda a: (-a) % p, lambda a, b: (a * b) % p, inv,
                lambda a: (a * a) % p)
    if p == 2:
        shifts = _fold_shifts(f, m)
        return (lambda a, b: a ^ b, lambda a, b: a ^ b, lambda a: a,
                lambda a, b: _rem2(_clmul(a, b), m, shifts),
                lambda a: _inv2(a, f), lambda a: _rem2(_sq2(a), m, shifts))
    fpoly = _coeffs(f, p)

    def mul(a, b):
        return _pack(_pdivmod(_pmul(_coeffs(a, p), _coeffs(b, p), p), fpoly, p)[1], p)

    def inv(a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        r0, r1 = fpoly, _coeffs(a, p)
        t0, t1 = (), (1,)
        while r1:
            qt, r = _pdivmod(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _psub(t0, _pmul(qt, t1, p), p)
        # normalize: r0 is a nonzero constant gcd
        c = pow(r0[0], -1, p)
        return _pack(_pdivmod(_pmul(t0, (c,), p), fpoly, p)[1], p)

    return (lambda a, b: _pack(_padd(_coeffs(a, p), _coeffs(b, p), p), p),
            lambda a, b: _pack(_psub(_coeffs(a, p), _coeffs(b, p), p), p),
            lambda a: _pack(_psub((), _coeffs(a, p), p), p),
            mul, inv, lambda a: mul(a, a))


def _power(mul, sq, a: int, e: int) -> int:
    """a^e for e >= 1 by top-down square-and-multiply, so that every
    multiply is by a itself."""
    r = a
    for bit in bin(e)[3:]:
        r = sq(r)
        if bit == "1":
            r = mul(r, a)
    return r


def _multiples(a: int, bits: int) -> list[int]:
    """Every multiple of a in GF(2)[x] below x^bits, where deg a < bits:
    entry k is the product k * a, built as XORs of shifted copies of a."""
    out = [0]
    for i in range(bits - a.bit_length() + 1):
        out += [v ^ (a << i) for v in out]
    return out


def _small_irreducibles() -> tuple[int, ...]:
    """The 71 irreducibles of GF(2)[x] of degree 1.._SIEVE_DEGREE, packed,
    by the sieve of Eratosthenes on 9-bit ints: a reducible of degree at
    most 8 has an irreducible factor of degree at most 4."""
    bits = _SIEVE_DEGREE + 1
    composite = bytearray(1 << bits)
    for a in range(2, 1 << (_SIEVE_DEGREE // 2 + 1)):
        if not composite[a]:
            for v in _multiples(a, bits)[2:]:  # past 0 and a itself
                composite[v] = 1
    return tuple(a for a in range(2, 1 << bits) if not composite[a])


def _product_tree(leaves: tuple[int, ...]) -> list[int]:
    """A remainder tree in heap order: entry n + i (n = len(leaves)) is
    leaves[i], entry i < n is the product of entries 2i and 2i + 1, so
    entry 1 is the product of all leaves and every entry divides its
    parent, entry i // 2.  Entry 0 is unused."""
    n = len(leaves)
    tree = [1] * n + list(leaves)
    for i in range(n - 1, 0, -1):
        tree[i] = _clmul(tree[2 * i], tree[2 * i + 1])
    return tree


_SMALL = _small_irreducibles()
_TREE = _product_tree(_SMALL)
# the window's multiples of each small irreducible, in the order of _SMALL
_MULTIPLES = tuple(_multiples(a, _WINDOW_BITS) for a in _SMALL)


def _small_remainders(v: int) -> list[int]:
    """v mod P for every P of _SMALL, in its order, down _TREE: each entry
    reduces its parent's remainder, so v is divided once by the product of
    all 71, of degree 472, and never by each P in full."""
    n = len(_SMALL)
    rem = [0] * (2 * n)
    rem[1] = _mod2(v, _TREE[1])
    for i in range(2, 2 * n):
        rem[i] = _mod2(rem[i >> 1], _TREE[i])
    return rem[n:]


def _xm_residues(m: int) -> tuple[int, ...]:
    """x^m mod P for each P of _SMALL of degree below m, in its order:
    computed once per modulus search and shared by its candidates."""
    rems = _small_remainders(_xpow2(m, _TREE[1]))
    return tuple(r for a, r in zip(_SMALL, rems) if a.bit_length() <= m)


def _sieve(xm: tuple[int, ...], base: int, n: int) -> list[int]:
    """The low parts low = base + j, 0 <= j < n, for which x^m + low has no
    irreducible factor of degree at most min(_SIEVE_DEGREE, m - 1), in
    increasing order, where xm is _xm_residues(m); n is 1 or a power of two
    up to 2^_WINDOW_BITS, and n divides base.

    P divides x^m + low exactly when low = x^m mod P, mod P.  Since base is
    a multiple of n, base + j = base ^ j, so the j struck by P are s ^ kP
    for s = (x^m - base) mod P and every multiple kP below n: one XOR and
    one store per struck low, and no division by P.  A P of degree m or
    more may not strike: for m <= _SIEVE_DEGREE, x^m + low can itself be
    one of the small irreducibles.
    """
    struck = bytearray(n)
    for a, mults, r, b in zip(_SMALL, _MULTIPLES, xm, _small_remainders(base)):
        s = r ^ b
        if s < n:  # always so unless n = 1
            for v in mults[:n >> (a.bit_length() - 1) or 1]:
                struck[s ^ v] = 1
    return [base + j for j in range(n) if not struck[j]]


def _det(rows: list[list], one=1):
    """Determinant of a nonempty square matrix over an integral domain by
    Bareiss's fraction-free elimination (Math. Comp. 22, 1968); rows are
    overwritten.  Entries need ``*``, ``-``, ``-x``, exact ``//`` and
    truthiness as the zero test; one, the first divisor, is the ring's
    identity.  Callers: :func:`_disc_mod8` on ints, and
    polymat.full_size_minors on polynomials for G's full-size minors."""
    negate, prev, n = False, one, len(rows)
    for k in range(n - 1):
        if not rows[k][k]:
            i = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if i is None:
                return rows[k][k]  # the ring's zero
            rows[k], rows[i] = rows[i], rows[k]
            negate = not negate
        rk, piv = rows[k], rows[k][k]
        for ri in rows[k + 1:]:
            c = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * piv - c * rk[j]) // prev
        prev = piv
    return -rows[-1][-1] if negate else rows[-1][-1]


def _disc_mod8(m: int, low: int) -> int:
    """D(F) mod 8 for F = x^m + G, the 0/1 lift to Z[x] of x^m + low, for
    odd m and odd low of degree d < m, in O(d^3) small-int steps.

    The reversal F* = x^(m-d) A + 1, with A = x^d low(1/x) monic, has F's
    discriminant, and F*' = x^(m-d-1) B with B = (m - d)A + xA' of leading
    coefficient m, a unit mod 8.  The roots of F* multiply to (-1)^m, so
    the signs of the resultants cancel and D(F) = (-1)^(m(m-1)/2) m^m N,
    where N is the determinant of multiplication by F* on Z[x]/(B/m); mod 8,
    m^m = m and m^-1 = m.

    Polynomials mod 8 are packed one coefficient per w-bit slot, so a
    product is one int product; w leaves room for the sums of up to 2d
    terms of at most 7 * 7 that a reduction leaves in a slot.
    """
    d = low.bit_length() - 1
    if d == 0:
        return (m if m & 3 == 1 else -m) & 7
    w = (98 * d).bit_length()
    sevens = sum(7 << w * j for j in range(d))
    a = sum((low >> (d - k) & 1) << w * k for k in range(d + 1))
    # x^d = -(B/m - x^d) mod B/m, as nonnegative residues
    fold = sum(-(m - d + k) * m * (low >> (d - k) & 1) % 8 << w * k
               for k in range(d))

    def red(u, top):
        """u mod B/m, for u of degree at most top, coefficients mod 8."""
        for k in range(top, d - 1, -1):
            c = u >> w * k & 7
            if c:
                u += c * fold << w * (k - d)
        return u & sevens

    h = 1  # x^(m-d) mod B/m
    for bit in bin(m - d)[2:]:
        h = red(h * h, 2 * d - 2)
        if bit == "1":
            h = red(h << w, d)
    r = red(h * a, 2 * d - 1) + 1  # F* mod B/m
    rows = [r]
    for _ in range(d - 1):
        rows.append(red(rows[-1] << w, d))
    det = _det([[row >> w * j & 7 for j in range(d)] for row in rows])
    return (m if m & 3 == 1 else -m) * det & 7


def _irreducible(p: int, m: int, f: int) -> bool:
    """Ben-Or's test, with a small-factor sieve before it and Rabin's test
    after it for p = 2, for the packed monic f of degree m over GF(p).

    For p = 2, f first goes through :func:`_sieve` as a window of one low
    part: it is rejected when one of the 71 irreducibles of degree at most
    min(_SIEVE_DEGREE, m - 1) divides it, which is tested as a residue of
    the low part f - x^m against x^m mod P, shared by every f of degree m.
    The auto modulus search sieves 2^_WINDOW_BITS low parts at a time the
    same way and passes only the survivors to :func:`_irreducible_tail`,
    the rest of this test.  A reducible f has a factor of degree at most
    m/2, so below m = 2(_SIEVE_DEGREE + 1) the sieve alone decides.

    Ben-Or (FOCS 1981; Gao-Panario 1997): f is irreducible exactly when
    gcd(x^(p^i) - x, f) = 1 for every i <= m/2.  The factors x^(p^i) - x
    are multiplied up modulo f and the gcd is taken at i = 1, 2, 4, ... and
    at the last i, so a candidate with a small-degree factor is rejected
    after a few Frobenius steps.  For odd p this runs to m/2, since there a
    Frobenius step costs at least one product.  For p = 2 the products
    start past the sieve, at i = _SIEVE_DEGREE + 1 from x^(2^_SIEVE_DEGREE)
    mod f, with their gcds at i = 16 and 32.

    For p = 2 they stop at PREFIX_DEGREE, where a survivor has no factor of
    degree up to there, and Rabin's test (SIAM J. Comput. 9, 1980) finishes
    it by squarings alone: f is irreducible exactly when x^(2^m) = x mod f
    and gcd(x^(2^(m/r)) - x, f) = 1 for every prime r | m, and a gcd with
    m/r up to the degree already cleared is known to be 1.  Both tests are
    exact.

    For p = 2, odd m and a low part f - x^m of degree at most PREFIX_DEGREE,
    a survivor of the small-factor sieve then meets a parity sieve before
    Ben-Or's products.  By Stickelberger's theorem as Swan states it
    (Pacific J. Math. 12, 1962), a squarefree f with r irreducible factors
    has r = m mod 2 exactly when the discriminant D of its monic 0/1 lift
    to Z[x] is 1 mod 8, and D is even exactly when f is not squarefree.  An
    irreducible f of odd degree therefore has D = 1 mod 8, and f is
    rejected when :func:`_disc_mod8` is not 1.  Both sieves are exact in
    that sense: they never reject an irreducible, and what they pass goes
    on to Ben-Or and Rabin.  Even m skips the parity sieve: :func:`_disc_mod8`
    divides by m mod 8, a unit only for odd m.
    """
    if p == 2 and not _sieve(_xm_residues(m), f ^ (1 << m), 1):
        return False
    return _irreducible_tail(p, m, f)


def _irreducible_tail(p: int, m: int, f: int) -> bool:
    """:func:`_irreducible` past its small-factor stage: for p = 2, f must
    have passed :func:`_sieve`; for odd p this is the whole test."""
    half = m // 2
    x = p  # the packed value of x
    if p == 2:
        if half <= _SIEVE_DEGREE:
            return True
        low = f ^ (1 << m)
        # the sieve's P = x has left low odd
        if m & 1 and low.bit_length() <= PREFIX_DEGREE + 1 and _disc_mod8(m, low) != 1:
            return False
        done, stop = _SIEVE_DEGREE, min(half, PREFIX_DEGREE)
        t, check = _mod2(1 << (1 << done), f), 2 * done
    else:
        done, stop, t, check = 0, half, x, 1
    _, sub, _, mul, _, sq = _kernels(p, m, f)
    acc = 1
    for i in range(done + 1, stop + 1):
        t = _power(mul, sq, t, p)
        acc = mul(acc, sub(t, x))
        if i == check or i == stop:
            g = (_gcd2(acc, f) if p == 2
                 else _pack(_pgcd(_coeffs(f, p), _coeffs(acc, p), p), p))
            if g >= p:  # the gcd has positive degree
                return False
            check *= 2
    if stop == half:
        return True
    # Rabin's finish: square t = x^(2^i) on to x^(2^m), keeping x^(2^(m/r))
    # for each m/r whose gcd is not yet known
    saved, i = [], max(stop, done)
    for k in sorted(m // r for r in _factorint(m) if m // r > i):
        for _ in range(k - i):
            t = sq(t)
        saved.append(t)
        i = k
    for _ in range(m - i):
        t = sq(t)
    return t == x and all(_gcd2(s ^ x, f) == 1 for s in saved)


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class Element:
    """An element of a Field; immutable, hashable, operator-complete."""

    __slots__ = ("field", "val")

    def __init__(self, field: "Field", val: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *a):
        raise AttributeError("Element is immutable")

    def _peer(self, other) -> int:
        if not isinstance(other, Element):
            raise TypeError(f"cannot combine Element with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(
                f"elements of {self.field} and {other.field} cannot be combined")
        return other.val

    def __add__(self, other):
        return Element(self.field, self.field._vadd(self.val, self._peer(other)))

    def __sub__(self, other):
        return Element(self.field, self.field._vsub(self.val, self._peer(other)))

    def __neg__(self):
        return Element(self.field, self.field._vneg(self.val))

    def __mul__(self, other):
        return Element(self.field, self.field._vmul(self.val, self._peer(other)))

    def __truediv__(self, other):
        return Element(self.field, self.field._vmul(self.val, self.field._vinv(self._peer(other))))

    def __pow__(self, e: int):
        return Element(self.field, self.field._vpow(self.val, e))

    def inverse(self) -> "Element":
        return Element(self.field, self.field._vinv(self.val))

    def __eq__(self, other):
        return (isinstance(other, Element) and self.val == other.val
                and (other.field is self.field or other.field == self.field))

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.val))

    def __bool__(self):
        return self.val != 0

    @property
    def is_zero(self) -> bool:
        return self.val == 0

    def to_hex(self) -> str:
        return format(self.val, "x")

    def __repr__(self):
        return f"{self.field.ref()}[{self.to_hex()}]"


class Field:
    """GF(p^m) with a fixed monic irreducible modulus.

    ``alpha`` is the designated generator (``_primitive_val`` checked, or
    found) of a field of at most TABLE_MAX_Q elements, and None in a larger
    one.  Use the module-level :func:`field` factory, which caches
    instances so elements of equal fields interoperate cheaply.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None,
                 _primitive_val: int | None = None):
        if not isinstance(p, int) or p < 2 or not _isprime(p):
            raise NotPrime(f"p = {p} is not prime")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"extension degree m = {m} must be a positive integer")
        self.p = p
        self.m = m
        if modulus is None:
            modulus = self._auto_modulus(p, m)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != m + 1:
                raise ValueError(f"modulus must have length m+1 = {m + 1}")
            if any(not (0 <= c < p) for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _irreducible(p, m, _pack(modulus, p)):
                raise Reducible(f"modulus {list(modulus)} is reducible over GF({p})")
        # after the modulus checks, so a short modulus with a huge m fails fast
        self.q = p ** m
        self.modulus = modulus
        self.modulus_packed = _pack(modulus, p)
        if p == 2 and m >= 2:
            self.kind = "binary"
        elif m == 1:
            self.kind = "prime"
        else:
            self.kind = "general"
        (self._vadd, self._vsub, self._vneg, self._vmul, self._vinv,
         self._vsq) = _kernels(p, m, self.modulus_packed)
        self.alpha = None
        if self.q <= TABLE_MAX_Q:
            self.alpha = Element(self, self._find_primitive(_primitive_val))
            if self.kind != "prime":
                self._bind_tables(self.alpha.val)
        self.zero = Element(self, 0)
        self.one = Element(self, 1)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _auto_modulus(p: int, m: int) -> tuple[int, ...]:
        if p == 2:
            # an irreducible of degree m exists, so the windows never pass
            # low = 2^m
            n = 1 << min(_WINDOW_BITS, m)
            base, xm = 0, _xm_residues(m)
            while True:
                for low in _sieve(xm, base, n):
                    if low & 1 and _irreducible_tail(2, m, (1 << m) | low):
                        return _coeffs((1 << m) | low, 2)
                base += n
        f = p ** m + 1
        while not _irreducible(p, m, f):
            f += 2 if f % p == p - 1 else 1  # keep the constant term nonzero
        return _coeffs(f, p)

    def _bind_tables(self, alpha: int):
        """Rebind mul, inv and square to exp/log tables of the generator,
        built once through the kernels bound above; the general kind also
        adds, subtracts and negates through Zech logarithms.

        exp holds alpha^i for 0 <= i < 2(q-1), so a sum of two logs indexes
        it without reduction.  zech[n] is log(1 + alpha^n), or -1 where
        1 + alpha^n = 0 (Huber, IEEE Trans. IT 36(4), 1990); it is doubled
        too, so a difference of two logs indexes it directly, negative
        differences through Python's wrap-around.
        """
        p, q1 = self.p, self.q - 1
        step = self._vmul
        exp = [1] * (2 * q1)
        for i in range(1, q1):
            exp[i] = step(exp[i - 1], alpha)
        exp[q1:] = exp[:q1]
        log = [0] * (q1 + 1)
        for i in range(q1):
            log[exp[i]] = i

        def vmul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def vinv(a):
            if not a:
                raise DivisionByZero("inverse of zero")
            return exp[q1 - log[a]]

        self._vmul = vmul
        self._vinv = vinv
        self._vsq = lambda a: exp[2 * log[a]] if a else 0
        if self.kind != "general":
            return
        half = q1 // 2  # alpha^half = -1 in odd characteristic
        # adding 1 changes only the constant digit of a packed value; 1 + v
        # is zero exactly when v = p - 1
        zech = [-1 if v == p - 1 else log[v + 1 if v % p != p - 1 else v - (p - 1)]
                for v in exp[:q1]] * 2

        def vadd(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]
            return exp[la + z] if z >= 0 else 0

        def vsub(a, b):
            if not b:
                return a
            lb = log[b] + half  # the log of -b
            if not a:
                return exp[lb]
            la = log[a]
            z = zech[lb - la]
            return exp[la + z] if z >= 0 else 0

        self._vadd = vadd
        self._vsub = vsub
        self._vneg = lambda a: exp[log[a] + half] if a else 0

    def _vpow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("0 cannot be raised to a negative power")
            return 0
        e %= self.q - 1
        return _power(self._vmul, self._vsq, a, e) if e else 1

    def _find_primitive(self, sup: int | None) -> int:
        """The generator of a field of at most TABLE_MAX_Q elements by one
        order test, a^((q-1)/r) != 1 for each prime r | q - 1, of the
        supplied value sup (out of range, or failing at r, it raises
        NoPrimitiveFound) or else of each element in packed order from x
        (from 1 for m = 1) until one passes."""
        q1 = self.q - 1
        if sup is not None and not 0 < sup < self.q:
            raise NoPrimitiveFound("supplied primitive element is out of range or zero")
        primes = _factorint(q1)
        for cand in (sup,) if sup is not None else range(1 if self.m == 1 else self.p, self.q):
            low = next((r for r in primes if self._vpow(cand, q1 // r) == 1), None)
            if low is None:
                return cand
            if sup is not None:
                raise NoPrimitiveFound(
                    f"supplied element is certainly not primitive (order divides (q-1)/{low})")

    # -- element constructors -------------------------------------------

    def el(self, val: int) -> Element:
        """Element from its packed base-p value, an int (not a bool)."""
        if type(val) is not int:
            raise TypeError(f"packed value {val!r} is not an int")
        if not (0 <= val < self.q):
            raise ValueError(f"packed value {val} out of range for {self}")
        return Element(self, val)

    def from_hex(self, s: str) -> Element:
        """The element whose to_hex is s; any other text raises ValueError."""
        return self.el(_canonical(s, 16))

    def elements(self) -> Iterator[Element]:
        """All q elements in packed order; intended for small fields."""
        for v in range(self.q):
            yield Element(self, v)

    def random_element(self, rng) -> Element:
        return Element(self, rng.randrange(self.q))

    # -- identity and serialization --------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field) and self.p == other.p and self.m == other.m
            and self.modulus_packed == other.modulus_packed)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus_packed))

    def ref(self) -> str:
        """Compact textual handle: p^m:<modulus packed, hex>."""
        return f"{self.p}^{self.m}:{format(self.modulus_packed, 'x')}"

    def to_json(self) -> dict:
        obj = {"p": self.p, "m": self.m, "modulus": list(self.modulus)}
        if self.alpha is not None:
            obj["primitive"] = self.alpha.to_hex()
        return obj

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


def _cached_field(p: int, m: int, modulus: tuple[int, ...] | None) -> Field:
    """The one Field of a request, filed also under the modulus an auto
    request's search found, which is not tested again: field(p, m) and a
    reference naming that modulus return one object in either order."""
    fields = _cached_field.fields
    f = fields.get((p, m, modulus)) or Field(p, m, modulus)
    fields[p, m, modulus] = f = fields.setdefault((p, m, f.modulus), f)
    return f


_cached_field.fields = {}
_cached_field.cache_clear = lambda: _cached_field.fields.clear()


def field(p: int, m: int = 1, modulus=None) -> Field:
    """Construct (or fetch from cache) GF(p^m).

    ``modulus=None`` selects the auto modulus described in the module
    docstring.  A supplied modulus is a length-(m+1) coefficient list,
    constant term first, monic, irreducible.
    """
    key = tuple(int(c) for c in modulus) if modulus is not None else None
    return _cached_field(int(p), int(m), key)


def _json_object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")


def _json_int(obj: dict, key: str, what: str) -> int:
    val = obj[key]
    if not _json_nested(val, 0, int):
        raise ParseError(f"{what} {key} must be an integer")
    return val


def _json_nested(val, depth: int, leaf: type) -> bool:
    """Whether val is depth levels of nested lists (val itself when depth is
    0) whose innermost entries have type leaf exactly: JSON true and false
    load as bool, a subclass of int."""
    if not depth:
        return type(val) is leaf
    return isinstance(val, list) and all(_json_nested(x, depth - 1, leaf) for x in val)


def field_from_json(obj: dict) -> Field:
    """The field that Field.to_json wrote; a value of the wrong JSON type
    raises ParseError and a missing p or m KeyError.  modulus and
    primitive may be absent or null.  A primitive other than the cached
    field's alpha is checked at load; a field of more than TABLE_MAX_Q
    elements, which designates no generator, ignores its value."""
    _json_object(obj, "field")
    p, m = _json_int(obj, "p", "field"), _json_int(obj, "m", "field")
    modulus = obj.get("modulus")
    if modulus is not None and not _json_nested(modulus, 1, int):
        raise ParseError("field modulus must be a list of integers")
    prim = obj.get("primitive")
    if prim is not None and not _json_nested(prim, 0, str):
        raise ParseError("field primitive must be a hex string")
    f = field(p, m, modulus)
    if prim is None:
        return f
    want = _canonical(prim, 16)
    if f.alpha is None or want == f.alpha.val:
        return f
    return Field(p, m, f.modulus, _primitive_val=want)


def field_from_ref(ref: str) -> Field:
    """Inverse of Field.ref()."""
    try:
        pm, mod_hex = ref.split(":")
        p_s, m_s = pm.split("^")
        p, m = _canonical(p_s, 10), _canonical(m_s, 10)
        packed = _canonical(mod_hex, 16)
    except ValueError as exc:
        raise ValueError(f"malformed field reference {ref!r}") from exc
    if p < 2:
        raise ValueError(f"malformed field reference {ref!r}")
    modulus = _coeffs(packed, p)  # at most 4 digits per hex digit, whatever m is
    if len(modulus) > max(m + 1, 0):  # packed >= p^(m+1)
        raise ValueError(f"malformed field reference {ref!r}")
    if len(modulus) <= m > 0:  # the x^m coefficient is 0
        field(p)  # but a p that is not prime is refused first, as in Field
        raise ValueError("modulus must be monic")
    return field(p, m, modulus)
