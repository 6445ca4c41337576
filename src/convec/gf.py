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

``sympy`` is imported only for numbers of at least SMALL_INT = 2^32: the
primality of p and the factorization of p^m - 1 below that are found by
trial division, so building and using a field below 2^32 elements never
loads it.  A larger field loads it only when its generator is read.

Modulus selection with ``modulus=None`` ("auto") picks the monic irreducible
of degree m with the smallest packed value among those with a nonzero
constant term; the constant-term rule only bites at m = 1, where it selects
x + 1.  Irreducibility, of a candidate or of a supplied modulus, is decided
for every p by one test on the same kernels: Ben-Or's, which rejects a
polynomial with a small factor after a few Frobenius steps, runs to m/2 for
odd p and to PREFIX_DEGREE for p = 2, where Rabin's test finishes a survivor
by squarings alone.  Both are exact and deterministic.

The designated generator alpha is the first element, in packed order starting
at x (or at 1 for m = 1), whose multiplicative order is p^m - 1.  Orders are
certified by factoring p^m - 1; when the factorization does not complete
within the internal budget the field is flagged ``unverified_primitive`` and
alpha is the first candidate passing all tests against the known prime
factors.  A generator supplied through :func:`field_from_json` takes the
same order test instead of the search.  Either is settled when a field of
at most TABLE_MAX_Q elements is built (its tables are alpha's powers), and
on first read in a larger one, where certifying it factors p^m - 1 and no
arithmetic needs it: loading, decoding and verifying do no number theory.

A field's identity is (p, m, modulus): two fields with the same modulus
are equal, and their elements combine, whichever generator each designates.
The generator is metadata, so a stream header (:meth:`Field.ref`), which
names no generator, matches a code built with a nonstandard one.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NoPrimitiveFound,
    NotPrime,
    ParseError,
    Reducible,
)

# Budget knobs for factoring p^m - 1 during primitivity certification.
FACTOR_TRIAL_LIMIT = 10_000
FACTOR_RHO_STEPS = 20_000
FACTOR_DIRECT_BITS = 48  # below this, factor completely without a budget
PRIMITIVE_CANDIDATE_CAP = 4096
# extension fields up to this order multiply, invert and square through
# exp/log tables; the build steps q - 2 times through the polynomial kernel,
# which at this cap costs a few milliseconds
TABLE_MAX_Q = 1 << 8
# numbers below this are tested and factored by trial division; sympy is
# imported only for larger ones
SMALL_INT = 1 << 32
# for p = 2, the degree up to which the irreducibility test runs Ben-Or's
# products before Rabin's test finishes a survivor by squarings
PREFIX_DEGREE = 32


# ---------------------------------------------------------------------------
# primality and factoring: trial division below SMALL_INT, sympy above
# ---------------------------------------------------------------------------

def _trial_factor(n: int) -> dict[int, int]:
    """Complete factorization of 1 <= n < SMALL_INT by trial division."""
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


def _factorint(n: int) -> dict[int, int]:
    if n < SMALL_INT:
        return _trial_factor(n)
    import sympy
    return dict(sympy.factorint(n))


def _isprime(n: int) -> bool:
    if n < SMALL_INT:
        return n >= 2 and _trial_factor(n) == {n: 1}
    import sympy
    return bool(sympy.isprime(n))


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
    mask = (1 << m) - 1
    hi = x >> m
    while hi:
        x &= mask
        for k in shifts:
            x ^= hi << k
        hi = x >> m
    return x


def _xpow2(e: int, b: int) -> int:
    """x^e mod b in GF(2)[x] by square-and-multiply, top bit of e first,
    each step reduced below deg b by shift-XOR."""
    lb = b.bit_length()
    r = 1
    for bit in bin(e)[2:]:
        r = _sq2(r) << (bit == "1")
        d = r.bit_length() - lb
        while d >= 0:
            r ^= b << d
            d = r.bit_length() - lb
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


def _frobenius_products() -> tuple[tuple[int, int], ...]:
    """(i, M_i) for i = 1, 2, 4, 8, where M_i = prod_{l <= i} (x^(2^l) - x)
    in GF(2)[x] has degree 2^(i+1) - 2: gcd(M_i, f) = 1 exactly when f has
    no irreducible factor of degree at most i."""
    out, acc = [], 1
    for i in range(1, 9):
        acc = _clmul(acc, (1 << (1 << i)) ^ 2)
        if i & (i - 1) == 0:
            out.append((i, acc))
    return tuple(out)


_FROBENIUS = _frobenius_products()


@functools.lru_cache(maxsize=32)
def _xm_mod_frobenius(m: int) -> tuple[int, ...]:
    """x^m mod M_i for each M_i of _FROBENIUS of degree below m: shared by
    every candidate of one modulus search."""
    return tuple(_xpow2(m, mi) for _, mi in _FROBENIUS if mi.bit_length() <= m)


def _irreducible(p: int, m: int, f: int) -> bool:
    """Ben-Or's test, finished for p = 2 by Rabin's, for the packed monic f
    of degree m over GF(p).

    Ben-Or (FOCS 1981; Gao-Panario 1997): f is irreducible exactly when
    gcd(x^(p^i) - x, f) = 1 for every i <= m/2.  The factors x^(p^i) - x
    are multiplied up modulo f and the gcd is taken at i = 1, 2, 4, ... and
    at the last i, so a candidate with a small-degree factor is rejected
    after a few Frobenius steps.  For odd p this runs to m/2, since there a
    Frobenius step costs at least one product.

    For p = 2 it stops at PREFIX_DEGREE, where a survivor has no factor of
    degree up to there, and Rabin's test (SIAM J. Comput. 9, 1980) finishes
    it by squarings alone: f is irreducible exactly when x^(2^m) = x mod f
    and gcd(x^(2^(m/r)) - x, f) = 1 for every prime r | m, and a gcd with
    m/r <= PREFIX_DEGREE is already known to be 1.  Also for p = 2, a
    checkpoint i = 1, 2, 4, 8 whose M_i (see :func:`_frobenius_products`)
    has degree below m takes gcd(M_i, f) through x^m mod M_i, which every
    candidate of degree m shares, so it neither multiplies nor divides by
    f.  Both tests are exact.
    """
    if m == 1:
        return True
    half = m // 2
    stop = min(half, PREFIX_DEGREE) if p == 2 else half
    x = t = p  # the packed value of x
    acc = 1
    start = check = 1
    if p == 2:
        low = f ^ (1 << m)
        for (i, mi), xm in zip(_FROBENIUS, _xm_mod_frobenius(m)):
            if i > stop:
                break
            if _gcd2(mi, xm ^ low) != 1:
                return False
            acc, t, start, check = mi, 1 << (1 << i), i + 1, 2 * i
    _, sub, _, mul, _, sq = _kernels(p, m, f)
    for i in range(start, stop + 1):
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
    # Rabin's finish: square t = x^(2^stop) on to x^(2^m), keeping
    # x^(2^(m/r)) for each m/r whose gcd is not yet known
    saved, i = [], stop
    for k in sorted(m // r for r in _factorint(m) if m // r > stop):
        for _ in range(k - i):
            t = sq(t)
        saved.append(t)
        i = k
    for _ in range(m - i):
        t = sq(t)
    return t == x and all(_gcd2(s ^ x, f) == 1 for s in saved)


# ---------------------------------------------------------------------------
# budgeted factorization (for primitivity certificates)
# ---------------------------------------------------------------------------

def _budgeted_factor(n: int) -> tuple[dict[int, int], bool]:
    """Factor n as far as the budget allows; returns (factors, complete)."""
    if n <= 1:
        return {}, True
    if n.bit_length() <= FACTOR_DIRECT_BITS:
        return _factorint(n), True
    import sympy
    from sympy.ntheory.factor_ import pollard_rho

    found = sympy.factorint(n, limit=FACTOR_TRIAL_LIMIT)
    out: dict[int, int] = {}
    pending: list[tuple[int, int]] = []
    for f, e in found.items():
        if sympy.isprime(f):
            out[f] = out.get(f, 0) + e
        else:
            pending.append((f, e))
    complete = True
    while pending:
        c, e = pending.pop()
        d = pollard_rho(c, max_steps=FACTOR_RHO_STEPS, retries=1, seed=0xC0FFEE)
        if d is None:
            complete = False
            continue
        for part in (d, c // d):
            if sympy.isprime(part):
                out[part] = out.get(part, 0) + e
            else:
                pending.append((part, e))
    return out, complete


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
    """GF(p^m) with a fixed monic irreducible modulus and designated alpha.

    ``alpha`` and ``unverified_primitive`` (``_primitive_val`` checked, or
    found) are settled when built up to TABLE_MAX_Q elements, else on
    first read.  Use the module-level
    :func:`field` factory, which caches instances so elements of equal
    fields interoperate cheaply.
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
        self._supplied = _primitive_val
        self._generator = None
        if self.q <= TABLE_MAX_Q:
            # q - 1 factors at once here, so the generator is settled now
            alpha = self.alpha.val
            if self.kind != "prime":
                self._bind_tables(alpha)
        self.zero = Element(self, 0)
        self.one = Element(self, 1)

    # -- the designated generator ----------------------------------------

    def _designated(self) -> tuple[Element, bool]:
        """(alpha, unverified_primitive), found on first read: certifying
        the order of a large field's generator factors q - 1.  A plain
        attribute holds it, not functools.cached_property: that writes
        through the instance __dict__, after which every attribute load on
        the field took about three times as long (measured on CPython
        3.11)."""
        if self._generator is None:
            val, unverified = self._find_primitive()
            self._generator = (Element(self, val), unverified)
        return self._generator

    @property
    def alpha(self) -> Element:
        return self._designated()[0]

    @property
    def unverified_primitive(self) -> bool:
        return self._designated()[1]

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _auto_modulus(p: int, m: int) -> tuple[int, ...]:
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

    def _find_primitive(self) -> tuple[int, bool]:
        """(alpha, unverified_primitive) by one order test, a^((q-1)/r) != 1
        for each known prime factor r of q - 1, of the supplied value (out
        of range, or failing at r, it raises NoPrimitiveFound) or else of
        each candidate in packed order until one passes."""
        sup, q1 = self._supplied, self.q - 1
        if sup is not None and not 0 < sup < self.q:
            raise NoPrimitiveFound("supplied primitive element is out of range or zero")
        fac, complete = _budgeted_factor(q1)
        if sup is not None:
            candidates = (sup,)
        elif self.m == 1:
            candidates = range(1, min(self.p, PRIMITIVE_CANDIDATE_CAP + 1))
        else:
            candidates = range(self.p, min(self.q, self.p + PRIMITIVE_CANDIDATE_CAP))
        for cand in candidates:
            low = next((r for r in fac if self._vpow(cand, q1 // r) == 1), None)
            if low is None:
                return cand, not complete
            if sup is not None:
                raise NoPrimitiveFound(
                    f"supplied element is certainly not primitive (order divides (q-1)/{low})")
        raise NoPrimitiveFound(
            f"no generator of GF({self.p}^{self.m})* found within the candidate cap")

    # -- element constructors -------------------------------------------

    def el(self, val: int) -> Element:
        """Element from its packed base-p value."""
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
        return {
            "p": self.p,
            "m": self.m,
            "modulus": list(self.modulus),
            "primitive": self.alpha.to_hex(),
        }

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, m: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(p, m, modulus)


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
    primitive may be absent or null.  Up to TABLE_MAX_Q elements a
    primitive other than the cached field's alpha is checked at load;
    a larger field loads as its own Field, equal to the cached one, whose
    primitive is checked on first read."""
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
    if f.q <= TABLE_MAX_Q and want == f.alpha.val:
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
