"""Polynomial matrices over a finite field and the code object built on them.

A PolyMatrix is a finite list of coefficient matrices [C_0, ..., C_d] with
C_d nonzero (empty list for the zero matrix).  A message or codeword is just
a 1 x s PolyMatrix.  ConvCode bundles a k x n generator with an optional
(n-k) x n parity check and derives its invariants once at construction.

The external degree (the "delta" of an (n, k, delta) code) is the maximal
degree of the full-size minors of G, and G is non-catastrophic exactly when
their gcd is a nonzero constant.  Both are read from one exact computation
of the minors by gf's fraction-free (Bareiss) elimination on Poly entries,
which works over every field.  Each intermediate entry of that elimination
is itself a minor of G, so its degree stays within the sum of row degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    ParseError,
    RankDeficient,
)
from .gf import (Element, Field, _canonical, _det, _json_int, _json_nested, _json_object,
                 field_from_json)
from .linalg import Mat, _vecmat, rank


# ---------------------------------------------------------------------------
# scalar polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial over a field: a tuple of its Elements, constant term
    first.  ``//`` is exact division, and the zero polynomial is false."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, Element):
                raise TypeError(f"coefficient {c!r} is not an Element")
            if c.field != field:
                raise FieldMismatch(f"coefficient over {c.field}, not {field}")
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def from_packed(cls, field: Field, vals) -> "Poly":
        return cls(field, [field.el(v) for v in vals])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, i: int) -> Element:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field,
                    [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field,
                    [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        db = other.degree
        if self.degree < db:
            return Poly.zero(self.field), self
        rem = list(self.coeffs)
        inv = other.coeffs[-1].inverse()
        quot = [self.field.zero] * (self.degree - db + 1)
        while rem and len(rem) - 1 >= db:
            d = len(rem) - 1 - db
            c = rem[-1] * inv
            quot[d] = c
            for i, oc in enumerate(other.coeffs):
                rem[d + i] = rem[d + i] - c * oc
            rem.pop()  # leading term cancels by construction
            while rem and rem[-1].is_zero:
                rem.pop()
        return Poly(self.field, quot), Poly(self.field, rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DegreeMismatch("division expected to be exact was not")
        return q

    __floordiv__ = exact_div

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        inv = self.coeffs[-1].inverse()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def eval(self, x: Element) -> Element:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.m, tuple(c.val for c in self.coeffs)))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        return "Poly(" + " + ".join(
            f"{c.to_hex()}z^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


# ---------------------------------------------------------------------------
# polynomial matrices
# ---------------------------------------------------------------------------

class PolyMatrix:
    __slots__ = ("field", "nrows", "ncols", "coeffs")

    def __init__(self, field: Field, nrows: int, ncols: int, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, Mat):
                raise TypeError("coefficients must be Mat instances")
            if c.field != field:
                raise FieldMismatch("coefficient matrix over a different field")
            if c.nrows != nrows or c.ncols != ncols:
                raise DimensionMismatch("coefficient matrix shape mismatch")
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "PolyMatrix":
        return cls(field, nrows, ncols, ())

    @classmethod
    def from_packed(cls, field: Field, grids) -> "PolyMatrix":
        """grids: list of coefficient matrices given as int grids."""
        mats = [Mat.from_packed(field, g) for g in grids]
        if not mats:
            raise DimensionMismatch("at least one coefficient grid required")
        return cls(field, mats[0].nrows, mats[0].ncols, mats)

    @property
    def degree(self) -> int:
        """Largest power of z with a nonzero coefficient; -1 for the zero matrix."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Mat:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Mat.zeros(self.field, self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Poly:
        return Poly(self.field, [Element(self.field, c._rows[i][j]) for c in self.coeffs])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._compatible(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyMatrix(self.field, self.nrows, self.ncols,
                          [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch("polynomial matrix product shape mismatch")
        if self.is_zero or other.is_zero:
            return PolyMatrix.zero(self.field, self.nrows, other.ncols)
        fld, t = self.field, other.ncols
        if other.field != fld:
            raise FieldMismatch(f"matrices over {fld} and {other.field}")
        out = [[[0] * t for _ in range(self.nrows)] for _ in range(self.degree + other.degree + 1)]
        for i, a in enumerate(self.coeffs):
            for r, x in enumerate(a._rows):
                for j, b in enumerate(other.coeffs):
                    out[i + j][r] = _vecmat(fld, out[i + j][r], x, b._rows)
        return PolyMatrix(fld, self.nrows, t, [Mat._wrap(fld, c, t) for c in out])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.field, self.ncols, self.nrows,
                          [c.transpose() for c in self.coeffs])

    def eval_at_zero(self) -> Mat:
        return self.coeff(0)

    def row_degrees(self) -> list[int]:
        degs = [-1] * self.nrows
        for d, c in enumerate(self.coeffs):
            for i, row in enumerate(c._rows):
                if any(row):
                    degs[i] = d
        return degs

    def leading_row_matrix(self) -> Mat:
        """Row i holds the z^(rowdeg_i) coefficient of row i."""
        rows = [list(self.coeffs[d]._rows[i]) if d >= 0 else [0] * self.ncols
                for i, d in enumerate(self.row_degrees())]
        return Mat._wrap(self.field, rows, self.ncols)

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"PolyMatrix({self.field!r}, {self.nrows}x{self.ncols}, deg {self.degree})"

    def _compatible(self, other):
        if not isinstance(other, PolyMatrix):
            raise TypeError("expected PolyMatrix")
        if self.field != other.field:
            raise FieldMismatch("polynomial matrices over different fields")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("polynomial matrix shape mismatch")


# ---------------------------------------------------------------------------
# full-size minors and the external degree
# ---------------------------------------------------------------------------

def full_size_minors(g: PolyMatrix) -> dict[tuple[int, ...], Poly]:
    """All k x k minors of a k x n PolyMatrix as exact polynomials, by gf's
    fraction-free elimination.  Keys are 0-based column tuples."""
    k, n = g.nrows, g.ncols
    if not 0 < k <= n:
        raise DimensionMismatch(f"need 0 < k <= n, got a {k} x {n} matrix")
    entries = [[g.entry(i, j) for j in range(n)] for i in range(k)]
    one = Poly.one(g.field)
    return {cols: _det([[row[j] for j in cols] for row in entries], one)
            for cols in itertools.combinations(range(n), k)}


def _max_minor_degree(minors: dict[tuple[int, ...], Poly]) -> int:
    best = max((p.degree for p in minors.values()), default=-1)
    if best < 0:
        raise RankDeficient("matrix has no nonzero full-size minor")
    return best


# ---------------------------------------------------------------------------
# the code object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructuralFlags:
    delay_free: bool
    row_reduced: bool
    noncatastrophic_certified: bool


class ConvCode:
    """An (n, k, delta) convolutional code given by a generator matrix.

    The parity-check matrix is optional and always supplied, never derived;
    when present it is validated against G (H * G^T = 0, H(0) full row rank).

    Construction also fixes the facts about G that decoding and the checks
    read: whether G_0 has rank k (_g0_full_rank: the code is delay-free),
    whether G_mu does (_gmu_full_rank: deg u follows from deg v), and G's
    column view _g_cols, _g_cols[s][c] = G_s[:, c] as a tuple of packed
    values.  Decoding reads them and stores nothing on the code.
    """

    def __init__(self, n: int, k: int, G: PolyMatrix, H: PolyMatrix | None = None,
                 metadata: dict | None = None):
        if not (0 < k < n):
            raise DimensionMismatch(f"need 0 < k < n, got k={k}, n={n}")
        if G.nrows != k or G.ncols != n:
            raise DimensionMismatch("generator matrix must be k x n")
        if G.is_zero:
            raise RankDeficient("zero generator matrix")
        self.n = n
        self.k = k
        self.G = G
        self.H = H
        self.field = G.field
        self._minors = full_size_minors(G)
        self.delta = _max_minor_degree(self._minors)
        self._g0_full_rank = rank(G.coeffs[0]) == k
        self._gmu_full_rank = rank(G.coeffs[-1]) == k
        self._g_cols = [list(zip(*g._rows)) for g in G.coeffs]
        if H is not None:
            if H.field != G.field:
                raise FieldMismatch("G and H over different fields")
            if H.nrows != n - k or H.ncols != n:
                raise DimensionMismatch("parity-check matrix must be (n-k) x n")
            prod = H * G.transpose()
            if not prod.is_zero:
                raise DegreeMismatch("H * G^T != 0: not a parity check for G")
            if rank(H.eval_at_zero()) != n - k:
                raise RankDeficient("H(0) must have full row rank")
        self.metadata = dict(metadata) if metadata else {}
        self._flags: StructuralFlags | None = None

    # -- derived structure -------------------------------------------------

    @property
    def flags(self) -> StructuralFlags:
        if self._flags is None:
            delay_free = self._g0_full_rank
            row_reduced = rank(self.G.leading_row_matrix()) == self.k
            g = Poly.zero(self.field)
            for p in self._minors.values():
                g = poly_gcd(g, p)
                if g.degree == 0:
                    break
            noncat = g.degree == 0  # gcd is a nonzero constant
            self._flags = StructuralFlags(delay_free, row_reduced, noncat)
        return self._flags

    def encode(self, u: PolyMatrix) -> PolyMatrix:
        """Codeword u(z) * G(z) for a 1 x k message."""
        if u.nrows != 1 or u.ncols != self.k:
            raise DimensionMismatch(f"message must be 1 x {self.k}")
        return u * self.G

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        def mats(pm: PolyMatrix):
            return [[[format(v, "x") for v in row] for row in c._rows] for c in pm.coeffs]

        obj = {
            "field": self.field.to_json(),
            "n": self.n,
            "k": self.k,
            "G": mats(self.G),
        }
        if self.H is not None:
            obj["H"] = mats(self.H)
        if self.metadata:
            obj["metadata"] = self.metadata
        return obj

    def __repr__(self):
        return f"ConvCode(n={self.n}, k={self.k}, delta={self.delta}, {self.field!r})"


def code_from_json(obj: dict) -> ConvCode:
    """The code that ConvCode.to_json wrote; a value of the wrong JSON type
    raises ParseError and a missing key KeyError."""
    _json_object(obj, "code")
    fld = field_from_json(obj["field"])

    def pm(key, nrows, ncols):
        grids = obj[key]
        if not _json_nested(grids, 3, str):
            raise ParseError(f"code {key} must be a list of grids of hex strings")
        return PolyMatrix(fld, nrows, ncols, [
            Mat.from_packed(fld, [[_canonical(h, 16) for h in row] for row in g]) for g in grids])

    n, k = _json_int(obj, "n", "code"), _json_int(obj, "k", "code")
    G = pm("G", k, n)
    H = pm("H", n - k, n) if "H" in obj else None
    metadata = obj.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("code metadata must be a JSON object")
    return ConvCode(n, k, G, H, metadata=metadata)
