"""Dense exact linear algebra over a finite field.

Matrices are lists of rows of field Elements.  Everything is exact; there is
no pivoting strategy beyond "first nonzero", which is all a field needs.

Elimination runs on packed ints through two routines of one shape.
``_reduce`` reduces a vector against a basis of normalised vectors keyed by
pivot and adds it as a new one when it is independent; det, minor,
solve_right and right_kernel read values off that basis.  ``_independent``
reduces against a basis kept unscaled, with no inverse, and only says
whether the vector left the span; rank and the minor checks in distance.py
ask no more.  Both go through the
field's bound kernels (``_vmul``, ``_vsub``, ``_vinv``; exp/log tables for
extension fields up to 2^8 elements), and a vector update reads only the
basis vector's nonzero entries and skips pivots where the vector is
already zero.  The public routines unpack the entries once, build a basis
over the rows and pack the result back once.  codec builds the systems of
both decoders (gm and pc windows and guards, whole-stream extraction) as
packed rows for solve_right's core, _solve_packed, which hands back the
solution and kernel as packed rows (X, K), or None when the system is
inconsistent; only solve_right wraps them in Mats.  _solve_packed is the
only reader of _rref's basis: right_kernel is it with no right-hand side,
and codec's forward substitution takes G_0's right inverse from it, solving
from the rows [G_0 | I].  The minor checks extend one unscaled basis column
by column, over the columns of a packed kernel basis (_solve_packed with no
right-hand side) when that is the narrower side.
``_vecmat`` is the one row vector times matrix loop on packed values: Mat
and PolyMatrix products, codec's forward substitution and the column
distance search all run through it.

``Mat(...)`` checks that every entry is an Element of its field.  Matrices
that this module derives from already-checked ones (slices, transposes,
products and solver results) skip that check.

The solver convention matches how the rest of the package states systems:
``solve_right(A, B)`` solves X * A = B for the row vector(s) X, i.e. the
unknowns multiply A from the left.  Uniqueness is therefore equivalent to A
having full row rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, FieldMismatch, IndexOutOfRange
from .gf import Element, Field


class Mat:
    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: Field, data: list[list[Element]], ncols: int | None = None):
        self.field = field
        self.data = data
        self.nrows = len(data)
        if self.nrows:
            self.ncols = len(data[0])
        elif ncols is not None:
            self.ncols = ncols
        else:
            self.ncols = 0
        for row in data:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows")
            for e in row:
                # the identity test is the fast path for entries of this field
                if e.__class__ is not Element or e.field is not field:
                    if not isinstance(e, Element) or e.field != field:
                        raise FieldMismatch("matrix entry from a different field")

    @classmethod
    def _derived(cls, field: Field, data: list[list[Element]], ncols: int) -> "Mat":
        """A matrix whose entries are known to be Elements of field."""
        out = cls.__new__(cls)
        out.field = field
        out.data = data
        out.nrows = len(data)
        out.ncols = ncols
        return out

    @classmethod
    def _from_ints(cls, field: Field, rows: list[list[int]], ncols: int) -> "Mat":
        return cls._derived(field, [[Element(field, v) for v in row] for row in rows], ncols)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Mat":
        z = field.zero
        return cls._derived(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        out = cls.zeros(field, n, n)
        for i in range(n):
            out.data[i][i] = field.one
        return out

    @classmethod
    def from_packed(cls, field: Field, grid) -> "Mat":
        """Rows of packed integer values; convenient in tests and fixtures."""
        return cls(field, [[field.el(v) for v in row] for row in grid],
                   len(grid[0]) if grid else 0)

    # -- basic ops ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.data == other.data)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.field,
                   [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
                   self.ncols)

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        if other.field != self.field:
            raise FieldMismatch(f"matrices over {self.field} and {other.field}")
        fld, ot = self.field, other.to_packed()
        return Mat._from_ints(fld, [_vecmat(fld, [0] * other.ncols, [a.val for a in row], ot)
                                    for row in self.data], other.ncols)

    def transpose(self) -> "Mat":
        if self.nrows == 0:
            # keep the column count as the new row count
            return Mat._derived(self.field, [[] for _ in range(self.ncols)], 0)
        return Mat._derived(self.field, [list(col) for col in zip(*self.data)], self.nrows)

    def take_rows(self, idx) -> "Mat":
        return Mat._derived(self.field, [list(self.data[i]) for i in idx], self.ncols)

    def take_cols(self, idx) -> "Mat":
        idx = list(idx)
        return Mat._derived(self.field, [[row[j] for j in idx] for row in self.data], len(idx))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.data for e in row)

    def to_packed(self):
        return [[e.val for e in row] for row in self.data]

    def __repr__(self):
        return f"Mat({self.field!r}, {self.nrows}x{self.ncols})"

    def _same_shape(self, other: "Mat"):
        if not isinstance(other, Mat):
            raise TypeError("expected Mat")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")


# ---------------------------------------------------------------------------
# elimination on packed ints
# ---------------------------------------------------------------------------

def _reduce(fld: Field, x: list[int], basis: dict):
    """Reduce the packed vector x in place against basis; return the
    (pivot, value) of its first nonzero entry left, or None if x is in
    the span.

    basis maps each pivot to the span of its vector, whose entries are 0
    before the pivot and 1 at it: the nonzero (index, value) entries after
    the pivot.  One left-to-right pass clears the pivots, since a vector
    only changes entries right of its own pivot.  When x is independent, x
    scaled to 1 at its new pivot joins the basis; the vector is then zero
    at every pivot inserted before it.
    """
    mul, sub = fld._vmul, fld._vsub
    new = None
    for i, f in enumerate(x):
        if f:
            span = basis.get(i)
            if span is not None:
                x[i] = 0
                for j, b in span:
                    x[j] = sub(x[j], mul(f, b))
            elif new is None:
                new = i
    if new is None:
        return None
    v = x[new]
    inv = fld._vinv(v)
    basis[new] = [(j, mul(inv, x[j])) for j in range(new + 1, len(x)) if x[j]]
    return new, v


def _independent(fld: Field, x: list[int], basis: dict, extend: bool) -> bool:
    """Whether the packed vector x is outside the span of basis, decided
    with no inverse; x is reduced in place.

    basis maps each pivot p to (v, span): its vector is 0 before p and
    v != 0 at it, span the nonzero (index, value) entries after p.  x is
    cleared at p as x <- v*x - x_p*b, which scales every entry of x, the
    non-pivot ones left of p too, so that x stays a nonzero multiple of
    what it was plus a vector of the span.  A nonzero entry at no pivot is never
    touched again but by such scalings, so x is independent as soon as one
    is seen; when extend holds, x is reduced to the end and joins basis
    unscaled at its first one.
    """
    mul, sub = fld._vmul, fld._vsub
    new = None
    for i, f in enumerate(x):
        if f:
            hit = basis.get(i)
            if hit is not None:
                v, span = hit
                x[i] = 0
                x[:] = [mul(v, e) if e else 0 for e in x]
                for j, b in span:
                    x[j] = sub(x[j], mul(f, b))
            elif not extend:
                return True
            elif new is None:
                new = i
    if new is None:
        return False
    basis[new] = (x[new], [(j, x[j]) for j in range(new + 1, len(x)) if x[j]])
    return True


def _vecmat(fld: Field, acc: list[int], x, rows) -> list[int]:
    """acc + x * rows for the packed row vector x and the packed matrix
    rows, reading only the nonzero entries of x and of each row."""
    add, mul = fld._vadd, fld._vmul
    for a, row in zip(x, rows):
        if a:
            acc = [add(s, mul(a, b)) if b else s for s, b in zip(acc, row)]
    return acc


def _rref(fld: Field, rows: list[list[int]], ncols: int) -> dict:
    """The reduced row echelon form of the row space as {pivot: span},
    each vector zero at every other pivot; rows are reduced in place."""
    basis: dict = {}
    for row in rows:
        _reduce(fld, row, basis)
    # back substitution: the last vector is reduced already, and each one
    # before it only against those inserted after it
    done: dict = {}
    for p, span in reversed(basis.items()):
        x = [0] * ncols
        x[p] = 1
        for j, v in span:
            x[j] = v
        _reduce(fld, x, done)
    return done


def _det(fld: Field, rows: list[list[int]]) -> Element:
    """Each row reduced against the ones before it is zero at their pivots,
    so the reduced rows, with columns permuted to their pivots, form a
    triangular matrix of the same determinant up to the permutation's sign."""
    basis: dict = {}
    acc = 1
    pivots = []
    for row in rows:
        hit = _reduce(fld, row, basis)
        if hit is None:
            return fld.zero
        pivots.append(hit[0])
        acc = fld._vmul(acc, hit[1])
    odd = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:]) % 2
    return Element(fld, fld._vneg(acc) if odd else acc)


def rank(a: Mat) -> int:
    """The number of rows that are independent of the rows before them,
    found with no inverse (``_independent``)."""
    basis: dict = {}
    for row in a.to_packed():
        _independent(a.field, row, basis, True)
    return len(basis)


def det(a: Mat) -> Element:
    if a.nrows != a.ncols:
        raise DimensionMismatch("determinant of a non-square matrix")
    return _det(a.field, a.to_packed())


def minor(a: Mat, rows, cols) -> Element:
    """Determinant of the submatrix at the given 0-based row/column indices."""
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols):
        raise DimensionMismatch("minor needs equally many rows and columns")
    for name, idx, n in (("row", rows, a.nrows), ("column", cols, a.ncols)):
        if any(not (0 <= i < n) for i in idx):
            raise IndexOutOfRange(f"{name} index out of range")
        if any(x >= y for x, y in zip(idx, idx[1:])):
            raise IndexOutOfRange(f"{name} indices must be strictly increasing")
    data = a.data
    return _det(a.field, [[data[i][j].val for j in cols] for i in rows])


# ---------------------------------------------------------------------------
# solving X * A = B
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    """Outcome of solve_right.

    status:   "unique" | "underdetermined" | "inconsistent"
    solution: a particular X with X*A = B (None when inconsistent)
    kernel:   rows spanning {w : w*A = 0}; zero rows exactly when unique
    """

    status: str
    solution: Mat | None
    kernel: Mat | None

    @property
    def is_unique(self) -> bool:
        return self.status == "unique"


def solve_right(a: Mat, b: Mat) -> SolveResult:
    """Solve X * A = B exactly.  A is r x c, B is t x c, X is t x r."""
    if a.field != b.field:
        raise FieldMismatch("A and B over different fields")
    if a.ncols != b.ncols:
        raise DimensionMismatch(
            f"A has {a.ncols} columns but B has {b.ncols}")
    # work on [A^T | B^T], one row per column of A
    lhs = a.data + b.data
    fld, r = a.field, a.nrows
    res = _solve_packed(fld, [[row[j].val for row in lhs] for j in range(a.ncols)], r, b.nrows)
    if res is None:
        return SolveResult("inconsistent", None, None)
    sol, ker = res
    return SolveResult("underdetermined" if ker else "unique",
                       Mat._from_ints(fld, sol, r), Mat._from_ints(fld, ker, r))


def _solve_packed(fld: Field, work: list[list[int]], r: int, t: int):
    """X * A = B from [A^T | B^T] packed, r + t columns; reduces work in
    place.  None when inconsistent, else (X, K) as packed rows: the t rows
    of a particular solution, whose free variables are 0, and a basis of
    {w : w*A = 0}, one row per free variable, empty exactly when X is
    unique.  With t = 0, work is a matrix's rows and K its right kernel.
    This is the one reader of an _rref basis: one pass over its spans
    fills X from the right-hand side columns and K from the others."""
    basis = _rref(fld, work, r + t)
    if any(p >= r for p in basis):
        return None
    sol = [[0] * r for _ in range(t)]
    ker = {f: [0] * r for f in range(r) if f not in basis}
    for f, row in ker.items():
        row[f] = 1
    neg = fld._vneg
    for p, span in basis.items():
        for j, v in span:
            if j < r:
                ker[j][p] = neg(v)
            else:
                sol[j - r][p] = v
    return sol, list(ker.values())


def right_kernel(a: Mat) -> Mat:
    """Rows w with A * w^T = 0 (a basis of the right null space)."""
    return Mat._from_ints(a.field, _solve_packed(a.field, a.to_packed(), a.ncols, 0)[1],
                          a.ncols)
