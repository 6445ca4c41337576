"""Dense exact linear algebra over a finite field.

Matrices are lists of rows of field Elements.  Everything is exact; there is
no pivoting strategy beyond "first nonzero", which is all a field needs.

Elimination runs on packed ints: rank, det, minor, solve_right and
right_kernel unpack the entries once into ``list[list[int]]``, eliminate
through the field's bound kernels (``_vmul``, ``_vsub``, ``_vinv``; exp/log
tables for extension fields up to 2^8 elements) and pack the result back
once.  A row update starts at the pivot column, reads only the pivot row's
nonzero entries and skips rows whose multiplier is zero.  Products and
scalings work on packed values the same way.  ``_reduce_column`` is the
column-wise counterpart that the minor checks extend one column at a time.

``Mat(...)`` checks that every entry is an Element of its field.  Matrices
that this module derives from already-checked ones (slices, transposes,
products, scalings and solver results) skip that check.

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

    @classmethod
    def row_vector(cls, field: Field, entries) -> "Mat":
        return cls(field, [list(entries)])

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

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.field,
                   [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
                   self.ncols)

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        if other.field != self.field:
            raise FieldMismatch(f"matrices over {self.field} and {other.field}")
        fld = self.field
        add, mul = fld._vadd, fld._vmul
        ot = other.to_packed()
        out = []
        for row in self.data:
            acc = [0] * other.ncols
            for j, a in enumerate(row):
                x = a.val
                if x:
                    acc = [add(s, mul(x, b)) if b else s for s, b in zip(acc, ot[j])]
            out.append(acc)
        return Mat._from_ints(fld, out, other.ncols)

    def scale(self, c: Element) -> "Mat":
        x = self.field.one._peer(c)
        mul = self.field._vmul
        return Mat._from_ints(self.field, [[mul(x, e.val) for e in row] for row in self.data],
                              self.ncols)

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

def _echelon(fld: Field, rows: list[list[int]], ncols: int):
    """In-place forward elimination to row echelon form.

    Pivot rows keep their leading entry; the rows below are cleared with
    multiples of it, over the pivot row's nonzero entries only.  Returns
    (row, col, inverse) triples, where inverse is that of the pivot entry,
    or None when no row below needed clearing, and whether the row swaps
    form an odd permutation.
    """
    mul, sub, vinv = fld._vmul, fld._vsub, fld._vinv
    pivots = []
    odd = False
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[pr], rows[r] = rows[r], rows[pr]
            odd = not odd
        prow = rows[r]
        inv = span = None
        for i in range(r + 1, nrows):
            row = rows[i]
            if row[c]:
                if inv is None:
                    inv = vinv(prow[c])
                    span = [(j, prow[j]) for j in range(c + 1, ncols) if prow[j]]
                f = mul(row[c], inv)
                row[c] = 0
                for j, b in span:
                    row[j] = sub(row[j], mul(f, b))
        pivots.append((r, c, inv))
        r += 1
    return pivots, odd


def _reduce_column(fld: Field, col, pivots: list, extend: bool) -> bool:
    """Whether a packed column lies outside the span of the reduced columns
    in pivots.

    Each pivot is (row, span): a column scaled to 1 at its pivot row and
    zero at the pivot rows before it, with span its other nonzero
    (row, value) entries.  col is reduced in pivot order, so every pivot row
    ends up zero in it.  When extend holds and col is independent, its
    reduced copy is scaled by one inverse and appended to pivots.
    """
    mul, sub = fld._vmul, fld._vsub
    x = list(col)
    for p, span in pivots:
        f = x[p]
        if f:
            x[p] = 0
            for r, b in span:
                x[r] = sub(x[r], mul(f, b))
    p = next((r for r, v in enumerate(x) if v), None)
    if p is None:
        return False
    if extend:
        inv = fld._vinv(x[p])
        pivots.append((p, [(r, mul(inv, x[r])) for r in range(p + 1, len(x)) if x[r]]))
    return True


def _rref(fld: Field, rows: list[list[int]], ncols: int) -> list[tuple[int, int]]:
    """In-place reduced row echelon form; returns (row, col) pivot pairs."""
    mul, sub, vinv = fld._vmul, fld._vsub, fld._vinv
    pivots, _ = _echelon(fld, rows, ncols)
    for r, c, inv in reversed(pivots):
        prow = rows[r]
        if inv is None:
            inv = vinv(prow[c])
        prow[c] = 1
        span = []
        for j in range(c + 1, ncols):
            if prow[j]:
                prow[j] = mul(inv, prow[j])
                span.append((j, prow[j]))
        for i in range(r):
            row = rows[i]
            f = row[c]
            if f:
                row[c] = 0
                for j, b in span:
                    row[j] = sub(row[j], mul(f, b))
    return [(r, c) for r, c, _ in pivots]


def _det(fld: Field, rows: list[list[int]]) -> Element:
    pivots, odd = _echelon(fld, rows, len(rows))
    if len(pivots) < len(rows):
        return fld.zero
    acc = 1
    for r, c, _ in pivots:
        acc = fld._vmul(acc, rows[r][c])
    return Element(fld, fld._vneg(acc) if odd else acc)


def rank(a: Mat) -> int:
    return len(_echelon(a.field, a.to_packed(), a.ncols)[0])


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
    fld = a.field
    r, t = a.nrows, b.nrows
    # work on [A^T | B^T], shape c x (r + t)
    lhs = a.data + b.data
    work = [[row[j].val for row in lhs] for j in range(a.ncols)]
    pivots = _rref(fld, work, r + t)
    for rr, c in pivots:
        if c >= r:
            return SolveResult("inconsistent", None, None)
    # particular solution: pivot variables take the reduced rhs, free ones 0
    sol = [[0] * r for _ in range(t)]
    for rr, c in pivots:
        for ti in range(t):
            sol[ti][c] = work[rr][r + ti]
    solution = Mat._from_ints(fld, sol, r)
    kernel = _kernel_rows(fld, work, pivots, r)
    status = "unique" if not kernel.nrows else "underdetermined"
    return SolveResult(status, solution, kernel)


def _kernel_rows(fld: Field, work, pivots, width: int) -> Mat:
    """Null-space basis of a reduced matrix over its first width columns:
    one row per free column, pivot entries read off the reduced rows."""
    piv_cols = {c for _, c in pivots}
    rows = []
    for fv in range(width):
        if fv in piv_cols:
            continue
        vec = [0] * width
        vec[fv] = 1
        for rr, c in pivots:
            vec[c] = fld._vneg(work[rr][fv])
        rows.append(vec)
    return Mat._from_ints(fld, rows, width)


def right_kernel(a: Mat) -> Mat:
    """Rows w with A * w^T = 0 (a basis of the right null space)."""
    work = a.to_packed()
    return _kernel_rows(a.field, work, _rref(a.field, work, a.ncols), a.ncols)
