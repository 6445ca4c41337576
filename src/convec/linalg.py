"""Dense exact linear algebra over a finite field.

Matrices are lists of rows of field Elements.  Everything is exact; there is
no pivoting strategy beyond "first nonzero", which is all a field needs.

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
                if not isinstance(e, Element) or e.field != field:
                    raise FieldMismatch("matrix entry from a different field")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Mat":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

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
        zero = self.field.zero
        ot = other.data
        out = []
        for row in self.data:
            acc = [zero] * other.ncols
            for j, a in enumerate(row):
                if a.is_zero:
                    continue
                orow = ot[j]
                acc = [s + a * b for s, b in zip(acc, orow)]
            out.append(acc)
        return Mat(self.field, out, other.ncols)

    def scale(self, c: Element) -> "Mat":
        return Mat(self.field, [[c * a for a in row] for row in self.data], self.ncols)

    def transpose(self) -> "Mat":
        if self.nrows == 0:
            # keep the column count as the new row count
            return Mat(self.field, [[] for _ in range(self.ncols)], 0)
        return Mat(self.field, [list(col) for col in zip(*self.data)], self.nrows)

    def take_rows(self, idx) -> "Mat":
        return Mat(self.field, [list(self.data[i]) for i in idx], self.ncols)

    def take_cols(self, idx) -> "Mat":
        return Mat(self.field, [[row[j] for j in idx] for row in self.data], len(list(idx)))

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
# elimination
# ---------------------------------------------------------------------------

def _echelon(data: list[list[Element]], ncols: int):
    """In-place forward elimination to row echelon form.

    Pivot rows keep their leading entry; the rows below are cleared with
    multiples of it.  Returns (row, col, inverse) triples, where inverse is
    that of the pivot entry, or None when no row below needed clearing, and
    whether the row swaps form an odd permutation.
    """
    pivots = []
    odd = False
    r = 0
    nrows = len(data)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not data[i][c].is_zero:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            data[pr], data[r] = data[r], data[pr]
            odd = not odd
        inv = None
        for i in range(r + 1, nrows):
            if not data[i][c].is_zero:
                if inv is None:
                    inv = data[r][c].inverse()
                f = data[i][c] * inv
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        pivots.append((r, c, inv))
        r += 1
        if r == nrows:
            break
    return pivots, odd


def _rref(data: list[list[Element]], ncols: int) -> list[tuple[int, int]]:
    """In-place reduced row echelon form; returns (row, col) pivot pairs."""
    pivots, _ = _echelon(data, ncols)
    for r, c, inv in reversed(pivots):
        if inv is None:
            inv = data[r][c].inverse()
        data[r] = [inv * e for e in data[r]]
        for i in range(r):
            if not data[i][c].is_zero:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
    return [(r, c) for r, c, _ in pivots]


def rank(a: Mat) -> int:
    work = [list(row) for row in a.data]
    return len(_echelon(work, a.ncols)[0])


def det(a: Mat) -> Element:
    if a.nrows != a.ncols:
        raise DimensionMismatch("determinant of a non-square matrix")
    work = [list(row) for row in a.data]
    pivots, odd = _echelon(work, a.ncols)
    if len(pivots) < a.nrows:
        return a.field.zero
    acc = a.field.one
    for r, c, _ in pivots:
        acc = acc * work[r][c]
    return -acc if odd else acc


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
    sub = Mat(a.field, [[a.data[i][j] for j in cols] for i in rows], len(cols))
    return det(sub)


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
    at = a.transpose()
    bt = b.transpose()
    work = [list(ra) + list(rb) for ra, rb in zip(at.data, bt.data)]
    pivots = _rref(work, r + t)
    for rr, c in pivots:
        if c >= r:
            return SolveResult("inconsistent", None, None)
    # particular solution: pivot variables take the reduced rhs, free ones 0
    zero = fld.zero
    sol_cols = [[zero] * t for _ in range(r)]  # indexed [var][rhs]
    for rr, c in pivots:
        for ti in range(t):
            sol_cols[c][ti] = work[rr][r + ti]
    solution = Mat(fld, [[sol_cols[v][ti] for v in range(r)] for ti in range(t)], r)
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
        vec = [fld.zero] * width
        vec[fv] = fld.one
        for rr, c in pivots:
            vec[c] = -work[rr][fv]
        rows.append(vec)
    return Mat(fld, rows, width)


def right_kernel(a: Mat) -> Mat:
    """Rows w with A * w^T = 0 (a basis of the right null space)."""
    work = [list(row) for row in a.data]
    return _kernel_rows(a.field, work, _rref(work, a.ncols), a.ncols)
