"""Sliding-window matrices and the index sets whose minors decide optimality.

A column set is a plain strictly increasing tuple of 1-based indices,
matching the inequality arithmetic the index-set criteria are stated in; it
is converted to 0-based only at the matrix-slicing boundary.  A set carries
no layout tag: every function that reads one takes the kind as its leading
argument.  Puncturing a matrix is ``Mat.take_cols`` with the kept 0-based
columns.

Four block layouts are built from a k x n generator G of degree mu or an
(n-k) x n parity check H of degree nu.  Each is one entry of _LAYOUTS, the
one source both for the builders and for the non-trivial column sets: its
block-row and block-column counts at band length d and depth j, and the
coefficient index of block (r, c), or None for a structural zero block.

  generator_truncation(G, j)   (j+1)k     x (j+1)n      upper block triangular
  parity_truncation(H, j)      (j+1)(n-k) x (j+1)n      lower block triangular
  parity_band(H, j)            (j+1)(n-k) x (j+1+nu)n   rows slide [H_nu .. H_0]
  generator_band(G, j)         (j+1+mu)k  x (j+1)n      columns stack [G_mu .. G_0]

Each builder assembles a new matrix on every call; nothing is cached.  The
verifiers in distance.py build one per check, and decoding builds none.

A full-size minor of one of these matrices is "trivially zero" when no
matching pairs every row with a chosen column through a nonzero block, so
it vanishes regardless of the coefficient values.  Each block row meets one
run of block columns, and the runs move right with the row, so a column set
l_1 < ... < l_size is non-trivial exactly when every l_i lies in the block
columns that row i's block row meets.  These per-position interval bounds
also make counting and lexicographic enumeration cheap.  The kind names the
layout; "generator" sets at delay j belong to the depth mu+j band
generator_band(G, mu+j), and the truncation sets are those of the generic
triangle, read at d = j where no band edge falls inside the window.  After
the bounds implied by strict increase, the table yields:

  "generator_truncation"  l_{sk+1} >= sn+1                             s = 1..j
  "parity_truncation"     l_{s(n-k)} <= sn                             s = 1..j
  "parity"                l_{s(n-k)+1} >= sn+1, l_{s(n-k)} <= (s+nu)n  s = 1..j
  "generator"             l_{sk} <= sn, l_{(mu+s)k+1} >= sn+1          s = 1..j+mu

The truncation sets decide column optimality (Gluesing-Luerssen, Rosenthal
and Smarandache, IEEE Trans. IT 52(2), 2006), the band sets complete j-MDP
(Tomas, Rosenthal and Smarandache, IEEE Trans. IT 58(1), 2012).

The sets are enumerated in lexicographic order, each handed out with the
first position that changed since the set before it, so a walk over them
can keep whatever it computed for the unchanged prefix.  The same walk
runs over the sets' complements in the matrix's columns, which is what
the minor checks reduce when a kernel basis is narrower than the matrix:
position bounds on a set S turn into bounds on its complement T by
counting, #T<=x = x - #S<=x, and the complements come in reverse
lexicographic order, the order the sets' lexicographic order induces (the
least column in S xor S' lies in the lexicographically smaller set).
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from . import budget as _budget
from .errors import BadCardinality, BudgetExceeded, IndexOutOfRange
from .linalg import Mat
from .polymat import PolyMatrix

ENUM_BUDGET_DEFAULT = 10_000_000


# ---------------------------------------------------------------------------
# block layouts
# ---------------------------------------------------------------------------

class _Layout(NamedTuple):
    """One block layout at band length d and depth j."""
    parity: bool  # block rows are the n-k rows of H, else the k rows of G
    shape: Callable[[int, int], tuple[int, int]]  # (d, j) -> block rows, block columns
    index: Callable[[int, int, int], int]  # (d, r, c) -> power of z in block (r, c)
    sets: Callable[[int, int], tuple[int, int]]  # (deg, j) -> (d, j) the sets are read at

    def at(self, d: int, r: int, c: int) -> int | None:
        """Coefficient index of block (r, c), or None for a structural zero."""
        i = self.index(d, r, c)
        return i if 0 <= i <= d else None


_LAYOUTS = {
    "generator_truncation": _Layout(False, lambda d, j: (j + 1, j + 1),
                                    lambda d, r, c: c - r, lambda deg, j: (j, j)),
    "parity_truncation": _Layout(True, lambda d, j: (j + 1, j + 1),
                                 lambda d, r, c: r - c, lambda deg, j: (j, j)),
    "parity": _Layout(True, lambda d, j: (j + 1, j + 1 + d),
                      lambda d, r, c: d + r - c, lambda deg, j: (deg, j)),
    "generator": _Layout(False, lambda d, j: (j + 1 + d, j + 1),
                         lambda d, r, c: d + c - r, lambda deg, j: (deg, deg + j)),
}


def _build(kind: str, pm: PolyMatrix, j: int) -> Mat:
    """The kind's layout of pm's coefficients at depth j."""
    if j < 0:
        raise ValueError("depth must be >= 0")
    lay = _LAYOUTS[kind]
    d = pm.degree
    block_rows, block_cols = lay.shape(d, j)
    bc = pm.ncols
    zero = pm.field.zero
    data = []
    for r in range(block_rows):
        rows = [[zero] * (block_cols * bc) for _ in range(pm.nrows)]
        for c in range(block_cols):
            i = lay.at(d, r, c)
            if i is not None:
                for dst, src in zip(rows, pm.coeff(i).data):
                    dst[c * bc:(c + 1) * bc] = src
        data.extend(rows)
    return Mat._derived(pm.field, data, block_cols * bc)


def generator_truncation(g: PolyMatrix, j: int) -> Mat:
    """(j+1)k x (j+1)n matrix taking (u_0..u_j) to (v_0..v_j)."""
    return _build("generator_truncation", g, j)


def parity_truncation(h: PolyMatrix, j: int) -> Mat:
    """(j+1)(n-k) x (j+1)n lower block triangular parity window."""
    return _build("parity_truncation", h, j)


def parity_band(h: PolyMatrix, j: int) -> Mat:
    """(j+1)(n-k) x (j+1+nu)n band; block row i is [H_nu ... H_0] at offset i."""
    return _build("parity", h, j)


def generator_band(g: PolyMatrix, j: int) -> Mat:
    """(j+1+mu)k x (j+1)n band; block column c is [G_mu ... G_0] at offset c.

    Row block r corresponds to the message coefficient u_{t-mu+r} when the
    window covers codeword blocks v_t .. v_{t+j}.
    """
    return _build("generator", g, j)


# ---------------------------------------------------------------------------
# bounded increasing index tuples (the enumeration backbone)
# ---------------------------------------------------------------------------

def tighten_bounds(size: int, ncols: int, lo: dict[int, int], hi: dict[int, int]):
    """Per-position inclusive bounds for strictly increasing 1-based tuples."""
    lo_arr = [0] * (size + 1)
    hi_arr = [0] * (size + 2)
    prev = 0
    for pos in range(1, size + 1):
        prev = max(prev + 1, lo.get(pos, 1))
        lo_arr[pos] = prev
    nxt = ncols + 1
    hi_arr[size + 1] = ncols + 1
    for pos in range(size, 0, -1):
        nxt = min(nxt - 1, hi.get(pos, ncols))
        hi_arr[pos] = nxt
    return lo_arr, hi_arr


def count_bounded(size: int, ncols: int, lo: dict[int, int], hi: dict[int, int]) -> int:
    """Number of strictly increasing tuples obeying the position bounds."""
    if size == 0:
        return 1
    lo_arr, hi_arr = tighten_bounds(size, ncols, lo, hi)
    if any(lo_arr[p] > hi_arr[p] for p in range(1, size + 1)):
        return 0
    # ways[v] = completions of positions pos..size given l_pos = v; entries
    # outside the position's bounds stay zero, so suffix sums need no clipping
    ways = [0] * (ncols + 2)
    for v in range(lo_arr[size], hi_arr[size] + 1):
        ways[v] = 1
    for pos in range(size - 1, 0, -1):
        new = [0] * (ncols + 2)
        run = 0
        for v in range(ncols, 0, -1):
            run += ways[v + 1]
            if lo_arr[pos] <= v <= hi_arr[pos]:
                new[v] = run
        ways = new
    return sum(ways)


def _complement_bounds(size: int, ncols: int, lo_arr: list[int], hi_arr: list[int]):
    """Bounds on the sorted complements in 1..ncols of the tuples obeying the
    feasible tightened bounds lo_arr, hi_arr, by counting: #T<=x = x - #S<=x.
    l_i <= hi_i puts at most hi_i - i complement members in 1..hi_i, and
    l_i >= lo_i at least lo_i - i in 1..lo_i - 1."""
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for i in range(1, size + 1):
        m = hi_arr[i] - i + 1
        if m <= ncols - size:
            lo[m] = max(lo.get(m, 1), hi_arr[i] + 1)
        m = lo_arr[i] - i
        if m >= 1:
            hi[m] = min(hi.get(m, ncols), lo_arr[i] - 1)
    return tighten_bounds(ncols - size, ncols, lo, hi)


def walk_bounded(size: int, ncols: int, lo: dict[int, int], hi: dict[int, int],
                 complement: bool = False) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(p, l) for each strictly increasing bounded tuple in lexicographic
    order, p being the first 0-based position where l differs from the tuple
    before it (0 for the first).

    With complement, l is instead the tuple's sorted complement in
    1..ncols, in the same order: the complements obey bounds of their own
    and are walked directly, in reverse lexicographic order.
    """
    lo_arr, hi_arr = tighten_bounds(size, ncols, lo, hi)
    if any(lo_arr[p] > hi_arr[p] for p in range(1, size + 1)):
        return
    if complement:
        lo_arr, hi_arr = _complement_bounds(size, ncols, lo_arr, hi_arr)
        size = ncols - size
    if size == 0:
        yield 0, ()
        return
    step = -1 if complement else 1
    # acc[pos] holds l_pos, or the value before the next one to try; acc[0]
    # stands before position 1.  low is the first position assigned since
    # the last tuple, the first that changed.
    acc = [0] * (size + 1)
    acc[1] = hi_arr[1] + 1 if complement else lo_arr[1] - 1
    pos = low = 1
    while pos:
        v = acc[pos] + step
        if not (lo_arr[pos] <= v <= hi_arr[pos] and v > acc[pos - 1]):
            pos -= 1  # position exhausted: advance the one before it
            continue
        acc[pos] = v
        if pos < low:
            low = pos
        if pos == size:
            yield low - 1, tuple(acc[1:])
            low = size
        else:
            pos += 1
            acc[pos] = hi_arr[pos] + 1 if complement else max(v, lo_arr[pos] - 1)


def enumerate_bounded(size: int, ncols: int, lo: dict[int, int],
                      hi: dict[int, int]) -> Iterator[tuple[int, ...]]:
    """Strictly increasing bounded tuples in lexicographic order."""
    return (l for _, l in walk_bounded(size, ncols, lo, hi))


# ---------------------------------------------------------------------------
# non-trivial column sets of the four layouts
# ---------------------------------------------------------------------------

def _bounds_for(kind: str, n: int, k: int, deg: int, j: int):
    """Size, column count and per-position bounds of the kind's non-trivial
    sets: l_i lies in the block columns that row i's block row meets."""
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    if deg < 0:
        raise ValueError("deg must be >= 0")
    if j < 0:
        raise ValueError("j must be >= 0")
    lay = _LAYOUTS.get(kind)
    if lay is None:
        raise ValueError(f"unknown index set kind {kind!r}")
    d, depth = lay.sets(deg, j)
    block_rows, block_cols = lay.shape(d, depth)
    height = n - k if lay.parity else k
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for r in range(block_rows):
        met = [c for c in range(block_cols) if lay.at(d, r, c) is not None]
        for pos in range(r * height + 1, (r + 1) * height + 1):
            lo[pos] = met[0] * n + 1
            hi[pos] = (met[-1] + 1) * n
    return block_rows * height, block_cols * n, lo, hi


def _check_members(indices, size: int, ncols: int, kind: str):
    if any(indices[i] >= indices[i + 1] for i in range(len(indices) - 1)):
        raise IndexOutOfRange("indices must be strictly increasing")
    if len(indices) != size:
        raise BadCardinality(f"{kind} set needs {size} indices, got {len(indices)}")
    if indices and (indices[0] < 1 or indices[-1] > ncols):
        raise IndexOutOfRange(f"indices must lie in 1..{ncols}")


def is_nontrivial_set(kind: str, indices: tuple[int, ...], n: int, k: int,
                      deg: int, j: int) -> bool:
    size, ncols, lo, hi = _bounds_for(kind, n, k, deg, j)
    _check_members(indices, size, ncols, kind)
    ok_lo = all(indices[pos - 1] >= v for pos, v in lo.items())
    return ok_lo and all(indices[pos - 1] <= v for pos, v in hi.items())


def count_nontrivial(kind: str, n: int, k: int, deg: int, j: int) -> int:
    size, ncols, lo, hi = _bounds_for(kind, n, k, deg, j)
    return count_bounded(size, ncols, lo, hi)


def nontrivial_bounds(kind: str, n: int, k: int, deg: int, j: int,
                      budget: int | None = None):
    """Size, column count and per-position bounds of the kind's non-trivial
    sets, as _bounds_for gives them, once their count is within the budget
    (argument, then CONVEC_BUDGET, then the module default)."""
    bounds = _bounds_for(kind, n, k, deg, j)
    total = count_bounded(*bounds)
    cap = _budget.resolve(budget, ENUM_BUDGET_DEFAULT)
    if total > cap:
        raise BudgetExceeded(
            f"{total} {kind} sets exceed the budget of {cap}", estimate=total)
    return bounds


def enumerate_nontrivial(kind: str, n: int, k: int, deg: int, j: int,
                         budget: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-trivial column sets in lexicographic order.

    The count is computed up front; if it exceeds the budget
    (``nontrivial_bounds``) nothing is enumerated.
    """
    return enumerate_bounded(*nontrivial_bounds(kind, n, k, deg, j, budget))
