"""Sliding-window matrices and the index sets whose minors decide optimality.

A column set is a plain strictly increasing tuple of 1-based indices,
matching the inequality arithmetic the index-set criteria are stated in; it
is converted to 0-based only at the matrix-slicing boundary.  A set carries
no layout tag: every function that reads one takes the kind as its leading
argument.  Puncturing a matrix is ``Mat.take_cols`` with the kept 0-based
columns.

Four block layouts are built from a k x n generator G of degree mu or an
(n-k) x n parity check H of degree nu:

  generator_truncation(G, j)   (j+1)k     x (j+1)n      upper block triangular
  parity_truncation(H, j)      (j+1)(n-k) x (j+1)n      lower block triangular
  parity_band(H, j)            (j+1)(n-k) x (j+1+nu)n   rows slide [H_nu .. H_0]
  generator_band(G, j)         (j+1+mu)k  x (j+1)n      columns stack [G_mu .. G_0]

A full-size minor of one of these matrices is "trivially zero" when its
column set forces a short row set against the layout's zero pattern
regardless of the coefficient values.  The complementary (non-trivial)
column sets l_1 < ... < l_size obey per-position interval bounds, which is
also what makes counting and lexicographic enumeration cheap.  The kind
names the layout; "generator" sets at delay j belong to the depth mu+j band
generator_band(G, mu+j):

  "generator_truncation"  l_{sk+1} >= sn+1                             s = 1..j
  "parity_truncation"     l_{s(n-k)} <= sn                             s = 1..j
  "parity"                l_{s(n-k)+1} >= sn+1, l_{s(n-k)} <= (s+nu)n  s = 1..j
  "generator"             l_{sk} <= sn, l_{(mu+s)k+1} >= sn+1          s = 1..j+mu

The truncation sets decide column optimality (Gluesing-Luerssen, Rosenthal
and Smarandache, IEEE Trans. IT 52(2), 2006), the band sets complete j-MDP
(Tomas, Rosenthal and Smarandache, IEEE Trans. IT 58(1), 2012).
"""

from __future__ import annotations

from typing import Iterator

from . import budget as _budget
from .errors import BadCardinality, BudgetExceeded, IndexOutOfRange
from .linalg import Mat
from .polymat import PolyMatrix

ENUM_BUDGET_DEFAULT = 10_000_000


# ---------------------------------------------------------------------------
# block layouts
# ---------------------------------------------------------------------------

def _block_grid(pm: PolyMatrix, block_rows: int, block_cols: int, coeff_at) -> Mat:
    """Assemble a block matrix; coeff_at(r, c) names the coefficient index or None."""
    fld = pm.field
    br, bc = pm.nrows, pm.ncols
    zero = fld.zero
    data = []
    for r in range(block_rows):
        rows = [[zero] * (block_cols * bc) for _ in range(br)]
        for c in range(block_cols):
            i = coeff_at(r, c)
            if i is None:
                continue
            blk = pm.coeff(i)
            if blk.is_zero:
                continue
            off = c * bc
            for ii in range(br):
                src = blk.data[ii]
                dst = rows[ii]
                for jj in range(bc):
                    dst[off + jj] = src[jj]
        data.extend(rows)
    return Mat(fld, data, block_cols * bc)


def generator_truncation(g: PolyMatrix, j: int) -> Mat:
    """(j+1)k x (j+1)n matrix taking (u_0..u_j) to (v_0..v_j)."""
    mu = g.degree
    return _block_grid(g, j + 1, j + 1,
                       lambda r, c: c - r if 0 <= c - r <= mu else None)


def parity_truncation(h: PolyMatrix, j: int) -> Mat:
    """(j+1)(n-k) x (j+1)n lower block triangular parity window."""
    nu = h.degree
    return _block_grid(h, j + 1, j + 1,
                       lambda r, c: r - c if 0 <= r - c <= nu else None)


def _memo_band(pm: PolyMatrix, key: tuple[str, int], keep: bool, build) -> Mat:
    band = pm._bands.get(key)
    if band is None:
        band = build()
        if keep:
            pm._bands[key] = band
    return band


def parity_band(h: PolyMatrix, j: int) -> Mat:
    """(j+1)(n-k) x (j+1+nu)n band; block row i is [H_nu ... H_0] at offset i.

    Built once per (h, j) and shared by every later call: callers read it
    and must not modify it.
    """
    nu = h.degree
    return _memo_band(h, ("parity", j), True, lambda: _block_grid(
        h, j + 1, j + 1 + nu, lambda r, c: nu - (c - r) if 0 <= c - r <= nu else None))


def generator_band(g: PolyMatrix, j: int, keep: bool = True) -> Mat:
    """(j+1+mu)k x (j+1)n band; block column c is [G_mu ... G_0] at offset c.

    Row block r corresponds to the message coefficient u_{t-mu+r} when the
    window covers codeword blocks v_t .. v_{t+j}.  Built once per (g, j)
    and shared by every later call: callers read it and must not modify it.
    keep=False builds a band that is not retained, for a one-off depth
    such as a whole-stream system, so the retained bands stay the bounded
    window depths.
    """
    mu = g.degree
    return _memo_band(g, ("generator", j), keep, lambda: _block_grid(
        g, j + 1 + mu, j + 1, lambda r, c: mu - (r - c) if 0 <= r - c <= mu else None))


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


def enumerate_bounded(size: int, ncols: int, lo: dict[int, int],
                      hi: dict[int, int]) -> Iterator[tuple[int, ...]]:
    """Strictly increasing bounded tuples in lexicographic order."""
    if size == 0:
        yield ()
        return
    lo_arr, hi_arr = tighten_bounds(size, ncols, lo, hi)
    # acc[pos] holds l_pos, or the value before the next one to try; acc[0]
    # stands before position 1
    acc = [0] * (size + 1)
    acc[1] = lo_arr[1] - 1
    pos = 1
    while pos:
        v = acc[pos] + 1
        if v > hi_arr[pos]:
            pos -= 1  # position exhausted: advance the one before it
            continue
        acc[pos] = v
        if pos == size:
            yield tuple(acc[1:])
        else:
            pos += 1
            acc[pos] = max(v, lo_arr[pos] - 1)


# ---------------------------------------------------------------------------
# non-trivial column sets of the four layouts
# ---------------------------------------------------------------------------

def generator_truncation_set_bounds(n: int, k: int, j: int):
    """Bounds for non-trivial sets of G_j^c: block rows s..j vanish on the
    first sn columns, so at most sk members sit there."""
    lo = {s * k + 1: s * n + 1 for s in range(1, j + 1)}
    return (j + 1) * k, (j + 1) * n, lo, {}


def parity_truncation_set_bounds(n: int, k: int, j: int):
    """Bounds for non-trivial sets of H_j^c: block rows 0..s-1 vanish past
    the first sn columns, so at least s(n-k) members sit there."""
    hi = {s * (n - k): s * n for s in range(1, j + 1)}
    return (j + 1) * (n - k), (j + 1) * n, {}, hi


def generator_set_bounds(n: int, k: int, mu: int, j: int):
    """Bounds for non-trivial sets of the depth mu+j generator band.

    The band has (j+1+2*mu)k rows and n(j+1+mu) columns; a column set of full
    row size avoids structural zeros exactly when, for every s = 1..j+mu, at
    most sk of its members sit in the first sn columns and at least (mu+s)k
    of them sit in the first sn columns' complement, i.e. l_{sk} <= sn and
    l_{(mu+s)k+1} >= sn+1.
    """
    size = (j + 1 + 2 * mu) * k
    ncols = n * (j + 1 + mu)
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for s in range(1, j + mu + 1):
        hi[s * k] = s * n
        lo[(mu + s) * k + 1] = s * n + 1
    return size, ncols, lo, hi


def parity_set_bounds(n: int, k: int, nu: int, j: int):
    """Bounds for non-trivial sets of the depth j parity band.

    Size (j+1)(n-k) out of (j+1+nu)n columns with, for s = 1..j,
    l_{(n-k)s+1} >= sn+1 and l_{(n-k)s} <= n(s+nu).
    """
    size = (j + 1) * (n - k)
    ncols = (j + 1 + nu) * n
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for s in range(1, j + 1):
        lo[(n - k) * s + 1] = s * n + 1
        hi[(n - k) * s] = n * (s + nu)
    return size, ncols, lo, hi


def _bounds_for(kind: str, n: int, k: int, deg: int, j: int):
    # deg is the band length mu or nu; the truncation sets do not depend on it
    if j < 0:
        raise ValueError("j must be >= 0")
    if kind == "generator":
        return generator_set_bounds(n, k, deg, j)
    if kind == "parity":
        return parity_set_bounds(n, k, deg, j)
    if kind == "generator_truncation":
        return generator_truncation_set_bounds(n, k, j)
    if kind == "parity_truncation":
        return parity_truncation_set_bounds(n, k, j)
    raise ValueError(f"unknown index set kind {kind!r}")


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


def enumerate_nontrivial(kind: str, n: int, k: int, deg: int, j: int,
                         budget: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-trivial column sets in lexicographic order.

    The count is computed up front; if it exceeds the budget (argument, then
    CONVEC_BUDGET, then the module default) nothing is enumerated.
    """
    size, ncols, lo, hi = _bounds_for(kind, n, k, deg, j)
    total = count_bounded(size, ncols, lo, hi)
    cap = _budget.resolve(budget, ENUM_BUDGET_DEFAULT)
    if total > cap:
        raise BudgetExceeded(
            f"{total} {kind} sets exceed the budget of {cap}", estimate=total)
    return enumerate_bounded(size, ncols, lo, hi)
