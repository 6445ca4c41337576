"""Column distances, free-distance bracketing, MDP and complete j-MDP checks.

Column distances are computed by exact enumeration of message windows; the
optimality checks go through the minor criteria instead, which keeps them
usable over fields far too large to enumerate.

A full-size minor is nonzero exactly when its columns are linearly
independent, so the minor checks compute no determinants.  They walk the
non-trivial column sets in lexicographic order and keep the column
elimination of the prefix each set shares with the one before it, up to
the first position the enumeration (``sliding.walk_bounded``) reports as
changed; only the columns from there on are reduced
(``linalg._independent``), against a basis kept unscaled, so the walk
takes no inverse.  The first column that reduces to zero names the
counterexample.

The columns reduced are those of the narrower side.  When the matrix's
right kernel is narrower than the matrix has rows, as for the generator
bands of k > n - k codes, a set's minor is nonzero exactly when the
complementary minor of a kernel basis is, and that basis is computed once
per check, by ``linalg._solve_packed`` with no right-hand side, the check's
only inverses.  The walk then enumerates the complements themselves, a
few short columns each, in the order of their sets, and builds no set
until a counterexample needs naming.  Otherwise the set's own columns are
walked.  The sets counted and the report (passed, sets checked, the
counterexample as a set of the matrix) are the same on both sides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import budget as _budget
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    DivisibilityViolated,
    NoParityCheck,
    NotDelayFree,
)
from .linalg import Mat, _independent, _solve_packed, _vecmat
from .polymat import ConvCode
from .sliding import check_window, generator_truncation, walk_bounded

SEARCH_BUDGET_DEFAULT = 1 << 22


def L_of(n: int, k: int, delta: int) -> int:
    """Largest window index at which the column bound can still be attained."""
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return delta // k + delta // (n - k)


def column_bound(n: int, k: int, j: int) -> int:
    return (n - k) * (j + 1) + 1


def singleton_bound(n: int, k: int, delta: int) -> int:
    return (n - k) * (delta // k + 1) + delta + 1


def _require_delay_free(code: ConvCode):
    if not code._g0_full_rank:
        raise NotDelayFree("rank of G(0) is below k")


def _require_nonnegative(j: int) -> None:
    if j < 0:
        raise ValueError("j must be >= 0")


def _check_search_size(q: int, dims: int, budget: int | None) -> None:
    cap = _budget.resolve(budget, SEARCH_BUDGET_DEFAULT)
    est = q ** dims
    if est > cap:
        raise BudgetExceeded(f"{est} message windows exceed the budget of {cap}",
                             estimate=est)


def _min_weight(mat: Mat, nonzero_prefix: int) -> int:
    """Minimal weight of x*mat over x with some nonzero entry among the
    first nonzero_prefix coordinates."""
    fld, rows = mat.field, mat._rows
    r, width = mat.nrows, mat.ncols
    best = width + 1

    def rec(i: int, vec, dirty: bool):
        nonlocal best
        if i == nonzero_prefix and not dirty:
            return
        if i == r:
            w = width - vec.count(0)
            if w < best:
                best = w
            return
        rec(i + 1, vec, dirty)
        row = (rows[i],)
        for s in range(1, fld.q):
            rec(i + 1, _vecmat(fld, vec, (s,), row), True)

    rec(0, [0] * width, False)
    return best


def column_distance(code: ConvCode, j: int, budget: int | None = None) -> int:
    """Exact d_j^c: least weight of a codeword window v_0..v_j with v_0 != 0."""
    _require_nonnegative(j)
    _require_delay_free(code)
    _check_search_size(code.field.q, (j + 1) * code.k, budget)
    return _min_weight(generator_truncation(code.G, j), code.k)


def free_distance_bracket(code: ConvCode, search_degree: int,
                          budget: int | None = None) -> int:
    """Least codeword weight over messages of degree <= search_degree.

    An upper bound for the free distance; exact once the searched degree is
    large enough, which is not certified here.
    """
    _require_nonnegative(search_degree)
    _require_delay_free(code)
    _check_search_size(code.field.q, (search_degree + 1) * code.k, budget)
    mu = code.G.degree
    full = generator_truncation(code.G, search_degree + mu)
    mat = full.take_rows(range((search_degree + 1) * code.k))
    return _min_weight(mat, code.k)


@dataclass(frozen=True)
class DistanceProfile:
    n: int
    k: int
    delta: int
    L: int
    distances: tuple[int, ...]  # d_0^c .. d_J^c
    search_degree: int
    dfree_lower: int
    dfree_upper: int
    singleton_free_bound: int

    def __post_init__(self):
        d = self.distances
        if any(d[i] > d[i + 1] for i in range(len(d) - 1)):
            raise ValueError("column distances must be non-decreasing")
        if any(d[j] > self.column_bound(j) for j in range(len(d))):
            raise ValueError("column distance above its bound")
        if not self.dfree_lower <= self.dfree_upper <= self.singleton_free_bound:
            raise ValueError("inconsistent free distance bracket")

    def column_bound(self, j: int) -> int:
        return column_bound(self.n, self.k, j)

    @property
    def is_mdp(self) -> bool | None:
        """d_L^c optimal; None when the profile stops short of L."""
        if len(self.distances) <= self.L:
            return None
        return self.distances[self.L] == self.column_bound(self.L)

    def to_json(self) -> dict:
        out = {
            "n": self.n, "k": self.k, "delta": self.delta, "L": self.L,
            "column_distances": list(self.distances),
            "column_bounds": [self.column_bound(j) for j in range(len(self.distances))],
            "search_degree": self.search_degree,
            "dfree_lower": self.dfree_lower,
            "dfree_upper": self.dfree_upper,
            "singleton_free_bound": self.singleton_free_bound,
        }
        if self.is_mdp is not None:
            out["is_mdp"] = self.is_mdp
        return out


def distance_profile(code: ConvCode, upto: int | None = None,
                     search_degree: int | None = None,
                     budget: int | None = None) -> DistanceProfile:
    n, k, delta = code.n, code.k, code.delta
    ell = L_of(n, k, delta)
    upto = ell if upto is None else upto
    _require_nonnegative(upto)
    if search_degree is None:
        search_degree = delta + 2 * ell
    dcj = tuple(column_distance(code, j, budget) for j in range(upto + 1))
    sb = singleton_bound(n, k, delta)
    enum_upper = free_distance_bracket(code, search_degree, budget)
    return DistanceProfile(
        n=n, k=k, delta=delta, L=ell, distances=dcj,
        search_degree=search_degree,
        dfree_lower=dcj[-1] if dcj else 1,
        dfree_upper=min(enum_upper, sb),
        singleton_free_bound=sb,
    )


# ---------------------------------------------------------------------------
# the minor criteria: column optimality and complete j-MDP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    property: str
    j: int
    sets_checked: int
    passed: bool
    counterexample: tuple[int, ...] | None  # 1-based column set
    wall_time_ms: float

    def to_json(self) -> dict:
        out = {
            "property": self.property,
            "j": self.j,
            "sets_checked": self.sets_checked,
            "passed": self.passed,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }
        if self.counterexample is not None:
            out["counterexample"] = list(self.counterexample)
        return out


def _run_minor_check(prop: str, j: int, mat: Mat, bounds) -> VerificationReport:
    """Check that each column set of mat spans a nonzero full-size minor.

    The sets are the strictly increasing tuples of mat.nrows columns within
    bounds, the (size, column count, lo, hi) position bounds of the window
    ``sliding.check_window`` built mat in, walked in lexicographic order.  When
    mat's right kernel is narrower than mat has rows, the columns reduced
    are those of a kernel basis at the set's complement: a full-size minor
    of a full-row-rank matrix is nonzero exactly when the complementary
    minor of a kernel basis is (S is an information set of the row space
    iff its complement is one of the dual).  The complements are walked
    directly, in the order their sets come in, and a counterexample is
    mapped back to its set once found.  A mat without full row rank has no
    nonzero full-size minor, so its first set is the counterexample.
    Otherwise mat's own columns at the set are reduced.  Either way the
    report counts and names sets of mat, so it does not depend on the side.

    The side's columns are packed ints; basis holds the reduced tested
    columns of the current tuple by pivot, in order, each unscaled at its
    pivot (``linalg._independent``), so reducing them needs no inverse;
    only the kernel side's one ``_solve_packed`` of mat, with no right-hand
    side, takes any.  That solve gets mat's rows bottom-up, by descending
    leading column, ties in their order.  A band is a staircase, so each
    row then pivots on its own leading coefficient or on a value its
    block repeats, and a block-Toeplitz band repeats those down its block
    diagonals; ``_rref`` inverts each distinct one once.  Top-down, rows
    pivot on fresh combinations of the rows above them: certify's 12 x 15
    band takes 6 inverses bottom-up and 12 top-down.

    A tuple keeps the columns before the first position the walk reports
    as changed and reduces the rest; the last one is never reused, so it
    does not join the basis.  The first set with a column that reduces to
    zero is the counterexample, the lexicographically first because the
    sets arrive in that order.
    """
    t0 = time.perf_counter()
    fld, r, c = mat.field, mat.nrows, mat.ncols
    rows = mat.to_packed()
    dual = c - r < r
    singular = False
    if dual:
        # bottom-up, stable: each staircase row keeps its own leading
        # coefficient as its pivot value
        rows.sort(key=lambda row: next((i for i, v in enumerate(row) if v), c), reverse=True)
        rows = _solve_packed(fld, rows, c, 0)[1]
        singular = c - len(rows) < r
    columns = list(zip(*rows))
    basis: dict = {}
    checked = 0
    bad = None
    for keep, tested in walk_bounded(*bounds, complement=dual):
        checked += 1
        for _ in range(len(basis) - keep):
            basis.popitem()
        last = len(tested) - 1
        if singular or not all(_independent(fld, list(columns[tested[i] - 1]), basis, i < last)
                               for i in range(keep, len(tested))):
            bad = tuple(sorted(set(range(1, c + 1)).difference(tested))) if dual else tested
            break
    ms = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(prop, j, checked, bad is None, bad, ms)


def is_column_optimal_via_g(code: ConvCode, j: int) -> bool:
    """d_j^c attains (n-k)(j+1)+1, decided by minors of G_j^c."""
    _require_delay_free(code)
    return _run_minor_check("column_optimal_via_g", j,
                            *check_window("generator_truncation", code.G, j)).passed


def is_column_optimal_via_h(code: ConvCode, j: int) -> bool:
    """The same criterion read off the parity check, via minors of H_j^c."""
    if code.H is None:
        raise NoParityCheck("no parity check supplied")
    return _run_minor_check("column_optimal_via_h", j,
                            *check_window("parity_truncation", code.H, j)).passed


def is_mdp(code: ConvCode) -> bool:
    return is_column_optimal_via_g(code, L_of(code.n, code.k, code.delta))


def verify_complete_jmdp_via_g(code: ConvCode, j: int,
                               budget: int | None = None) -> VerificationReport:
    """All non-trivial full-size minors of the generator band over
    mu + j + 1 codeword blocks.  For a non-catastrophic G and a minimal H,
    the bands over the same blocks are dual, so this is the H check at
    j + mu - nu."""
    k = code.k
    if code.delta % k:
        raise DivisibilityViolated("k must divide delta")
    mu = code.delta // k
    if code.G.degree != mu:
        raise DegreeMismatch(f"generator degree {code.G.degree}, expected {mu}")
    return _run_minor_check("complete_jmdp_via_g", j,
                            *check_window("generator", code.G, j, budget))


def verify_complete_jmdp_via_h(code: ConvCode, j: int,
                               budget: int | None = None) -> VerificationReport:
    """All non-trivial full-size minors of the parity band over j + nu + 1
    codeword blocks: complete j-MDP as Tomas, Rosenthal and Smarandache
    define it."""
    if code.H is None:
        raise NoParityCheck("no parity check supplied")
    r = code.n - code.k
    if code.delta % r:
        raise DivisibilityViolated("n-k must divide delta")
    nu = code.delta // r
    if code.H.degree != nu:
        raise DegreeMismatch(f"parity degree {code.H.degree}, expected {nu}")
    return _run_minor_check("complete_jmdp_via_h", j,
                            *check_window("parity", code.H, j, budget))
