"""Column distances, free distance bracketing, MDP and complete j-MDP checks."""

from __future__ import annotations

import itertools
import random

import pytest

from convec import distance, field
from convec.errors import (
    BudgetExceeded,
    DegreeMismatch,
    DivisibilityViolated,
    NoParityCheck,
    NotDelayFree,
)
from convec.linalg import Mat, minor, rank, right_kernel
from convec.polymat import ConvCode, Poly, PolyMatrix, code_from_json, poly_gcd
from convec.sliding import (
    _bounds_for,
    count_nontrivial,
    enumerate_nontrivial,
    generator_band,
    generator_truncation,
    parity_band,
    parity_truncation,
)
from convec.distance import (
    DistanceProfile,
    _run_minor_check,
    L_of,
    column_bound,
    column_distance,
    distance_profile,
    free_distance_bracket,
    is_column_optimal_via_g,
    is_column_optimal_via_h,
    is_mdp,
    singleton_bound,
    verify_complete_jmdp_via_g,
    verify_complete_jmdp_via_h,
)


def rand_code_2_1(fld, rng, delta):
    """Random delay-free (2,1,delta) code, leading coefficient nonzero."""
    q = fld.q
    while True:
        a = [rng.randrange(q) for _ in range(delta + 1)]
        b = [rng.randrange(q) for _ in range(delta + 1)]
        if (a[0] or b[0]) and (a[-1] or b[-1]):
            code = ConvCode(2, 1, PolyMatrix.from_packed(
                fld, [[[a[i], b[i]]] for i in range(delta + 1)]))
            if code.delta == delta:
                return code


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_L_values():
    assert L_of(3, 2, 18) == 27
    assert L_of(3, 1, 18) == 27
    assert L_of(5, 2, 2) == 1
    assert L_of(4, 2, 0) == 0
    with pytest.raises(ValueError):
        L_of(3, 3, 1)
    with pytest.raises(ValueError, match="^delta must be >= 0$"):
        L_of(3, 1, -2)


def test_bounds():
    assert column_bound(5, 2, 0) == 4
    assert column_bound(5, 2, 1) == 7
    assert singleton_bound(5, 2, 2) == 9
    assert singleton_bound(3, 1, 1) == 6


# ---------------------------------------------------------------------------
# column distances
# ---------------------------------------------------------------------------

def test_reference_column_distances(code522):
    assert column_distance(code522, 0) == 3
    assert column_distance(code522, 1) == 5


def test_reference_profile(code522):
    prof = distance_profile(code522, upto=3)
    assert prof.distances == (3, 5, 5, 5)
    assert prof.L == 1
    assert prof.is_mdp is False  # d_1 = 5 < 7
    assert (prof.dfree_lower, prof.dfree_upper) == (5, 5)
    assert prof.singleton_free_bound == 9
    j = prof.to_json()
    assert j["column_distances"] == [3, 5, 5, 5]
    assert j["column_bounds"] == [4, 7, 10, 13]
    assert j["is_mdp"] is False


def test_profile_stops_short_of_L(code522):
    prof = distance_profile(code522, upto=0)
    assert prof.distances == (3,)
    assert prof.is_mdp is None


def test_free_distance_bracket_matches_witness(code522):
    # the second generator row has weight 5, and no codeword does better
    assert free_distance_bracket(code522, 4) == 5


def test_profile_invariants_random():
    rng = random.Random(23)
    fld = field(3)
    for _ in range(12):
        code = rand_code_2_1(fld, rng, rng.choice([1, 2]))
        prof = distance_profile(code, upto=3, search_degree=4)
        d = prof.distances
        assert all(d[i] <= d[i + 1] for i in range(len(d) - 1))
        assert all(d[j] <= prof.column_bound(j) for j in range(len(d)))
        # once a column distance is optimal, all earlier ones are too
        for j in range(len(d)):
            if d[j] == prof.column_bound(j):
                assert all(d[i] == prof.column_bound(i) for i in range(j))
        assert prof.dfree_lower <= prof.dfree_upper <= prof.singleton_free_bound


@pytest.mark.parametrize("search", [
    column_distance,
    free_distance_bracket,
    lambda code, j: distance_profile(code, upto=j, search_degree=1),
], ids=["column_distance", "free_distance_bracket", "distance_profile"])
def test_brute_force_distances_refuse_negative_delay(code522, search):
    # the exhaustive searches refuse a negative delay as the minor route does
    for j in (-1, -3):
        with pytest.raises(ValueError, match="j must be >= 0"):
            search(code522, j)


def test_requires_delay_free(gf2):
    code = ConvCode(2, 1, PolyMatrix.from_packed(gf2, [[[0, 0]], [[1, 0]]]))
    with pytest.raises(NotDelayFree):
        column_distance(code, 0)
    with pytest.raises(NotDelayFree):
        is_column_optimal_via_g(code, 0)


def test_search_budget():
    fld = field(7)
    code = rand_code_2_1(fld, random.Random(1), 2)
    with pytest.raises(BudgetExceeded) as ei:
        column_distance(code, 9)
    assert ei.value.estimate == 7 ** 10
    assert column_distance(code, 1, budget=49) >= 1
    with pytest.raises(BudgetExceeded):
        column_distance(code, 1, budget=48)


# ---------------------------------------------------------------------------
# minor criteria against brute force
# ---------------------------------------------------------------------------

def test_criterion_matches_brute_force_exhaustive_gf2(gf2):
    # all nine delay-free (2,1,1) codes over GF(2)
    for g0 in [(0, 1), (1, 0), (1, 1)]:
        for g1 in [(0, 1), (1, 0), (1, 1)]:
            code = ConvCode(2, 1, PolyMatrix.from_packed(gf2, [[list(g0)], [list(g1)]]))
            for j in range(3):
                brute = column_distance(code, j) == column_bound(2, 1, j)
                assert is_column_optimal_via_g(code, j) == brute
            assert is_mdp(code) == (column_distance(code, 2) == 4)


def test_criterion_matches_brute_force_random_gf5():
    rng = random.Random(29)
    fld = field(5)
    hits = 0
    for _ in range(30):
        code = rand_code_2_1(fld, rng, 1)
        for j in range(3):
            brute = column_distance(code, j) == column_bound(2, 1, j)
            got = is_column_optimal_via_g(code, j)
            assert got == brute
            hits += got
    assert hits  # the sample must contain optimal instances to mean anything


def test_criterion_via_h_matches(pair_2_1):
    # noncatastrophic pairs so that H is a genuine parity check of the code
    rng = random.Random(41)
    fld = field(5)
    done = 0
    while done < 15:
        g1 = [rng.randrange(5) for _ in range(2)]
        g2 = [rng.randrange(5) for _ in range(2)]
        if not (g1[0] or g2[0]) or not (g1[1] or g2[1]):
            continue
        code = pair_2_1(fld, g1, g2)
        if code.delta != 1 or not code.flags.noncatastrophic_certified:
            continue
        done += 1
        for j in range(3):
            assert is_column_optimal_via_h(code, j) == is_column_optimal_via_g(code, j)


def test_via_h_block_code_reduction(gf2):
    # nu = 0 collapses to the classical MDS parity-check criterion
    g = PolyMatrix.from_packed(gf2, [[[1, 0, 1], [0, 1, 1]]])
    h = PolyMatrix.from_packed(gf2, [[[1, 1, 1]]])
    assert is_column_optimal_via_h(ConvCode(3, 2, g, h), 0) is True
    g2 = PolyMatrix.from_packed(gf2, [[[1, 1, 0], [0, 0, 1]]])
    h2 = PolyMatrix.from_packed(gf2, [[[1, 1, 0]]])
    code2 = ConvCode(3, 2, g2, h2)
    assert is_column_optimal_via_h(code2, 0) is False
    assert column_distance(code2, 0) == 1 < column_bound(3, 2, 0)


def test_via_h_requires_parity(code522):
    with pytest.raises(NoParityCheck):
        is_column_optimal_via_h(code522, 0)


def test_zero_column_never_optimal(gf2):
    code = ConvCode(2, 1, PolyMatrix.from_packed(gf2, [[[1, 0]], [[0, 1]]]))
    assert is_column_optimal_via_g(code, 0) is False
    assert is_mdp(code) is False


def test_column_optimality_budget(monkeypatch):
    # the truncation criteria count their sets first, like the band ones
    code = ConvCode(2, 1, PolyMatrix.from_packed(field(5), [[[1, 1]], [[1, 2]]]))
    assert is_mdp(code)
    monkeypatch.setenv("CONVEC_BUDGET", "1")
    with pytest.raises(BudgetExceeded) as ei:
        is_mdp(code)
    assert ei.value.estimate == count_nontrivial("generator_truncation", 2, 1, 1, 2)


def test_negative_delay_rejected(pair_2_1):
    code = pair_2_1(field(5), [1, 1], [1, 2])
    for check in (is_column_optimal_via_g, is_column_optimal_via_h,
                  verify_complete_jmdp_via_g, verify_complete_jmdp_via_h):
        check(code, 0)  # a valid delay runs
        for j in (-1, -3):
            with pytest.raises(ValueError, match="j must be >= 0"):
                check(code, j)


# ---------------------------------------------------------------------------
# erasure-recovery link: prefix budgets keep the punctured window full rank
# ---------------------------------------------------------------------------

def test_prefix_budget_gives_full_rank(code522):
    d = (3, 5, 5)
    j = 2
    m = generator_truncation(code522.G, j)
    rng = random.Random(97)
    accepted = 0
    while accepted < 60:
        erased = {i for i in range(1, 16) if rng.random() < 0.3}
        counts = [sum(1 for i in erased if i <= 5 * (t + 1)) for t in range(j + 1)]
        if any(counts[t] >= d[t] for t in range(j + 1)):
            continue
        accepted += 1
        kept = m.take_cols([i for i in range(15) if i + 1 not in erased])
        assert rank(kept) == 6


# ---------------------------------------------------------------------------
# complete j-MDP verification
# ---------------------------------------------------------------------------

def test_report_failure_pins_lex_smallest(gf2):
    code = ConvCode(2, 1, PolyMatrix.from_packed(gf2, [[[1, 1]], [[1, 0]]]))
    rep = verify_complete_jmdp_via_g(code, 0)
    assert not rep.passed
    assert rep.sets_checked == 4
    assert rep.counterexample == (2, 3, 4)
    js = rep.to_json()
    assert js["property"] == "complete_jmdp_via_g"
    assert js["counterexample"] == [2, 3, 4]
    assert js["wall_time_ms"] >= 0


def test_report_pass_counts_all_sets():
    fld = field(5)
    code = ConvCode(2, 1, PolyMatrix.from_packed(fld, [[[1, 1]], [[1, 2]]]))
    rep = verify_complete_jmdp_via_g(code, 2)
    assert rep.passed and rep.counterexample is None
    assert rep.sets_checked == count_nontrivial("generator", 2, 1, 1, 2)
    assert "counterexample" not in rep.to_json()


def test_complete_jmdp_monotone_in_j():
    fld = field(5)
    rng = random.Random(59)
    seen_pass = 0
    for _ in range(20):
        code = rand_code_2_1(fld, rng, 1)
        r2 = verify_complete_jmdp_via_g(code, 2)
        if r2.passed:
            seen_pass += 1
            assert verify_complete_jmdp_via_g(code, 1).passed
            assert verify_complete_jmdp_via_g(code, 0).passed
    assert seen_pass


def test_complete_jmdp_preconditions(gf2):
    g = PolyMatrix.from_packed(gf2, [[[1, 1, 1], [1, 0, 1]]])
    code = ConvCode(3, 2, g)  # delta = 0 so both divisibilities hold
    with pytest.raises(NoParityCheck):
        verify_complete_jmdp_via_h(code, 0)
    odd = ConvCode(3, 2, PolyMatrix.from_packed(
        gf2, [[[1, 0, 1], [0, 1, 1]], [[0, 0, 1], [0, 0, 0]]]))
    assert odd.delta == 1
    with pytest.raises(DivisibilityViolated):
        verify_complete_jmdp_via_g(odd, 0)
    # delta = 2 with k = 2 wants a degree-1 generator; row degrees (2, 0) fail
    lopsided = ConvCode(3, 2, PolyMatrix.from_packed(
        gf2, [[[1, 0, 1], [0, 1, 1]], [[0, 0, 0], [0, 0, 0]],
              [[1, 0, 0], [0, 0, 0]]]))
    assert lopsided.delta == 2
    with pytest.raises(DegreeMismatch):
        verify_complete_jmdp_via_g(lopsided, 0)


def test_duality_at_n_equal_2k(pair_2_1):
    # with a noncatastrophic pair, generator and parity criteria agree; the
    # two set families are complementary, hence equinumerous
    for d in (1, 2):
        for j in (0, 1):
            assert count_nontrivial("parity", 2, 1, d, j) == count_nontrivial("generator", 2, 1, d, j)
    rng = random.Random(3)
    fld = field(5)
    trials = agreements = passes = 0
    while trials < 12:
        d = rng.choice([1, 2])
        g1 = [rng.randrange(5) for _ in range(d + 1)]
        g2 = [rng.randrange(5) for _ in range(d + 1)]
        if not (g1[0] or g2[0]) or not (g1[d] or g2[d]):
            continue
        code = pair_2_1(fld, g1, g2)
        if code.delta != d or not code.flags.noncatastrophic_certified:
            continue
        trials += 1
        for j in (0, 1):
            a = verify_complete_jmdp_via_g(code, j)
            b = verify_complete_jmdp_via_h(code, j)
            assert a.passed == b.passed
            agreements += 1
            passes += a.passed
    assert agreements == 24 and 0 < passes < agreements


# ---------------------------------------------------------------------------
# complementary minors
# ---------------------------------------------------------------------------

def test_complementary_minors_law():
    # for full row rank A, B with A B^T = 0, each full-size minor of A equals
    # the complementary minor of B times a fixed constant and a parity sign
    fld = field(7)
    rng = random.Random(5)
    for n, a in [(5, 2), (6, 3), (7, 3)]:
        while True:
            m = Mat(fld, [[fld.el(rng.randrange(7)) for _ in range(n)]
                          for _ in range(a)], n)
            if rank(m) == a:
                break
        b = right_kernel(m)
        assert (m * b.transpose()).is_zero
        ratios = set()
        for cols in itertools.combinations(range(n), a):
            comp = [c for c in range(n) if c not in cols]
            ma = minor(m, list(range(a)), list(cols))
            mb = minor(b, list(range(n - a)), comp)
            assert (ma.val == 0) == (mb.val == 0)
            if ma.val:
                r = ma / mb
                ratios.add(r.val if sum(cols) % 2 == 0 else (-r).val)
        assert len(ratios) == 1


# ---------------------------------------------------------------------------
# the incremental minor loop against one minor per set
# ---------------------------------------------------------------------------

def minor_per_set(mat, sets):
    """(passed, sets_checked, counterexample) from one linalg.minor per set."""
    rows = range(mat.nrows)
    checked = 0
    for cols in sets:
        checked += 1
        if not minor(mat, rows, [c - 1 for c in cols]).val:
            return False, checked, cols
    return True, checked, None


def systematic(fld, rng, n, k, d) -> ConvCode:
    """G = (I | P(z)) and H = (-P(z)^T | I) with a random k x (n-k) P of
    degree d."""
    r = n - k
    while True:
        p = [[[rng.randrange(fld.q) for _ in range(r)] for _ in range(k)]
             for _ in range(d + 1)]
        if any(map(any, p[d])):
            break
    G = [[[int(i == 0 and a == b) for b in range(k)] + p[i][a] for a in range(k)]
         for i in range(d + 1)]
    H = [[[(-fld.el(p[i][a][c])).val for a in range(k)]
          + [int(i == 0 and c == b) for b in range(r)] for c in range(r)]
         for i in range(d + 1)]
    return ConvCode(n, k, PolyMatrix.from_packed(fld, G), PolyMatrix.from_packed(fld, H))


def four_checks(code, j):
    """(kind, incremental outcome, per-set minor outcome) for the four set
    kinds; the public checks must agree wherever their preconditions hold."""
    n, k, mu, nu = code.n, code.k, code.G.degree, code.H.degree
    for kind, mat, deg in (
            ("generator_truncation", generator_truncation(code.G, j), mu),
            ("parity_truncation", parity_truncation(code.H, j), nu),
            ("generator", generator_band(code.G, j + mu), mu),
            ("parity", parity_band(code.H, j), nu)):
        rep = _run_minor_check(kind, j, mat, _bounds_for(kind, n, k, deg, j))
        got = (rep.passed, rep.sets_checked, rep.counterexample)
        want = minor_per_set(mat, enumerate_nontrivial(kind, n, k, deg, j))
        yield kind, got, want
    assert is_column_optimal_via_g(code, j) == minor_per_set(
        generator_truncation(code.G, j),
        enumerate_nontrivial("generator_truncation", n, k, mu, j))[0]
    assert is_column_optimal_via_h(code, j) == minor_per_set(
        parity_truncation(code.H, j),
        enumerate_nontrivial("parity_truncation", n, k, nu, j))[0]
    for check, kind, band, deg, div in (
            (verify_complete_jmdp_via_g, "generator", generator_band(code.G, j + mu), mu, k),
            (verify_complete_jmdp_via_h, "parity", parity_band(code.H, j), nu, n - k)):
        if code.delta % div == 0 and deg == code.delta // div:
            rep = check(code, j)
            assert (rep.passed, rep.sets_checked, rep.counterexample) == minor_per_set(
                band, enumerate_nontrivial(kind, n, k, deg, j))


# (n, k, degree of P, largest j)
DIFF_SHAPES = [(2, 1, 1, 3), (2, 1, 2, 3), (3, 1, 1, 2), (3, 2, 1, 3), (3, 2, 2, 2)]


def sparse(fld, rng, rows, n, d, density):
    """Random rows x n polynomial matrix of degree at most d, each
    coefficient nonzero with probability density."""
    return PolyMatrix.from_packed(fld, [
        [[rng.randrange(1, fld.q) if rng.random() < density else 0 for _ in range(n)]
         for _ in range(rows)] for _ in range(d + 1)])


def out_of_order(fld, rng, r, c):
    """Random dense r x c matrix, r >= 3, whose first column is 0 at its
    top rows and, where the field allows, not 1 at its first nonzero, and
    one of whose later columns is a combination of the first two.

    The second column joins the walk's basis at a pivot above the first
    column's, so it is reduced at a pivot below its own, and it is reused
    for every set that starts with both; the first set that holds the
    combination has a zero minor that no zero pattern shows."""
    el = fld.el
    cols = [[rng.randrange(1, fld.q) for _ in range(r)] for _ in range(c)]
    z = rng.randrange(1, r)
    cols[0][:z + 1] = [0] * z + [rng.randrange(min(2, fld.q - 1), fld.q)]
    a, b = el(rng.randrange(1, fld.q)), el(rng.randrange(1, fld.q))
    cols[rng.randrange(2, c)] = [(a * el(u) + b * el(w)).val for u, w in zip(cols[0], cols[1])]
    return Mat.from_packed(fld, [list(row) for row in zip(*cols)])


def four_matrices(g, h, n, k, j):
    """(kind, matrix, degree) of the four set kinds, G or H of any degree."""
    mu, nu = g.degree, h.degree
    if mu >= 0:
        yield "generator_truncation", generator_truncation(g, j), mu
        yield "generator", generator_band(g, j + mu), mu
    if nu >= 0:
        yield "parity_truncation", parity_truncation(h, j), nu
        yield "parity", parity_band(h, j), nu


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 4), (3, 2), (3, 3), (2, 41)],
                         ids=["GF2", "GF3", "GF5", "GF16", "GF9", "GF27", "GF2^41"])
def test_incremental_minors_match_minor_per_set(p, m, monkeypatch):
    fld = field(p, m)
    rng = random.Random(1000 * p + m)
    outcomes = set()
    for n, k, d, top in DIFF_SHAPES:
        for _ in range(2):
            code = systematic(fld, rng, n, k, d)
            for j in range(top + 1):
                for kind, got, want in four_checks(code, j):
                    assert got == want, (kind, n, k, d, j)
                    outcomes.add(want[0])
                # the checks reduce copies; the memoized band is unchanged
                fresh = code_from_json(code.to_json()).G
                assert generator_band(code.G, j + d) == generator_band(fresh, j + d)
    assert outcomes == {True, False}
    # non-systematic sparse G and H, many without full row rank; the
    # public checks need delay-free codes, so the loop is called directly.
    # A check reduces the kernel basis's columns, one _solve_packed per
    # check, when the kernel is narrower than the matrix has rows.
    kernel_checks = []
    solve_packed = distance._solve_packed

    def counted(*args):
        kernel_checks.append(args)
        return solve_packed(*args)

    monkeypatch.setattr(distance, "_solve_packed", counted)
    tally = {"kernel": 0, "band": 0, "failed": 0, "deficient": 0}
    for n, k, d, top in DIFF_SHAPES:
        for density in (0.3, 0.7, 1.0):
            g = sparse(fld, rng, k, n, d, density)
            h = sparse(fld, rng, n - k, n, d, density)
            for j in range(min(top, 2) + 1):
                for kind, mat, deg in four_matrices(g, h, n, k, j):
                    before = len(kernel_checks)
                    rep = _run_minor_check(kind, j, mat, _bounds_for(kind, n, k, deg, j))
                    got = (rep.passed, rep.sets_checked, rep.counterexample)
                    want = minor_per_set(mat, enumerate_nontrivial(kind, n, k, deg, j))
                    assert got == want, (kind, n, k, d, j)
                    narrow = mat.ncols - mat.nrows < mat.nrows
                    assert len(kernel_checks) - before == narrow, (kind, mat.nrows, mat.ncols)
                    tally["kernel" if narrow else "band"] += 1
                    tally["failed"] += not rep.passed
                    tally["deficient"] += narrow and rank(mat) < mat.nrows and rep.sets_checked > 0
    assert tally["kernel"] >= 30 and tally["band"] >= 30, tally
    assert tally["failed"] >= 30 and tally["deficient"] >= 10, tally
    # the unscaled basis: reducing the second column at the first one's
    # pivot must scale its entries left of that pivot too
    for _ in range(12):
        r = rng.randrange(3, 5)
        mat = out_of_order(fld, rng, r, rng.randrange(r + 1, 2 * r + 2))
        sets = list(itertools.combinations(range(1, mat.ncols + 1), r))
        rep = _run_minor_check("planted", 0, mat, (r, mat.ncols, {}, {}))
        assert not rep.passed
        assert (rep.passed, rep.sets_checked, rep.counterexample) == minor_per_set(mat, sets)


def test_incremental_minors_first_set_dependent(pair_2_1):
    # H = (z + z^2 + z^3, 1 + z^2 + z^3): the first parity set (1,) meets a
    # zero column of H_0, at every j
    code = pair_2_1(field(2), [1, 0, 1, 1], [1, 1])
    for j in range(4):
        outcomes = {}
        for kind, got, want in four_checks(code, j):
            assert got == want, (kind, j)
            outcomes[kind] = got
        assert outcomes["parity"] == (False, 1, tuple(range(1, 2 * j + 2, 2)))


def test_incremental_minors_deep_counterexample():
    # G = (1 + z + z^2 + z^3, 2 + z + 2z^2, 1 + z^2 + z^3) over GF(3): the
    # first vanishing band minor at j = 4 is set 52, and it shares its first
    # eight columns with set 51, so only the last three are reduced anew
    fld = field(3)
    code = ConvCode(3, 1, PolyMatrix.from_packed(
        fld, [[[1, 2, 1]], [[1, 1, 0]], [[1, 2, 1]], [[1, 0, 1]]]))
    band = generator_band(code.G, 4 + 3)
    sets = list(itertools.islice(enumerate_nontrivial("generator", 3, 1, 3, 4), 52))
    bad = (1, 2, 3, 4, 5, 7, 10, 13, 21, 22, 23)
    assert sets[-1] == bad
    assert sets[-2][:8] == bad[:8] and sets[-2][8] != bad[8]
    rep = verify_complete_jmdp_via_g(code, 4)
    assert (rep.passed, rep.sets_checked, rep.counterexample) == (False, 52, bad)
    assert minor_per_set(band, sets) == (False, 52, bad)


def test_kernel_side_deep_counterexample(monkeypatch):
    # a (3,2,2) code over GF(13): its 12 x 15 band at j = 3 takes the kernel
    # side, and the first vanishing minor is set 146 of 361, whose
    # complement (4, 9, 12) shares its first two columns with the two
    # complements walked before it
    fld = field(13)
    code = ConvCode(3, 2, PolyMatrix.from_packed(
        fld, [[[1, 10, 5], [6, 7, 11]], [[6, 6, 6], [1, 5, 9]]]))
    band = generator_band(code.G, 3 + 1)
    assert band.ncols - band.nrows < band.nrows
    sets = list(itertools.islice(enumerate_nontrivial("generator", 3, 2, 1, 3), 146))
    bad = (1, 2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 15)
    assert sets[-1] == bad
    everything = set(range(1, 16))
    assert [tuple(sorted(everything - set(s))) for s in sets[-3:]] == [
        (4, 9, 14), (4, 9, 13), (4, 9, 12)]
    kernel_checks = []
    solve_packed = distance._solve_packed

    def counted(*args):
        kernel_checks.append(args)
        return solve_packed(*args)

    monkeypatch.setattr(distance, "_solve_packed", counted)
    rep = verify_complete_jmdp_via_g(code, 3)
    assert (rep.passed, rep.sets_checked, rep.counterexample) == (False, 146, bad)
    assert len(kernel_checks) == 1
    assert minor_per_set(band, sets) == (False, 146, bad)


def test_incremental_minors_catastrophic_gf3(pair_2_1):
    # G = (1 + z, 1 + 2z^2): both entries vanish at z = 2
    code = pair_2_1(field(3), [1, 1], [1, 0, 2])
    assert not code.flags.noncatastrophic_certified
    for j in range(5):
        for kind, got, want in four_checks(code, j):
            assert got == want, (kind, j)
