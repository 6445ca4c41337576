"""Code construction.

Two sources of codes:

* an explicit family over large extension fields GF(p^N) whose sliding
  generator matrices have every non-trivial full-size minor nonzero, so
  the guard-space machinery is guaranteed to work at every delay up to
  L (`build_complete_mdp`);
* seeded rejection sampling over small fields for test fixtures and
  experiments (`random_code`).

The explicit family places alpha^(2^(i*n + c + r)) at entry (r, c) of
the degree-i coefficient block.  Reading the exponent staircase along
any row or column of the row-reversed sliding matrix, each nonzero
entry at least doubles the previous one, so every exponent sum that
survives in a minor is distinct.  With N larger than any such sum and
alpha chosen as the class of x (whose minimal polynomial is the field
modulus, hence of full degree N), those sums index distinct basis
monomials and no non-trivial minor can vanish.  Primitivity of alpha
is therefore not needed for correctness, and the field, being larger than
the generator cap of :mod:`convec.gf`, designates no generator.
"""

from __future__ import annotations

import random

from .distance import L_of, is_mdp, verify_complete_jmdp_via_g
from .errors import DivisibilityViolated, FieldTooLarge, RankDeficient, SearchExhausted
from .gf import Field, _isprime, field
from .polymat import ConvCode, PolyMatrix


def degree_bounds(n: int, k: int, delta: int) -> tuple[int, int]:
    """Two sufficient caps on the exponent sums the construction must
    dominate: the general figure k(L+1+2*mu)*2^((mu+1)n+k-2) and the
    coarser blanket n(mu+1)*2^((mu+1)n+k-2).  The built field uses
    max(both) + 1."""
    mu = delta // k
    L = L_of(n, k, delta)
    e = (mu + 1) * n + k - 2
    return k * (L + 1 + 2 * mu) << e, n * (mu + 1) << e


def alpha_exponent_layout(n: int, k: int, mu: int) -> list:
    """layout[i][r][c] = i*n + c + r; entry (r, c) of the degree-i block
    is alpha^(2^layout[i][r][c]).

    The four corners of each block fix the convention: top-left i*n,
    top-right (i+1)*n - 1, bottom-left i*n + k - 1, bottom-right
    (i+1)*n + k - 2.  Interior entries interpolate additively in r and c.
    """
    return [[[i * n + c + r for c in range(n)] for r in range(k)]
            for i in range(mu + 1)]


def build_complete_mdp(n: int, k: int, delta: int, p: int,
                       max_extension_degree: int = 4096) -> ConvCode:
    """Explicit complete-MDP code over GF(p^N), N chosen past both caps.

    Requires k | delta.  N beyond `max_extension_degree` is refused with
    FieldTooLarge; raise the cap explicitly to build anyway.  Metadata
    under "provenance" records the construction, N, both bound figures,
    alpha as the class of x, and the field (see the module docstring for
    why the code is certified without alpha being primitive).
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta % k:
        raise DivisibilityViolated(
            f"the generator-side construction needs k | delta; {k} does not divide {delta}")
    mu = delta // k
    general, coarse = degree_bounds(n, k, delta)
    N = max(general, coarse) + 1
    if N > max_extension_degree:
        raise FieldTooLarge(
            f"construction needs GF({p}^{N}) but the cap is {max_extension_degree}; "
            f"pass max_extension_degree={N} to build anyway")
    fld = field(p, N)
    layout = alpha_exponent_layout(n, k, mu)
    # alpha = x, whose packed value is p
    grids = [[[fld._vpow(p, 1 << layout[i][r][c]) for c in range(n)]
              for r in range(k)] for i in range(mu + 1)]
    code = ConvCode(n, k, PolyMatrix.from_packed(fld, grids), metadata={"provenance": {
        "construction": "doubling-exponent staircase",
        "N": N,
        "bound_general": general,
        "bound_coarse": coarse,
        "alpha": "x",
        "field": fld.ref(),
    }})
    if not code._gmu_full_rank:
        raise RankDeficient("top coefficient block lost rank; construction invalid")
    assert code.delta == delta
    return code


# ---------------------------------------------------------------------------
# structural certificate for the staircase argument
# ---------------------------------------------------------------------------

def staircase_exponents(n: int, k: int, delta: int) -> list[list[int | None]]:
    """Exponent table of the row-reversed sliding generator matrix the
    certification argument runs on; None marks structural zeros.

    Block (a, b) of the k(L+1+2mu) x n(L+1+mu) matrix holds the degree
    a+b-(L+mu) coefficient block, so degrees grow down and to the right
    and the doubling conditions can be read off entrywise.
    """
    if delta % k:
        raise DivisibilityViolated(f"{k} does not divide {delta}")
    mu = delta // k
    L = L_of(n, k, delta)
    layout = alpha_exponent_layout(n, k, mu)
    rows = []
    for a in range(L + 2 * mu + 1):
        for r in range(k):
            row: list[int | None] = []
            for b in range(L + mu + 1):
                d = a + b - (L + mu)
                row.extend(layout[d][r] if 0 <= d <= mu else [None] * n)
            rows.append(row)
    return rows


def staircase_certificate(n: int, k: int, delta: int) -> dict:
    """Check the four entrywise conditions the minor argument needs and
    return summary figures.

    1. every nonzero entry is alpha to a positive power of two;
    2. zeros close off: below a zero the column stays zero, or to its
       left the row is zero already;
    3. within a row, each nonzero at least doubles the one before it;
    4. same down each column.

    Raises ValueError if any condition fails (none can, for legal
    parameters; the checks guard the layout code itself).
    """
    grid = staircase_exponents(n, k, delta)
    nrows, ncols = len(grid), len(grid[0])
    for i in range(nrows):
        for l in range(ncols):
            e = grid[i][l]
            if e is None:
                below = all(grid[i2][l] is None for i2 in range(i + 1, nrows))
                left = all(grid[i][l2] is None for l2 in range(l))
                if not (below or left):
                    raise ValueError(f"zero at ({i},{l}) not closed off")
            elif e < 0:
                raise ValueError(f"non-positive exponent at ({i},{l})")
    for lines, fails in ((grid, "row {} fails doubling at column {}"),
                         (zip(*grid), "column {} fails doubling at row {}")):
        for a, line in enumerate(lines):
            # 2^e at least doubles 2^prev exactly when e > prev
            nonzero = [(b, e) for b, e in enumerate(line) if e is not None]
            for (_, prev), (b, e) in zip(nonzero, nonzero[1:]):
                if e <= prev:
                    raise ValueError(fails.format(a, b))
    # any surviving minor term takes at most one entry per row
    max_term = sum(max((1 << e) for e in row if e is not None) for row in grid)
    general, coarse = degree_bounds(n, k, delta)
    if max_term > max(general, coarse):
        raise ValueError("bound figures do not dominate the worst term")
    return {
        "rows": nrows,
        "cols": ncols,
        "max_term_exponent": max_term,
        "bound_general": general,
        "bound_coarse": coarse,
    }


# ---------------------------------------------------------------------------
# seeded random search
# ---------------------------------------------------------------------------

def _iroot(q: int, m: int) -> int:
    """floor(q^(1/m)) for q >= 1 by Newton's method on ints, from above."""
    r = 1 << -(-q.bit_length() // m)
    while (s := ((m - 1) * r + q // r ** (m - 1)) // m) < r:
        r = s
    return r


def _prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m and p prime: the m-th root of q is prime for at
    most one m."""
    for m in range(1, max(q, 1).bit_length() + 1):
        p = _iroot(q, m)
        if p ** m == q and _isprime(p):
            return p, m
    raise ValueError(f"q = {q} is not a prime power")


def _row_degrees(k: int, delta: int) -> list[int]:
    base, extra = divmod(delta, k)
    return [base + 1] * extra + [base] * (k - extra)


def random_code(n: int, k: int, delta: int, q: int, seed: int,
                want: str = "none", attempts: int = 500) -> ConvCode:
    """Rejection-sample row-reduced delay-free codes over GF(q).

    `want` is the property each sample is tested against: "none" accepts
    the first structurally valid code, "mdp" and "complete" keep sampling
    until the minor criteria verify (complete uses the generator-side
    check at delay L).  Raises SearchExhausted after `attempts` property
    checks; small fields genuinely may not contain such codes.
    """
    if want not in ("none", "mdp", "complete"):
        raise ValueError(f"unknown target property {want!r}")
    if want == "complete" and delta % k:
        raise DivisibilityViolated(
            f"the generator-side criterion needs k | delta; {k} does not divide {delta}")
    p, m = _prime_power(q)
    fld: Field = field(p, m) if m > 1 else field(p)
    rng = random.Random(seed)
    degs = _row_degrees(k, delta)
    top = max(degs)
    tried = 0
    while tried < attempts:
        grids = [[[rng.randrange(fld.q) if i <= degs[r] else 0
                   for _ in range(n)] for r in range(k)] for i in range(top + 1)]
        G = PolyMatrix.from_packed(fld, grids)
        if G.is_zero:
            continue
        code = ConvCode(n, k, G)
        if not (code.flags.delay_free and code.flags.row_reduced
                and code.delta == delta):
            continue
        tried += 1
        if want == "none":
            return code
        if want == "mdp" and is_mdp(code):
            return code
        if want == "complete" and verify_complete_jmdp_via_g(
                code, L_of(n, k, delta)).passed:
            return code
    raise SearchExhausted(
        f"no {want} ({n},{k},{delta}) code over GF({q}) in {attempts} attempts")
