"""Erasure decoders over a shared stream model.

Two decoders are provided.  The generator-matrix decoder (gm) recovers
message coefficients directly: it solves the received symbols of a window
against G's coefficients with the known message history moved to the
right-hand side, and keeps the longest uniquely determined message prefix.
The parity-check decoder (pc) recovers erased codeword symbols from the
syndrome equations of the window and leaves message extraction to a
separate step.  Each engine states its system through one builder as packed
[A^T | B^T] rows read straight from the code's coefficients, and solves
them through one metered _solve: _gm_system for gm windows, gm guard
attempts and whole-stream extraction when G_0 is rank deficient,
_pc_system for pc windows and pc guard attempts.  _solve returns packed
values, (x, pinned), so decoding builds no sliding matrix and no Mat;
Elements are made only for the symbols a window fills, for guard values
and for the recovered message.

Both run one sliding-window driver, _slide, the algorithm of Tomas,
Rosenthal and Smarandache (IEEE Trans. IT 58(1), 2012), so their results
differ only in the linear system each one solves.  Starting from j = 0 at
the first unrecovered block t, the window grows while blocks t..t+j hold at
least d_j^c erasures, up to a latency cap J.  Each engine supplies two
callables:

* window(t, j) solves the window and returns (record or None, next t or
  None); None means stuck, and the driver widens the window while it may.
  pc returns (None, t + 1) for a block without erasures.
* attempt(t, j) tries to rebuild a guard space at t with no known history
  and returns (record, first pinned block or None): t - mu for gm's
  widened variant and t otherwise, t - nu for pc.

When the window is stuck at its cap the driver scans later candidates and
delays with attempt and resumes after the first success; the blocks from
the stall up to the first pinned block form a lost interval, and without a
success the rest of the stream is lost.

Blocks outside the listed stream are structural zeros on both sides, so
windows may run past the last block; the virtual zero blocks contribute
equations but no unknowns, which is what makes stream tails decodable even
when the origin degree is not announced.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction

from .errors import (
    InconsistentStream,
    LengthMismatch,
    NonUnique,
    NoParityCheck,
)
from .gf import Element
from .linalg import _rref, _solve_packed, _vecmat, rank
from .polymat import ConvCode, PolyMatrix
from .distance import L_of, _require_delay_free, column_bound
from .stream import ErasureStream


# ---------------------------------------------------------------------------
# recovering rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rate:
    """Unreduced rational; num/den keep the raw counts behind a rate."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("rate denominator must be positive")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def recovering_rates(n: int, k: int, delta: int, j: int) -> dict[str, Rate]:
    """Window fraction of erasures each recovery mode tolerates.

    forward assumes an optimal column distance at j; the guard entries are
    present only when the corresponding memory mu = delta/k or
    nu = delta/(n-k) is integral.
    """
    if not 0 < k < n or j < 0:
        raise ValueError("need 0 < k < n and j >= 0")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    out = {"forward": Rate((n - k) * (j + 1), (j + 1) * n)}
    if delta % k == 0:
        mu = delta // k
        out["guard_G"] = Rate((n - k) * (j + 1) + (n - 2 * k) * mu,
                              (j + 1 + mu) * n)
    if delta % (n - k) == 0:
        nu = delta // (n - k)
        out["guard_H"] = Rate((n - k) * (j + 1), (j + 1 + nu) * n)
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowRecord:
    t: int
    j: int
    unknowns: int
    equations: int
    outcome: str
    solver: str

    def to_json(self) -> dict:
        return {"t": self.t, "j": self.j, "unknowns": self.unknowns,
                "equations": self.equations, "outcome": self.outcome,
                "solver": self.solver}


@dataclass
class DecodeReport:
    decoder: str
    code_shape: tuple[int, int, int]
    recovered_message: dict[int, tuple[Element, ...]]
    corrected: ErasureStream
    windows: list[WindowRecord]
    lost_intervals: list[tuple[int, int]]
    totals: dict = dataclass_field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.lost_intervals and self.corrected.is_complete

    def message(self) -> PolyMatrix | None:
        """The recovered message as a polynomial row, if contiguous from 0."""
        if not self.recovered_message:
            return None
        top = max(self.recovered_message)
        if any(t not in self.recovered_message for t in range(top + 1)):
            return None
        grids = [[[e.val for e in self.recovered_message[t]]]
                 for t in range(top + 1)]
        return PolyMatrix.from_packed(self.corrected.field, grids)

    def to_json(self) -> dict:
        n, k, delta = self.code_shape
        return {
            "decoder": self.decoder,
            "n": n, "k": k, "delta": delta,
            "complete": self.complete,
            "windows": [w.to_json() for w in self.windows],
            "lost_intervals": [list(iv) for iv in self.lost_intervals],
            "totals": dict(self.totals),
            "message": [[t, [e.to_hex() for e in self.recovered_message[t]]]
                        for t in sorted(self.recovered_message)],
        }


def message_degree_bound(code: ConvCode, stream: ErasureStream) -> int | None:
    """deg u implied by deg v, when the top generator coefficient is injective."""
    if stream.origin_degree is None:
        return None
    mu = code.G.degree
    if rank(code.G.coeff(mu)) < code.k:
        return None
    return stream.origin_degree - mu


# ---------------------------------------------------------------------------
# shared solving machinery
# ---------------------------------------------------------------------------

class _Ops:
    """Rough elimination-cost meter for the report totals."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def count(self, r: int, c: int):
        self.total += r * c * min(r, c)


def _u_value(code: ConvCode, known_u: dict, ubound, t: int):
    if t < 0 or (ubound is not None and t > ubound):
        return (code.field.zero,) * code.k
    return known_u.get(t)


def _gm_system(code: ConvCode, stream: ErasureStream, known_u: dict,
               ubound, v_start: int, width: int):
    """Message-recovery system over blocks v_start .. v_start+width-1 as
    packed [A^T | B^T] rows for linalg._solve_packed, one per received symbol
    v_t[c]: G_s[:, c] at the columns of each unknown u_{t-s}, and each known
    u_{t-s} G_s[:, c] moved to the right-hand side.  Unknowns reach back mu
    blocks; message blocks before 0 or past ubound are structural zeros and
    blocks outside the stream received zeros.  Returns (rows, r,
    unknown_times), r = k * len(unknown_times)."""
    fld, k = code.field, code.k
    sub, mul = fld._vsub, fld._vmul
    cols = [list(zip(*g.to_packed())) for g in code.G.coeffs]  # cols[s][c] = G_s[:, c]
    at, known = {}, {}  # unknown time -> column; known nonzero time -> values
    unknown_times: list[int] = []
    for ut in range(v_start - code.G.degree, v_start + width):
        val = _u_value(code, known_u, ubound, ut)
        if val is None:
            at[ut] = len(unknown_times) * k
            unknown_times.append(ut)
        elif any(e.val for e in val):
            known[ut] = [e.val for e in val]
    r = len(unknown_times) * k
    rows = []
    zeros = (fld.zero,) * code.n
    for tb in range(v_start, v_start + width):
        blk = stream.blocks[tb] if 0 <= tb < len(stream.blocks) else zeros
        for c, v in enumerate(blk):
            if v is None:
                continue
            row = [0] * r + [v.val]
            for s, g in enumerate(cols):
                ut = tb - s
                if ut in at:
                    row[at[ut]:at[ut] + k] = g[c]
                elif ut in known:
                    for x, y in zip(known[ut], g[c]):
                        if x and y:
                            row[r] = sub(row[r], mul(x, y))
            rows.append(row)
    return rows, r, unknown_times


def _solve(fld, rows: list[list[int]], r: int, ops: _Ops | None, message: str):
    """Solve X A = B, one unknown row X of length r, from the packed
    [A^T | B^T] rows, metering the elimination; a contradiction raises
    InconsistentStream with the caller's message.  Returns (x, pinned): x
    a packed solution, and per unknown whether every solution agrees on
    it, i.e. its column of the kernel is zero; all pinned means unique."""
    if ops is not None:
        ops.count(r, len(rows))
    res = _solve_packed(fld, rows, r, 1)
    if res is None:
        raise InconsistentStream(message)
    (x,), ker = res
    return x, [all(not row[i] for row in ker) for i in range(r)]


def _fill_codeword_blocks(code: ConvCode, work: ErasureStream, known_u: dict,
                          ubound, t0: int, t1: int) -> None:
    """Re-encode blocks t0..t1 from known message coefficients, filling
    erasures and cross-checking received symbols."""
    mu = code.G.degree
    for tb in range(t0, t1 + 1):
        if not 0 <= tb < len(work.blocks):
            continue
        acc = [code.field.zero] * code.n
        for s in range(mu + 1):
            uval = _u_value(code, known_u, ubound, tb - s)
            if uval is None:
                raise NonUnique(f"message coefficient {tb - s} still unknown")
            g = code.G.coeff(s)
            for r in range(code.k):
                ur = uval[r]
                if ur.val:
                    row = g.data[r]
                    for c in range(code.n):
                        acc[c] = acc[c] + ur * row[c]
        blk = work.blocks[tb]
        for c in range(code.n):
            if blk[c] is None:
                blk[c] = acc[c]
            elif blk[c] != acc[c]:
                raise InconsistentStream(
                    f"block {tb} disagrees with the recovered message")


def _distance_gate(distances, n: int, k: int, j: int) -> int:
    if distances is not None and j < len(distances):
        return distances[j]
    return column_bound(n, k, j)


def _check_match(code: ConvCode, stream: ErasureStream) -> None:
    if stream.n != code.n or stream.field != code.field:
        raise LengthMismatch("stream does not match the code")


def _slide(code: ConvCode, work: ErasureStream, reach: int, max_delay,
           distances, guard: bool, window, attempt):
    """The sliding-window policy both engines share, as the module docstring
    describes; reach is how far windows may run past the stream end (the
    memory of the engine's matrix).  Returns (windows, lost intervals)."""
    _check_match(code, work)
    if max_delay is not None and max_delay < 0:
        raise ValueError("max_delay must be >= 0")
    n, k = code.n, code.k
    J = L_of(n, k, code.delta) if max_delay is None else max_delay
    windows: list[WindowRecord] = []
    lost: list[tuple[int, int]] = []
    T = len(work.blocks)
    t = 0
    while t < T:
        j = 0
        while True:
            can_grow = j < J and t + j < T - 1 + reach
            if can_grow and work.window_erasures(t, j) >= _distance_gate(
                    distances, n, k, j):
                j += 1
                continue
            rec, nxt = window(t, j)
            if rec is not None:
                windows.append(rec)
            if nxt is not None or not can_grow:
                break
            j += 1
        if nxt is not None:
            t = nxt
            continue
        stall, first = t, None
        if guard:
            for cand in range(t + 1, T):
                for jg in range(min(J, T - 1 - cand) + 1):
                    rec, first = attempt(cand, jg)
                    windows.append(rec)
                    if first is not None:
                        break
                if first is not None:
                    break
        if first is None:
            lost.append((stall, T - 1))
            break
        if first > stall:
            lost.append((stall, first - 1))
        t = cand + jg + 1
    return windows, lost


def _report(decoder: str, code: ConvCode, stream: ErasureStream,
            work: ErasureStream, message: dict, windows, lost, ops: _Ops,
            **extra) -> DecodeReport:
    seen = stream.total_erasures
    return DecodeReport(
        decoder=decoder,
        code_shape=(code.n, code.k, code.delta),
        recovered_message=message,
        corrected=work,
        windows=windows,
        lost_intervals=lost,
        totals={"erasures_seen": seen,
                "erasures_recovered": seen - work.total_erasures,
                "solve_ops_estimate": ops.total, **extra},
    )


# ---------------------------------------------------------------------------
# generator-matrix decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GuardOutcome:
    """One guard attempt.  record describes the last system tried, and its
    t and j are the candidate block and delay of the attempt; for gm it is
    the widened window whenever the plain one did not succeed and mu > 0."""

    ok: bool
    variant: str | None  # "window" or "extended"
    values: dict | None
    record: WindowRecord


def gm_guard_recover(code: ConvCode, stream: ErasureStream, t_candidate: int,
                     j: int, ops: _Ops | None = None) -> GuardOutcome:
    """Try to rebuild a guard space at t_candidate with no known history.

    First the plain window system over v_t..v_{t+j}, unknowns back to
    u_{t-mu}; then the widened one over v_{t-mu}..v_{t+j}, unknowns back to
    u_{t-2mu}, which pulls the surviving symbols of the preceding blocks
    into play.  Only a fully unique solve counts.  The returned record is
    that of the last variant tried, so an attempt that solves both systems
    leaves one record; ops meters every solve.
    """
    ubound = message_degree_bound(code, stream)
    fld, k, mu = code.field, code.k, code.G.degree
    variants = ("window", "extended") if mu else ("window",)
    for variant in variants:
        v_start = t_candidate - (mu if variant == "extended" else 0)
        rows, r, unknown_times = _gm_system(code, stream, {}, ubound, v_start,
                                            t_candidate + j + 1 - v_start)
        rec = WindowRecord(t_candidate, j, r, len(rows),
                           "not_recoverable", f"gm_guard_{variant}")
        if r > len(rows):
            continue  # cannot be unique, skip the solve
        x, pinned = _solve(fld, rows, r, ops, "guard window contradicts the code")
        if all(pinned):
            values = {ut: tuple(Element(fld, v) for v in x[i * k:(i + 1) * k])
                      for i, ut in enumerate(unknown_times) if ut >= 0}
            return GuardOutcome(True, variant, values,
                                replace(rec, outcome="guard_recovered"))
    return GuardOutcome(False, None, None, rec)


def gm_decode_forward(code: ConvCode, stream: ErasureStream,
                      max_delay: int | None = None,
                      distances=None, guard: bool = True) -> DecodeReport:
    """Sliding-window message recovery through the generator matrix.

    distances optionally supplies the code's true column distances for the
    window-growth gate; without it the gate assumes the optimal profile,
    which only affects latency, never correctness, since every solve
    extracts exactly the uniquely determined prefix.  guard=False stops at
    the first stall instead of rebuilding a guard space, declaring the
    rest of the stream lost.
    """
    _require_delay_free(code)
    fld, k, mu = code.field, code.k, code.G.degree
    ops = _Ops()
    work = stream.copy()
    ubound = message_degree_bound(code, stream)
    known_u: dict[int, tuple[Element, ...]] = {}

    def window(t, j):
        rows, r, unknown_times = _gm_system(code, work, known_u, ubound, t, j + 1)
        x, pinned = _solve(fld, rows, r, ops,
                           "received symbols are not consistent with the code")
        # leading whole k-groups of unknowns that every solution agrees on
        prefix = (pinned + [False]).index(False) // k
        if prefix == len(unknown_times):
            covered = t + j  # trailing structural zeros ride along
        elif prefix:
            covered = unknown_times[prefix - 1]
        else:
            covered = t - 1
        outcome = ("recovered" if covered >= t + j
                   else "partial" if covered >= t else "stalled")
        rec = WindowRecord(t, j, r, len(rows), outcome, "gm")
        if covered < t:
            return rec, None
        for i, ut in enumerate(unknown_times[:prefix]):
            known_u[ut] = tuple(Element(fld, v) for v in x[i * k:(i + 1) * k])
        _fill_codeword_blocks(code, work, known_u, ubound, t, covered)
        return rec, covered + 1

    def attempt(t, j):
        out = gm_guard_recover(code, work, t, j, ops)
        if not out.ok:
            return out.record, None
        known_u.update(out.values)
        # the widened variant pins the mu history blocks as well
        first = t - (mu if out.variant == "extended" else 0)
        _fill_codeword_blocks(code, work, known_u, ubound, first, t + j)
        return out.record, first

    windows, lost = _slide(code, work, mu, max_delay, distances, guard,
                           window, attempt)
    return _report("gm", code, stream, work, known_u, windows, lost, ops)


# ---------------------------------------------------------------------------
# parity-check decoding
# ---------------------------------------------------------------------------

def _pc_system(code: ConvCode, stream: ErasureStream, t: int, j: int):
    """Syndrome equations over blocks t-nu..t+j, every erased symbol an
    unknown, as packed [A^T | B^T] rows for _solve: one per syndrome
    s_{t+r}[i], r = 0..j, holding H_s[i][pos] at the column of each erased
    v_{t+r-s}[pos], with each received symbol's product moved to the
    right-hand side; blocks outside the stream are zeros and add nothing.
    Returns (unknowns, equations, solve): unknowns lists the erased
    (block, position) pairs in time order and solve(ops) builds the rows
    and solves, so a caller can reject on the counts first."""
    blocks = stream.blocks
    span = range(max(0, t - code.H.degree), min(len(blocks), t + j + 1))
    unknowns = [(tb, pos) for tb in span
                for pos, v in enumerate(blocks[tb]) if v is None]
    equations = (j + 1) * (code.n - code.k)

    def solve(ops):
        fld, r = code.field, len(unknowns)
        sub, mul = fld._vsub, fld._vmul
        hs = [h.to_packed() for h in code.H.coeffs]
        at = {u: c for c, u in enumerate(unknowns)}
        rows = []
        for tr in range(t, t + j + 1):
            for i in range(code.n - code.k):
                row = [0] * (r + 1)
                for s, h in enumerate(hs):
                    tb = tr - s
                    if not 0 <= tb < len(blocks):
                        continue
                    for pos, (x, v) in enumerate(zip(h[i], blocks[tb])):
                        if v is None:
                            row[at[tb, pos]] = x
                        elif x and v.val:
                            row[r] = sub(row[r], mul(x, v.val))
                rows.append(row)
        return _solve(fld, rows, r, ops, "syndrome equations are contradictory")

    return unknowns, equations, solve


def pc_guard_recover(code: ConvCode, stream: ErasureStream, position: int,
                     j: int, ops: _Ops | None = None) -> GuardOutcome:
    """Attempt full recovery of the window v_{position-nu}..v_{position+j}
    with no clean history: every erased symbol in the window is unknown."""
    if code.H is None:
        raise NoParityCheck("no parity check supplied")
    unknowns, equations, solve = _pc_system(code, stream, position, j)
    rec = WindowRecord(position, j, len(unknowns), equations,
                       "not_recoverable", "pc_guard")
    if len(unknowns) <= equations:  # more unknowns cannot be unique
        x, pinned = solve(ops)
        if all(pinned):
            values = {u: Element(code.field, v) for u, v in zip(unknowns, x)}
            return GuardOutcome(True, "window", values,
                                replace(rec, outcome="guard_recovered"))
    return GuardOutcome(False, None, None, rec)


def pc_decode_forward(code: ConvCode, stream: ErasureStream,
                      max_delay: int | None = None,
                      distances=None, guard: bool = True) -> DecodeReport:
    """Sliding-window symbol recovery through the parity check.

    Recovers codeword symbols rather than message coefficients; the
    report's message is extracted afterwards when the stream comes out
    complete.  Each window takes the history v_{t-nu}..v_{t-1} as clean,
    and the zero state supplies it at the start.  guard=False stops at the
    first stall as in gm_decode_forward.
    """
    if code.H is None:
        raise NoParityCheck("no parity check supplied")
    nu = code.H.degree
    ops = _Ops()
    work = stream.copy()

    def fill(values):
        for (tb, pos), val in values:
            work.blocks[tb][pos] = val

    def window(t, j):
        if not work.erased_positions(t):
            return None, t + 1  # clean blocks need no window
        unknowns, equations, solve = _pc_system(code, work, t, j)
        x, pinned = solve(ops)
        determined = [(pos, Element(code.field, v))
                      for pos, v, p in zip(unknowns, x, pinned) if p]
        fill(determined)
        outcome = ("recovered" if len(determined) == len(unknowns)
                   else "partial" if determined else "stalled")
        rec = WindowRecord(t, j, len(unknowns), equations, outcome, "pc")
        return rec, None if work.erased_positions(t) else t + 1

    def attempt(t, j):
        out = pc_guard_recover(code, work, t, j, ops)
        if not out.ok:
            return out.record, None
        fill(out.values.items())
        return out.record, t - nu

    windows, lost = _slide(code, work, nu, max_delay, distances, guard,
                           window, attempt)
    message: dict[int, tuple[Element, ...]] = {}
    if not lost and work.is_complete:
        message = extract_message(code, work)
    # the syndrome windows at the stream head borrow this many virtual zero
    # blocks as their clean history
    return _report("pc", code, stream, work, message, windows, lost, ops,
                   zero_state_blocks=nu)


# ---------------------------------------------------------------------------
# message extraction from a corrected stream
# ---------------------------------------------------------------------------

def extract_message(code: ConvCode,
                    stream: ErasureStream) -> dict[int, tuple[Element, ...]]:
    """Solve the whole-stream system for the message coefficients.

    Each symbol v_t[c] gives sum_s u_{t-s} G_s[:, c] = v_t[c], u_t unknown for
    0 <= t < top (the stream length, or message_degree_bound + 1 if smaller)
    and zero otherwise; returns u_t for every block t.  Raises LengthMismatch
    (n or field not the code's), ValueError (a block with erasures),
    InconsistentStream (not a codeword) or NonUnique (message not pinned).

    Every block is checked for erasures before anything is solved.  When G_0
    has rank k (every delay-free code) the system is block-triangular with
    injective diagonal blocks, so the message is unique if it exists and is
    read off by forward substitution, one block at a time: u_t from the
    pivot columns of v_t - sum_{s>=1} u_{t-s} G_s, then the whole block
    checked against u_t G_0 (against zero for t >= top).  Otherwise the
    whole stream is one _gm_system window, blocks 0 .. T-1 with no known
    history, solved once.
    """
    _check_match(code, stream)
    fld, k = code.field, code.k
    T = len(stream.blocks)
    for tb, blk in enumerate(stream.blocks):
        if any(v is None for v in blk):
            raise ValueError(f"block {tb} still has erasures")
    ubound = message_degree_bound(code, stream)
    top = T if ubound is None else max(0, min(T, ubound + 1))
    gs = [g.to_packed() for g in code.G.coeffs]
    inverse = _pivot_inverse(fld, gs[0], code.n)
    if inverse is None:
        rows, r, _ = _gm_system(code, stream, {}, ubound, 0, T)
        x, pinned = _solve(fld, rows, r, None, "blocks are not a codeword window")
        if not all(pinned):
            raise NonUnique("window too short to pin the message down")
        u = [x[t * k:(t + 1) * k] for t in range(top)]
    else:
        v = [[e.val for e in blk] for blk in stream.blocks]
        u = _substitute(fld, gs, v, top, *inverse)
    zeros = (fld.zero,) * k
    return {t: tuple(Element(fld, x) for x in u[t]) if t < top else zeros
            for t in range(T)}


def _pivot_inverse(fld, g0: list[list[int]], n: int):
    """(P, rows of G_0[:, P]^-1) for k pivot columns P of G_0, or None when
    rank G_0 < k.  The reduced row echelon form of [G_0 | I] is [R | E] with
    R = E G_0; when every pivot lies in G_0, R[:, P] = I, so E is the inverse."""
    k = len(g0)
    rows = [row + [int(i == j) for j in range(k)] for i, row in enumerate(g0)]
    basis = _rref(fld, rows, n + k)
    if any(p >= n for p in basis):
        return None
    pivots = sorted(basis)
    inv = []
    for p in pivots:
        e = [0] * k
        for j, x in basis[p]:
            if j >= n:
                e[j - n] = x
        inv.append(e)
    return pivots, inv


def _substitute(fld, gs, v, top: int, pivots: list[int], inv: list[list[int]]):
    """Forward substitution through G_0 = gs[0]: with the history sum
    h_t = sum_{s>=1} u_{t-s} G_s, u_t = (v_t - h_t)[P] G_0[:, P]^-1, and
    the whole block must agree, h_t + u_t G_0 = v_t; u_t = 0 for t >= top.
    Returns u_0 .. u_{top-1} packed."""
    sub = fld._vsub
    u: list[list[int]] = []
    for t, vt in enumerate(v):
        acc = [0] * len(vt)
        for s in range(max(1, t - top + 1), min(len(gs), t + 1)):
            acc = _vecmat(fld, acc, u[t - s], gs[s])
        if t < top:
            ut = _vecmat(fld, [0] * len(pivots), [sub(vt[p], acc[p]) for p in pivots], inv)
            acc = _vecmat(fld, acc, ut, gs[0])
            u.append(ut)
        if acc != vt:
            raise InconsistentStream("blocks are not a codeword window")
    return u

