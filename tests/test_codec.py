"""Decoder behavior: the hand-worked example, guard spaces, and rates."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from convec import codec, field, sliding
from convec.channel import corrupt, parse_pattern
from convec.codec import (
    DecodeReport,
    Rate,
    _gm_system,
    _pc_system,
    extract_message,
    gm_decode_forward,
    gm_guard_recover,
    message_degree_bound,
    pc_decode_forward,
    pc_guard_recover,
    recovering_rates,
)
from convec.errors import (
    InconsistentStream,
    LengthMismatch,
    NonUnique,
    NoParityCheck,
    NotDelayFree,
)
from convec.linalg import Mat
from convec.polymat import ConvCode, PolyMatrix, code_from_json
from convec.stream import ErasureStream
from convec.sliding import generator_band, parity_band
from test_golden_decode import codes as golden_codes


def erase(stream, mask):
    """Apply per-block 1-based erasure positions in place."""
    for t, positions in enumerate(mask):
        for p in positions:
            stream.blocks[t][p - 1] = None
    return stream


def rand_message(fld, rng, deg, k=1):
    return PolyMatrix.from_packed(
        fld, [[[rng.randrange(fld.q) for _ in range(k)]] for _ in range(deg + 1)])


@pytest.fixture
def c5(pair_2_1):
    """Complete-jMDP for every j <= L = 2; the guard-space workhorse."""
    return pair_2_1(field(5), (1, 1), (1, 2))


# -- recovering rates --------------------------------------------------------

def test_rates_reference_values():
    r = recovering_rates(3, 2, 18, 27)
    assert (r["forward"].num, r["forward"].den) == (28, 84)
    r = recovering_rates(3, 1, 18, 27)
    assert (r["forward"].num, r["forward"].den) == (56, 84)
    assert (r["guard_G"].num, r["guard_G"].den) == (74, 138)
    assert (r["guard_H"].num, r["guard_H"].den) == (56, 111)
    assert str(r["guard_H"]) == "56/111"


def test_rates_agree_at_half_rate():
    for delta in range(1, 5):
        for j in range(6):
            for n, k in ((2, 1), (4, 2)):
                r = recovering_rates(n, k, delta, j)
                if delta % k:
                    assert "guard_G" not in r and "guard_H" not in r
                else:
                    assert r["guard_G"].fraction == r["guard_H"].fraction


def test_rates_divisibility_gates():
    assert set(recovering_rates(5, 2, 1, 3)) == {"forward"}
    assert set(recovering_rates(5, 2, 3, 3)) == {"forward", "guard_H"}
    assert set(recovering_rates(5, 3, 3, 3)) == {"forward", "guard_G"}
    with pytest.raises(ValueError):
        recovering_rates(3, 3, 1, 0)
    with pytest.raises(ValueError):
        recovering_rates(3, 1, 1, -1)
    with pytest.raises(ValueError):
        Rate(1, 0)


@pytest.mark.parametrize("delta, j", [(-2, 5), (-1, 0)])
def test_rates_refuse_negative_delta(delta, j):
    with pytest.raises(ValueError, match="^delta must be >= 0$"):
        recovering_rates(3, 1, delta, j)


# -- the hand-worked decode --------------------------------------------------

def test_worked_example_decode(code522, msg522, mask522):
    v = code522.encode(msg522)
    s = erase(ErasureStream.from_codeword(v), mask522)
    t0 = time.monotonic()
    rep = gm_decode_forward(code522, s)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert rep.complete
    assert rep.lost_intervals == []
    got = {t: [e.val for e in val] for t, val in rep.recovered_message.items()}
    assert got == {0: [1, 1], 1: [0, 0], 2: [1, 0], 3: [0, 1]}
    assert rep.message() == msg522
    assert rep.corrected.to_poly() == v
    assert rep.totals["erasures_seen"] == 9
    assert rep.totals["erasures_recovered"] == 9
    assert rep.totals["solve_ops_estimate"] > 0


def test_worked_example_window_traces(code522, msg522, mask522):
    s = erase(ErasureStream.from_codeword(code522.encode(msg522)), mask522)
    # without a distance profile the gate is optimistic: the three-erasure
    # block gets probed at j=0 before the window grows
    rep = gm_decode_forward(code522, s)
    assert [(w.t, w.j, w.outcome) for w in rep.windows] == [
        (0, 0, "recovered"), (1, 0, "recovered"), (2, 0, "recovered"),
        (3, 0, "stalled"), (3, 1, "recovered")]
    # with the true column distances (3, 5) the probe is skipped
    rep = gm_decode_forward(code522, s, distances=(3, 5))
    assert [(w.t, w.j, w.outcome) for w in rep.windows] == [
        (0, 0, "recovered"), (1, 0, "recovered"), (2, 0, "recovered"),
        (3, 1, "recovered")]


def test_worked_example_report_json(code522, msg522, mask522):
    s = erase(ErasureStream.from_codeword(code522.encode(msg522)), mask522)
    doc = gm_decode_forward(code522, s).to_json()
    assert doc["decoder"] == "gm"
    assert (doc["n"], doc["k"], doc["delta"]) == (5, 2, 2)
    assert doc["complete"] is True
    assert doc["lost_intervals"] == []
    assert doc["message"] == [[0, ["1", "1"]], [1, ["0", "0"]],
                              [2, ["1", "0"]], [3, ["0", "1"]]]
    assert all(set(w) == {"t", "j", "unknowns", "equations", "outcome", "solver"}
               for w in doc["windows"])


def test_worked_example_pc(code522h, msg522, mask522):
    v = code522h.encode(msg522)
    s = erase(ErasureStream.from_codeword(v), mask522)
    rep = pc_decode_forward(code522h, s)
    assert rep.complete
    assert rep.corrected.to_poly() == v
    assert rep.message() == msg522
    assert rep.totals["zero_state_blocks"] == 1
    # same stall-then-grow shape as the gm decoder
    assert [(w.t, w.j, w.outcome) for w in rep.windows] == [
        (0, 0, "recovered"), (1, 0, "recovered"), (2, 0, "recovered"),
        (3, 0, "stalled"), (3, 1, "recovered")]


# -- plain forward properties -------------------------------------------------

def test_zero_erasures_pass_through(c5):
    rng = random.Random(1)
    u = rand_message(c5.field, rng, 9)
    v = c5.encode(u)
    s = ErasureStream.from_codeword(v)
    rep = gm_decode_forward(c5, s)
    assert rep.complete and rep.message() == u
    assert all(w.j == 0 and w.outcome == "recovered" for w in rep.windows)
    assert len(rep.windows) == len(s)
    rep = pc_decode_forward(c5, s)
    assert rep.complete and rep.windows == [] and rep.message() == u


def test_stream_code_mismatch(code522, c5):
    s = ErasureStream(c5.field, 2, [[c5.field.zero, c5.field.one]])
    with pytest.raises(LengthMismatch):
        gm_decode_forward(code522, s)
    with pytest.raises(NoParityCheck):
        pc_decode_forward(code522, ErasureStream(code522.field, 5, []))


def test_nonstandard_generator_decodes_own_stream(pair_2_1):
    # a stream header names only p, m and the modulus; the code's JSON also
    # designates a generator, which must not make the two fields differ
    spec = pair_2_1(field(2, 3), (1, 2), (3, 1)).to_json()
    spec["field"]["primitive"] = "3"
    code = code_from_json(spec)
    assert code.field.alpha.val == 3
    u = rand_message(code.field, random.Random(4), 6)
    text = ErasureStream.from_codeword(code.encode(u)).to_text()
    s = erase(ErasureStream.from_text(text), [(), (2,), (), (1,)])
    rep = gm_decode_forward(code, s)
    assert rep.complete and rep.message() == u


def test_not_delay_free_rejected(gf2):
    G = PolyMatrix.from_packed(gf2, [[[0, 0]], [[1, 1]]])  # G(0) = 0
    code = ConvCode(2, 1, G)
    s = ErasureStream(gf2, 2, [[gf2.one, gf2.one]])
    with pytest.raises(NotDelayFree):
        gm_decode_forward(code, s)


def test_inconsistent_stream_detected(c5):
    rng = random.Random(2)
    u = rand_message(c5.field, rng, 6)
    s = ErasureStream.from_codeword(c5.encode(u))
    s.blocks[3][0] = s.blocks[3][0] + c5.field.one  # corrupt, not erase
    with pytest.raises(InconsistentStream):
        gm_decode_forward(c5, s)
    with pytest.raises(InconsistentStream):
        pc_decode_forward(c5, s)


# -- losing and regaining the guard space -------------------------------------

def test_burst_loss_and_guard_resume(c5):
    rng = random.Random(7)
    u = rand_message(c5.field, rng, 10)
    truth = ErasureStream.from_codeword(c5.encode(u))
    s = truth.copy()
    for t in (2, 3, 4):
        s.blocks[t][0] = s.blocks[t][1] = None
    rep = gm_decode_forward(c5, s)
    assert rep.lost_intervals == [(2, 4)]
    assert not rep.complete and rep.message() is None
    # u_4 comes back through the guard window even though v_2..v_4 are lost
    assert sorted(rep.recovered_message) == [0, 1] + list(range(4, 11))
    for t, val in rep.recovered_message.items():
        assert val[0] == u.coeff(t).data[0][0]
    assert [t for t in range(len(s)) if rep.corrected.erased_positions(t)] == [2, 3, 4]
    solvers = [w.solver for w in rep.windows if w.outcome == "guard_recovered"]
    assert solvers == ["gm_guard_window"]

    rep2 = pc_decode_forward(c5, s)
    assert rep2.lost_intervals == [(2, 4)]
    assert [t for t in range(len(s)) if rep2.corrected.erased_positions(t)] == [2, 3, 4]


def test_guard_toggle_off(c5):
    rng = random.Random(7)
    u = rand_message(c5.field, rng, 10)
    s = ErasureStream.from_codeword(c5.encode(u))
    for t in (2, 3, 4):
        s.blocks[t][0] = s.blocks[t][1] = None
    T = len(s)
    for decode in (gm_decode_forward, pc_decode_forward):
        rep = decode(c5, s, guard=False)
        assert rep.lost_intervals == [(2, T - 1)]
        assert not any("guard" in w.solver for w in rep.windows)


@pytest.mark.parametrize("decode, lost", [(gm_decode_forward, [(3, 4)]),
                                          (pc_decode_forward, [(3, 3)])])
def test_negative_max_delay_refused(code522h, decode, lost):
    rng = random.Random(3)
    u = rand_message(code522h.field, rng, 19, k=2)
    s = corrupt(ErasureStream.from_codeword(code522h.encode(u)),
                parse_pattern("12v 10* 40v"))
    # a zero delay cap still scans for a guard space after the stall
    rep = decode(code522h, s, max_delay=0)
    assert rep.lost_intervals == lost
    assert sum("guard" in w.solver for w in rep.windows) == 2
    for bad in (-1, -5):
        with pytest.raises(ValueError, match="^max_delay must be >= 0$"):
            decode(code522h, s, max_delay=bad)


def test_loss_to_stream_end(c5):
    rng = random.Random(8)
    u = rand_message(c5.field, rng, 7)
    s = ErasureStream.from_codeword(c5.encode(u))
    for t in range(3, len(s)):
        s.blocks[t][0] = s.blocks[t][1] = None
    for decode in (gm_decode_forward, pc_decode_forward):
        rep = decode(c5, s)
        assert rep.lost_intervals == [(3, len(s) - 1)]
        assert not rep.complete


def test_guard_window_variants(c5):
    rng = random.Random(9)
    u = rand_message(c5.field, rng, 10)
    truth = ErasureStream.from_codeword(c5.encode(u))
    # clean candidate window: the plain variant suffices
    s = truth.copy()
    for t in (2, 3):
        s.blocks[t][0] = s.blocks[t][1] = None
    out = gm_guard_recover(c5, s, 5, 0)
    assert out.ok and out.variant == "window"
    assert sorted(out.values) == [4, 5]
    # candidate inside the burst: nothing to work with
    out = gm_guard_recover(c5, s, 3, 0)
    assert not out.ok and out.values is None
    assert out.record.outcome == "not_recoverable"
    # a fully erased block forces the widened window over the neighbours
    s2 = truth.copy()
    s2.blocks[6][0] = s2.blocks[6][1] = None
    out = gm_guard_recover(c5, s2, 6, 1)
    assert out.ok and out.variant == "extended"
    assert sorted(out.values) == [4, 5, 6, 7]
    for t, val in out.values.items():
        assert val[0] == u.coeff(t).data[0][0]


def test_extended_guard_fills_history_blocks():
    # memory 2 code over GF(8); the widened window at candidate 3 reaches
    # back into the stall region and clears the burst entirely
    fld = field(2, 3)
    code = ConvCode(2, 1, PolyMatrix.from_packed(
        fld, [[[7, 4]], [[2, 1]], [[1, 3]]]))
    u = PolyMatrix.from_packed(
        fld, [[[c]] for c in (3, 3, 2, 7, 3, 7, 7, 1, 5, 6, 2)])
    truth = ErasureStream.from_codeword(code.encode(u))
    s = truth.copy()
    mask = [(), (1,), (1, 2), (1,), (1,), (1, 2), (), (), (), (), (1,), (1,), ()]
    erase(s, mask)
    rep = gm_decode_forward(code, s)
    fired = [(w.t, w.j) for w in rep.windows
             if w.solver == "gm_guard_extended" and w.outcome == "guard_recovered"]
    assert fired == [(3, 4)]
    # nothing is given up: the widened system pins the burst blocks too
    assert rep.lost_intervals == [] and rep.complete
    assert rep.corrected == truth
    assert rep.message() == u


def _distribution_ok(flat, n, k, s_max, total_budget):
    if sum(flat) > total_budget:
        return False
    for s in range(1, s_max + 1):
        if sum(flat[:s * n]) > s * (n - k):
            return False
        if sum(flat[len(flat) - s * n:]) > s * (n - k):
            return False
    return True


def test_guard_budget_premises(c5):
    """Erasure patterns within the guard-space budget premises always
    come back: total budget plus the s(n-k) prefix and suffix caps."""
    n, k, mu, nu = 2, 1, 1, 1
    rng = random.Random(3)
    hits_g = hits_h = 0
    for _ in range(700):
        u = rand_message(c5.field, rng, 12)
        truth = ErasureStream.from_codeword(c5.encode(u))
        c = rng.randrange(3, 8)
        j = rng.randrange(0, 2)  # widened window asks complete-(mu+j)-MDP
        w = (mu + j + 1) * n
        flat = [1 if rng.random() < 0.35 else 0 for _ in range(w)]
        if _distribution_ok(flat, n, k, j + mu, (n - k) * (j + 1) + (n - 2 * k) * mu):
            hits_g += 1
            s = truth.copy()
            for p, bit in enumerate(flat):
                if bit:
                    s.blocks[c - mu + p // n][p % n] = None
            out = gm_guard_recover(c5, s, c, j)
            assert out.ok
            for ut, val in out.values.items():
                want = u.coeff(ut).data[0][0] if ut <= u.degree else c5.field.zero
                assert val[0] == want
        j2 = rng.randrange(0, 3)
        w2 = (nu + j2 + 1) * n
        flat2 = [1 if rng.random() < 0.35 else 0 for _ in range(w2)]
        if _distribution_ok(flat2, n, k, j2 + 1, (n - k) * (j2 + 1)):
            hits_h += 1
            s = truth.copy()
            for p, bit in enumerate(flat2):
                if bit:
                    s.blocks[c - nu + p // n][p % n] = None
            out = pc_guard_recover(c5, s, c, j2)
            assert out.ok
            for (tb, pos), val in out.values.items():
                assert val == truth.blocks[tb][pos]
    assert hits_g > 100 and hits_h > 100


def test_mdp_window_budget_full_recovery(c5):
    """MDP forward guarantee: when every sliding 6-symbol window holds at
    most 3 erasures, forward decoding recovers everything."""
    rng = random.Random(4)
    done = 0
    while done < 30:
        T = rng.randrange(8, 18)
        flat = [1 if rng.random() < 0.35 else 0 for _ in range(2 * T)]
        if any(sum(flat[i:i + 6]) > 3 for i in range(len(flat) - 5)):
            continue
        u = rand_message(c5.field, rng, T - 2)
        truth = ErasureStream.from_codeword(c5.encode(u))
        s = truth.copy()
        for t in range(len(s)):
            for i in range(2):
                if flat[(t * 2 + i) % len(flat)]:
                    s.blocks[t][i] = None
        for decode in (gm_decode_forward, pc_decode_forward):
            rep = decode(c5, s, distances=(2, 3, 4))
            assert rep.complete and rep.lost_intervals == []
            assert rep.message() == u
        done += 1


def test_decoders_never_guess(c5):
    """Whatever the erasure pattern, reported symbols and message values are
    the transmitted ones, and unrepaired symbols sit in lost intervals."""
    rng = random.Random(99)
    outcomes = {"recovered", "partial", "stalled", "guard_recovered",
                "not_recoverable"}
    for _ in range(60):
        u = rand_message(c5.field, rng, rng.randrange(4, 14))
        truth = ErasureStream.from_codeword(c5.encode(u))
        s = truth.copy()
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        for t in range(len(s)):
            for i in range(2):
                if rng.random() < p:
                    s.blocks[t][i] = None
        for decode in (gm_decode_forward, pc_decode_forward):
            rep = decode(c5, s)
            assert all(w.outcome in outcomes for w in rep.windows)
            for t in range(len(truth)):
                for i in range(2):
                    val = rep.corrected.blocks[t][i]
                    if val is not None:
                        assert val == truth.blocks[t][i]
                    elif s.blocks[t][i] is None:
                        assert any(a <= t <= b for a, b in rep.lost_intervals)
            for t, val in rep.recovered_message.items():
                if decode is gm_decode_forward:
                    want = u.coeff(t).data[0][0] if t <= u.degree else c5.field.zero
                    assert val[0] == want


def test_cross_decoder_agreement(c5):
    rng = random.Random(41)
    completes = 0
    for _ in range(40):
        u = rand_message(c5.field, rng, rng.randrange(5, 12))
        s = ErasureStream.from_codeword(c5.encode(u))
        for t in range(len(s)):
            for i in range(2):
                if rng.random() < 0.3:
                    s.blocks[t][i] = None
        a = gm_decode_forward(c5, s)
        b = pc_decode_forward(c5, s)
        if a.complete and b.complete:
            completes += 1
            assert a.corrected == b.corrected
            assert a.message() == b.message() == u
    assert completes > 10


# -- the generator-side system -------------------------------------------------

def dense_gm_system(code, stream, known_u, ubound, v_start, width):
    """The message-recovery system through the dense band, kept as a
    reference: generator_band's rows at the unknown message blocks and
    columns at the received symbols, the known history's product moved to
    the right-hand side, and the [A^T | B^T] rows solve_right builds."""
    fld, k, n, mu = code.field, code.k, code.n, code.G.degree
    zero = fld.zero
    band = generator_band(code.G, width - 1)  # row block r is u_{v_start - mu + r}
    unknown_times, row_idx, hist = [], [], []
    for r, ut in enumerate(range(v_start - mu, v_start + width)):
        structural = ut < 0 or (ubound is not None and ut > ubound)
        val = (zero,) * k if structural else known_u.get(ut)
        if val is None:
            unknown_times.append(ut)
            row_idx += range(r * k, (r + 1) * k)
            hist += [zero] * k
        else:
            hist += val
    kept, received = [], []
    for b in range(width):
        tb = v_start + b
        blk = stream.blocks[tb] if 0 <= tb < len(stream.blocks) else [zero] * n
        for pos, v in enumerate(blk):
            if v is not None:
                kept.append(b * n + pos)
                received.append(v)
    contrib = (Mat(fld, [hist]) * band).take_cols(kept).data[0]
    rhs = [v - c for v, c in zip(received, contrib)]
    a = band.take_rows(row_idx).take_cols(kept)
    rows = [[row[j].val for row in a.data] + [rhs[j].val] for j in range(len(kept))]
    return rows, len(row_idx), unknown_times


@pytest.mark.parametrize("name", sorted(golden_codes()))
def test_gm_system_matches_dense_band(name):
    # GF(2) with k = 2, GF(3), GF(5), GF(8), GF(16) and GF(27); windows that
    # start before block 0 and run past the stream end, with and without
    # known history and a message degree bound
    code = golden_codes()[name]
    fld, k, mu = code.field, code.k, code.G.degree
    rng = random.Random(name)
    T = 6
    stream = ErasureStream(fld, code.n, [
        [None if rng.random() < 0.3 else fld.random_element(rng) for _ in range(code.n)]
        for _ in range(T)])
    history = {t: tuple(fld.random_element(rng) for _ in range(k))
               for t in range(T) if rng.random() < 0.5}
    history[1] = (fld.zero,) * k  # a known zero block adds nothing to the rhs
    for known_u in (history, {}):
        for ubound in (None, T - 3):
            for v_start in range(-mu - 2, T + 2):
                for width in range(1, 4 + mu):
                    args = (code, stream, known_u, ubound, v_start, width)
                    assert _gm_system(*args) == dense_gm_system(*args), args
    # the guard variants of an attempt at t with delay j: no known history,
    # the window over v_t..v_{t+j} and the widened one over v_{t-mu}..v_{t+j}
    for t in range(T):
        for j in range(3):
            for v_start in (t, t - mu):
                args = (code, stream, {}, None, v_start, t + j + 1 - v_start)
                assert _gm_system(*args) == dense_gm_system(*args), args


# -- the parity-side system ----------------------------------------------------

def dense_pc_system(code, stream, t, j):
    """The syndrome system through the dense parity band, kept as a
    reference: parity_band's columns at the erased symbols of blocks
    t-nu..t+j, the received symbols' product negated on the right-hand side,
    in the [A^T | B^T] rows solve_right builds.  Blocks outside the stream
    are known zeros.  Returns (unknowns, rows, equations)."""
    fld, n, nu = code.field, code.n, code.H.degree
    band = parity_band(code.H, j)  # block column b is v_{t - nu + b}
    unknowns, unknown_cols, known_cols, received = [], [], [], []
    for b in range(j + 1 + nu):
        tb = t - nu + b
        blk = stream.blocks[tb] if 0 <= tb < len(stream.blocks) else [fld.zero] * n
        for pos, v in enumerate(blk):
            if v is None:
                unknowns.append((tb, pos))
                unknown_cols.append(b * n + pos)
            else:
                known_cols.append(b * n + pos)
                received.append(v)
    rhs = band.take_cols(known_cols) * Mat(fld, [received]).transpose()
    a = band.take_cols(unknown_cols)
    rows = [[e.val for e in a.data[i]] + [(-rhs.data[i][0]).val]
            for i in range(band.nrows)]
    return unknowns, rows, band.nrows


@pytest.mark.parametrize("name", sorted(golden_codes()))
def test_pc_system_matches_dense_band(name, monkeypatch):
    # GF(2) with n - k = 3, GF(3), GF(5), GF(8), GF(16) and GF(27); windows
    # that start before nu, run past the stream end or lie wholly outside it,
    # and the guard attempts of pc_guard_recover at every position
    code = golden_codes()[name]
    fld, n = code.field, code.n
    rng = random.Random(name)
    T = 6
    stream = ErasureStream(fld, n, [
        [None if rng.random() < 0.3 else fld.random_element(rng) for _ in range(n)]
        for _ in range(T)])
    stream.blocks[2] = [None] * n  # a wholly erased block
    stream.blocks[4] = [fld.zero] * n  # received zeros add nothing to the rhs
    seen = []

    class Captured(Exception):
        pass

    def capture(fld_, rows, r, ops, message):
        seen.append((rows, r))
        raise Captured

    monkeypatch.setattr(codec, "_solve", capture)
    for t in range(T + 3):
        for j in range(4):
            want_unknowns, want_rows, want_eqs = dense_pc_system(code, stream, t, j)
            want = [(want_rows, len(want_unknowns))]
            unknowns, equations, solve = _pc_system(code, stream, t, j)
            assert (unknowns, equations) == (want_unknowns, want_eqs), (t, j)
            with pytest.raises(Captured):
                solve(None)
            assert seen == want, (t, j)
            seen.clear()
            if len(unknowns) > equations:  # rejected on the counts, unsolved
                assert not pc_guard_recover(code, stream, t, j).ok
            else:
                with pytest.raises(Captured):
                    pc_guard_recover(code, stream, t, j)
            assert seen == (want if len(unknowns) <= equations else []), (t, j)
            seen.clear()


# -- message extraction --------------------------------------------------------

def test_extract_message_round_trip(c5):
    rng = random.Random(12)
    u = rand_message(c5.field, rng, 9)
    s = ErasureStream.from_codeword(c5.encode(u))
    got = extract_message(c5, s)
    assert sorted(got) == list(range(len(s)))
    for t, val in got.items():
        want = u.coeff(t).data[0][0] if t <= u.degree else c5.field.zero
        assert val[0] == want


def test_decoding_builds_no_sliding_matrix(monkeypatch):
    # both engines read the code's coefficients directly, in forward windows,
    # guard attempts and message extraction alike; only the verifiers build
    # sliding matrices.  The solver hands them packed rows, so decoding
    # builds no Mat at all; encoding the test's inputs still may
    def refuse(*args):
        raise AssertionError("decoding built a sliding matrix")

    def no_mat(*args, **kwargs):
        raise AssertionError("decoding built a Mat")

    def decoding(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(Mat, "__init__", no_mat)
            m.setattr(Mat, "_derived", classmethod(no_mat))
            return fn(*args)

    monkeypatch.setattr(sliding, "_build", refuse)
    rng = random.Random(19)
    solvers = set()
    for code in golden_codes().values():
        u = rand_message(code.field, rng, 24, code.k)
        clean = ErasureStream.from_codeword(code.encode(u))
        s = clean.copy()
        for t in range(len(s)):
            for pos in range(code.n):
                # a dense burst in the middle forces guard attempts
                if rng.random() < (0.9 if 8 <= t < 12 else 0.15):
                    s.blocks[t][pos] = None
        for decode in (gm_decode_forward, pc_decode_forward):
            solvers.update(w.solver for w in decoding(decode, code, s).windows)
        got = decoding(extract_message, code, clean)
        assert all(got[t] == tuple(u.coeff(t).data[0]) for t in range(u.degree + 1))
    assert {"gm", "pc", "gm_guard_window", "pc_guard"} <= solvers, solvers


def test_band_cache_stays_bounded_across_stream_lengths(pair_2_1, monkeypatch):
    # one code decoding streams of many lengths keeps nothing between them:
    # no sliding matrix is built and the code's attributes are the same
    # objects after every length as before the first
    def refuse(*args):
        raise AssertionError("decoding built a sliding matrix")

    monkeypatch.setattr(sliding, "_build", refuse)
    code = pair_2_1(field(5), (1, 1), (1, 2))
    before = dict(vars(code))
    polys = {name: {slot: getattr(pm, slot) for slot in type(pm).__slots__}
             for name, pm in (("G", code.G), ("H", code.H))}
    rng = random.Random(7)
    for deg in range(6, 40, 3):
        u = rand_message(code.field, rng, deg)
        s = ErasureStream.from_codeword(code.encode(u))
        for t in range(0, len(s), 4):
            s.blocks[t][rng.randrange(2)] = None
        gm = gm_decode_forward(code, s)
        pc = pc_decode_forward(code, s)
        assert gm.complete and pc.complete
        assert gm.message() == pc.message() == u
        assert vars(code).keys() == before.keys()
        assert all(vars(code)[key] is val for key, val in before.items())
        for name, slots in polys.items():
            pm = getattr(code, name)
            assert all(getattr(pm, slot) is val for slot, val in slots.items())


def test_extract_message_window_too_short(pair_2_1, gf2):
    gf3 = field(3)
    code = pair_2_1(gf3, (1, 0, 1), (1, 1, 1))  # memory two
    u = PolyMatrix.from_packed(gf3, [[[1]], [[2]], [[1]], [[0]], [[2]]])
    s = ErasureStream.from_codeword(code.encode(u))
    got = extract_message(code, s)
    assert all(got[t][0] == u.coeff(t).data[0][0] for t in range(5))
    # G = z (1, 1 + z) delays every message block by one, so with no origin
    # degree announced the last listed u_t reaches no listed codeword block
    delayed = ConvCode(2, 1, PolyMatrix.from_packed(gf2, [[[0, 0]], [[1, 1]], [[0, 1]]]),
                       PolyMatrix.from_packed(gf2, [[[1, 1]], [[1, 0]]]))
    u2 = PolyMatrix.from_packed(gf2, [[[1]], [[0]], [[1]], [[1]]])
    s2 = ErasureStream.from_codeword(delayed.encode(u2))
    s2.origin_degree = None
    with pytest.raises(NonUnique):
        extract_message(delayed, s2)


def test_extract_message_requires_known_blocks(c5):
    rng = random.Random(13)
    s = ErasureStream.from_codeword(c5.encode(rand_message(c5.field, rng, 5)))
    s.blocks[2][1] = None
    with pytest.raises(ValueError):
        extract_message(c5, s)


def test_message_degree_bound(code522, msg522, gf2):
    s = ErasureStream.from_codeword(code522.encode(msg522))
    assert message_degree_bound(code522, s) == 3
    s.origin_degree = None
    assert message_degree_bound(code522, s) is None
    # top coefficient loses rank when row degrees differ
    G = PolyMatrix.from_packed(gf2, [
        [[1, 0, 1], [0, 1, 0]],
        [[1, 1, 0], [0, 0, 0]],
    ])
    lop = ConvCode(3, 2, G)
    u = PolyMatrix.from_packed(gf2, [[[1, 0]], [[0, 1]]])
    s2 = ErasureStream.from_codeword(lop.encode(u))
    assert message_degree_bound(lop, s2) is None
