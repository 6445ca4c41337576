"""Brute-force uniqueness oracle for both decoders.

Over GF(2) and GF(3), with at most six message blocks, every message whose
codeword matches the received symbols is enumerated by a depth-first search
on plain integers.  Whatever a decoder reports must be forced: each symbol
it fills and each message coefficient it returns takes one value across all
consistent messages, and each symbol it leaves erased lies in a reported
lost interval.  The oracle encodes on its own and reads only the decoders'
reports.

Every code here has a full-rank top generator coefficient, so by the
predictable degree property a message whose codeword fits in T blocks has
at most T - mu blocks, with or without an announced origin degree.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from convec import field
from convec.codec import gm_decode_forward, pc_decode_forward
from convec.errors import NoParityCheck
from convec.polymat import ConvCode, PolyMatrix
from convec.stream import ErasureStream

# (p, G as [s][row][col], H as [s][row][col]) with H(z) G(z)^T = 0
CODES = {
    "gf2_522": (2,
                [[[1, 1, 0, 1, 1], [1, 0, 1, 1, 0]],
                 [[1, 1, 1, 1, 1], [0, 0, 0, 1, 1]]],
                [[[1, 1, 0, 1, 1], [1, 0, 0, 1, 0], [1, 1, 1, 0, 0]],
                 [[0, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 0, 1, 0, 0]]]),
    "gf2_75": (2, [[[1, 1]], [[1, 0]], [[1, 1]]], [[[1, 1]], [[0, 1]], [[1, 1]]]),
    "gf3_mu2": (3, [[[1, 1]], [[1, 2]], [[2, 1]]], [[[1, 2]], [[2, 2]], [[1, 1]]]),
}


def _encode_block(G, p, u, t):
    """Codeword block t of the message blocks u (blocks past u are zero)."""
    n, k = len(G[0][0]), len(G[0])
    out = [0] * n
    for s, gs in enumerate(G):
        if 0 <= t - s < len(u):
            for r in range(k):
                if u[t - s][r]:
                    for c in range(n):
                        out[c] += u[t - s][r] * gs[r][c]
    return [x % p for x in out]


def consistent_messages(G, p, blocks, received):
    """Every message of `blocks` blocks whose codeword agrees with each
    received (non-None) symbol of the T = len(received) blocks."""
    k = len(G[0])

    def agrees(u, t):
        return all(r is None or r == v
                   for r, v in zip(received[t], _encode_block(G, p, u, t)))

    found = []

    def extend(u):
        if len(u) == blocks:
            if all(agrees(u, t) for t in range(blocks, len(received))):
                found.append(list(u))
            return
        for vals in product(range(p), repeat=k):
            u.append(vals)
            if agrees(u, len(u) - 1):  # block t depends on u_0..u_t only
                extend(u)
            u.pop()

    extend([])
    return found


def _convcode(p, G, H):
    fld = field(p)
    return ConvCode(len(G[0][0]), len(G[0]), PolyMatrix.from_packed(fld, G),
                    PolyMatrix.from_packed(fld, H))


def _received(G, p, rng, blocks):
    """A random message's codeword with erasures: i.i.d. or one burst."""
    k = len(G[0])
    u = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(blocks)]
    T = blocks + len(G) - 1
    rx = [_encode_block(G, p, u, t) for t in range(T)]
    n = len(rx[0])
    if rng.random() < 0.7:
        prob = rng.choice((0.2, 0.35, 0.5, 0.7))
        flags = [rng.random() < prob for _ in range(T * n)]
    else:
        start, length = rng.randrange(T * n), rng.randrange(2, 3 * n)
        flags = [start <= i < start + length or rng.random() < 0.1
                 for i in range(T * n)]
    for i, erased in enumerate(flags):
        if erased:
            rx[i // n][i % n] = None
    return rx


def _check_forced(name, code, G, p, decoders):
    """Decode 40 random received words with each decoder and check every
    reported value against the oracle.  Returns the number of filled
    symbols, how many of them came from streams with several consistent
    messages, and the number of lost intervals."""
    fld = code.field
    mu, k = len(G) - 1, len(G[0])
    blocks = 5 if k == 2 else 6
    rng = random.Random(sum(map(ord, name)))
    filled = filled_ambiguous = lost_seen = 0
    for trial in range(40):
        rx = _received(G, p, rng, blocks)
        msgs = consistent_messages(G, p, blocks, rx)
        assert msgs  # the transmitted message is always consistent
        words = [[_encode_block(G, p, u, t) for t in range(len(rx))] for u in msgs]
        stream = ErasureStream(
            fld, code.n, [[None if x is None else fld.el(x) for x in blk] for blk in rx],
            origin_degree=len(rx) - 1 if trial % 2 else None)
        for decode in decoders:
            rep = decode(code, stream)
            lost_seen += len(rep.lost_intervals)
            for t, blk in enumerate(rep.corrected.blocks):
                for i, val in enumerate(blk):
                    if rx[t][i] is not None:
                        continue
                    if val is None:
                        assert any(a <= t <= b for a, b in rep.lost_intervals), (t, i)
                        continue
                    assert {w[t][i] for w in words} == {val.val}, (decode.__name__, t, i)
                    filled += 1
                    filled_ambiguous += len(msgs) > 1
            for t, vals in rep.recovered_message.items():
                options = {u[t] if t < blocks else (0,) * k for u in msgs}
                assert options == {tuple(e.val for e in vals)}, (decode.__name__, t)
            assert len(rep.corrected.blocks) == blocks + mu
    return filled, filled_ambiguous, lost_seen


@pytest.mark.parametrize("name", sorted(CODES))
def test_reported_values_are_forced(name):
    p, G, H = CODES[name]
    _, filled_ambiguous, lost_seen = _check_forced(
        name, _convcode(p, G, H), G, p, (gm_decode_forward, pc_decode_forward))
    # the corpus must exercise partial knowledge and losses, not only easy streams
    assert filled_ambiguous > 0 and lost_seen > 0


def test_gm_decodes_catastrophic_code():
    # G = [1+z, 1+2z^2] over GF(3): 1+z divides both entries, so the code is
    # catastrophic and has no polynomial parity check.  The gm engine needs
    # neither a parity check nor non-catastrophicity; whatever it fills must
    # still be forced.
    p, G = 3, [[[1, 1]], [[1, 0]], [[0, 2]]]
    fld = field(p)
    code = ConvCode(2, 1, PolyMatrix.from_packed(fld, G))
    assert code.flags.noncatastrophic_certified is False
    with pytest.raises(NoParityCheck):
        pc_decode_forward(code, ErasureStream(fld, 2, [[fld.one, None]]))
    filled, filled_ambiguous, lost_seen = _check_forced(
        "gf3_catastrophic", code, G, p, (gm_decode_forward,))
    assert filled > 0 and filled_ambiguous > 0 and lost_seen > 0
