"""Uniqueness oracles for both decoders: brute force on short streams,
linear algebra on long ones.

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

For streams of 20 to 40 blocks over GF(2), GF(3) and GF(16) the oracle is
the whole-stream generator matrix instead: a linear function of the
message is the same for every consistent message exactly when its vector
lies in the column span of the received columns.  The test builds that
matrix from G and eliminates on plain integers with its own field tables.
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


# -- linear-algebra oracle for long streams -----------------------------------

# (p, m, G, H) with H(z) G(z)^T = 0 and a full-rank top coefficient of G
LONG_CODES = {
    "gf2_522": (2, 1) + CODES["gf2_522"][1:],
    "gf2_75": (2, 1) + CODES["gf2_75"][1:],
    "gf3_mu2": (3, 1) + CODES["gf3_mu2"][1:],
    # G = (g1, g2) and H = (g2, g1), which is (g2, -g1) in characteristic 2
    "gf16_pair": (2, 4, [[[1, 3]], [[2, 9]], [[7, 1]]], [[[3, 1]], [[9, 2]], [[1, 7]]]),
}


class _Tables:
    """Arithmetic on packed values of GF(p) or GF(2^m): schoolbook products
    reduced by the modulus, and inverses by search."""

    def __init__(self, p, m, modulus):
        q = p ** m

        def mul(a, b):
            if m == 1:
                return a * b % p
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a >> m & 1:
                    a ^= modulus
            return acc

        self.p = p
        self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]
        self.inv = [0] + [self.mul[a].index(1) for a in range(1, q)]

    def add(self, a, b):
        return a ^ b if self.p == 2 else (a + b) % self.p

    def sub(self, a, b):
        return a ^ b if self.p == 2 else (a - b) % self.p


def _stream_generator(G, blocks, T):
    """Rows u_{s,r} (s < blocks), columns v_{t,c} (t < T): the matrix with
    v = u M for every message of the given number of blocks."""
    k, n = len(G[0]), len(G[0][0])
    M = [[0] * (T * n) for _ in range(blocks * k)]
    for s in range(blocks):
        for d, gd in enumerate(G):
            if s + d < T:
                for r in range(k):
                    M[s * k + r][(s + d) * n:(s + d + 1) * n] = gd[r]
    return M


def _reduce(ar, basis, v):
    """v minus its combination of the basis rows, on the basis pivots."""
    v = list(v)
    for piv, row in basis:
        f = v[piv]
        if f:
            fm = ar.mul[f]
            v = [ar.sub(a, fm[b]) for a, b in zip(v, row)]
    return v


def _span_basis(ar, vectors):
    """Echelon basis of the span: (pivot, row) pairs, each row monic at its
    pivot and zero at every earlier pivot."""
    basis = []
    for v in vectors:
        v = _reduce(ar, basis, v)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is not None:
            im = ar.mul[ar.inv[v[piv]]]
            basis.append((piv, [im[x] for x in v]))
    return basis


def _long_received(ar, G, q, rng, T, burst):
    """Codeword of a random message of T - mu blocks, as symbol rows, and
    its erasure flags: i.i.d. or one burst over a light i.i.d. background."""
    blocks = T - (len(G) - 1)
    k, n = len(G[0]), len(G[0][0])
    u = [rng.randrange(q) for _ in range(blocks * k)]
    M = _stream_generator(G, blocks, T)
    word = [0] * (T * n)
    for row, coef in zip(M, u):
        if coef:
            cm = ar.mul[coef]
            word = [ar.add(w, cm[x]) for w, x in zip(word, row)]
    if burst:
        start, length = rng.randrange(T * n), rng.randrange(2 * n, 6 * n)
        flags = [start <= i < start + length or rng.random() < 0.05
                 for i in range(T * n)]
    else:
        prob = rng.choice((0.1, 0.25, 0.4))
        flags = [rng.random() < prob for _ in range(T * n)]
    return u, M, word, flags


@pytest.mark.parametrize("name", sorted(LONG_CODES))
def test_long_streams_fill_only_the_span(name):
    p, m, G, H = LONG_CODES[name]
    fld = field(p, m)
    code = ConvCode(len(G[0][0]), len(G[0]), PolyMatrix.from_packed(fld, G),
                    PolyMatrix.from_packed(fld, H))
    ar = _Tables(p, m, fld.modulus_packed)
    k, n, mu = code.k, code.n, len(G) - 1
    rng = random.Random(sum(map(ord, name)))
    filled = unpinned = lost_seen = 0
    for trial in range(12):
        T = rng.randrange(20, 41)
        u, M, word, flags = _long_received(ar, G, fld.q, rng, T, burst=trial % 3 == 2)
        cols = [[row[c] for row in M] for c in range(T * n)]
        basis = _span_basis(ar, (cols[c] for c in range(T * n) if not flags[c]))

        def pinned(vec):
            return not any(_reduce(ar, basis, vec))

        unpinned += sum(flags[c] and not pinned(cols[c]) for c in range(T * n))
        stream = ErasureStream(
            fld, n, [[None if flags[t * n + c] else fld.el(word[t * n + c])
                      for c in range(n)] for t in range(T)],
            origin_degree=T - 1 if trial % 2 else None)
        for decode in (gm_decode_forward, pc_decode_forward):
            rep = decode(code, stream)
            lost_seen += len(rep.lost_intervals)
            for t, blk in enumerate(rep.corrected.blocks):
                for i, val in enumerate(blk):
                    c = t * n + i
                    if not flags[c]:
                        continue
                    if val is None:
                        assert any(a <= t <= b for a, b in rep.lost_intervals), (t, i)
                        continue
                    assert pinned(cols[c]), (decode.__name__, t, i)
                    assert val.val == word[c]
                    filled += 1
            for t, vals in rep.recovered_message.items():
                for r, e in enumerate(vals):
                    if t >= T - mu:  # past the message: a structural zero
                        assert e.val == 0, (decode.__name__, t, r)
                        continue
                    unit = [0] * len(M)
                    unit[t * k + r] = 1
                    assert pinned(unit), (decode.__name__, t, r)
                    assert e.val == u[t * k + r]
    # the streams must hold erasures the received symbols leave open, or the
    # span check could not tell a forced fill from a guess
    assert filled > 0 and unpinned > 0 and lost_seen > 0
