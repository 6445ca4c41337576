"""Message extraction: forward substitution through G_0 and the packed
whole-stream solve against the dense band route they replaced, and the
stream/code checks around them.

``dense_extract`` is that route kept as a test-local reference: the
whole-stream generator band ``generator_band(G, T - 1)``, its rows at the
unknown message blocks, and ``solve_right`` against every received symbol.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile

import pytest

from convec import field, linalg, sliding
from convec.cli import main
from convec.codec import (
    extract_message,
    gm_decode_forward,
    message_degree_bound,
    pc_decode_forward,
)
from convec.construct import random_code
from convec.errors import InconsistentStream, LengthMismatch, NonUnique
from convec.linalg import Mat, solve_right
from convec.polymat import ConvCode, PolyMatrix
from convec.sliding import generator_band
from convec.stream import ErasureStream
from test_golden_decode import _rate_third, codes


def dense_extract(code, stream):
    """The whole-stream solve through the dense band: u_t is unknown for
    0 <= t <= message_degree_bound (every listed t without one) and zero
    otherwise."""
    fld, k, mu = code.field, code.k, code.G.degree
    T = len(stream.blocks)
    for tb in range(T):
        if stream.erased_positions(tb):
            raise ValueError(f"block {tb} still has erasures")
    if not T:
        return {}  # no equations and no unknowns; there is no band of depth -1
    ubound = message_degree_bound(code, stream)
    unknown = [t for t in range(T) if ubound is None or t <= ubound]
    band = generator_band(code.G, T - 1)  # row block r is u_{r - mu}
    a = band.take_rows([(t + mu) * k + r for t in unknown for r in range(k)])
    b = Mat(fld, [[v for blk in stream.blocks for v in blk]])
    res = solve_right(a, b)
    if res.status == "inconsistent":
        raise InconsistentStream("blocks are not a codeword window")
    if not res.is_unique:
        raise NonUnique("window too short to pin the message down")
    out = {t: tuple(res.solution.data[0][i * k:(i + 1) * k])
           for i, t in enumerate(unknown)}
    return {t: out.get(t, (fld.zero,) * k) for t in range(T)}


def outcome(extract, code, stream):
    try:
        return extract(code, stream)
    except (ValueError, InconsistentStream, NonUnique) as exc:
        return type(exc), str(exc)


def encoded(code, rng, blocks):
    u = PolyMatrix.from_packed(code.field, [
        [[rng.randrange(code.field.q) for _ in range(code.k)]] for _ in range(blocks)])
    return u, ErasureStream.from_codeword(code.encode(u))


def degree_variants(stream, mu):
    """The stream with its origin degree announced, withheld, shorter than
    the listed blocks, longer, and so short that the message bound is
    below -1."""
    T = len(stream.blocks)
    for deg in (stream.origin_degree, None, T - 2, T + 1, mu - 3):
        s = stream.copy()
        s.origin_degree = deg
        yield s


def tampered(stream, rng):
    s = stream.copy()
    tb, pos = rng.randrange(len(s.blocks)), rng.randrange(s.n)
    s.blocks[tb][pos] = s.blocks[tb][pos] + s.field.one
    return s


def random_streams():
    """(code, stream) pairs over GF(2), GF(3), GF(16), GF(27), GF(512) and
    GF(729), the last two past the exp/log tables, so their inverses go
    through the polynomial kernels: codewords under every origin-degree
    variant, one-block streams, tampered codewords, a zero stream whose
    message bound is below -1, and uniformly random complete streams."""
    rng = random.Random(4242)
    for q in (2, 3, 16, 27, 512, 729):
        for n, k, delta, seed in ((2, 1, 1, 1), (3, 1, 2, 2), (3, 2, 2, 3)):
            code = random_code(n, k, delta, q, seed=seed)
            mu = code.G.degree
            for blocks in (1, 2, 5, 9):
                u, s = encoded(code, rng, blocks)
                for v in degree_variants(s, mu):
                    yield code, v
                yield code, tampered(s, rng)
            yield code, ErasureStream(code.field, n, [s.blocks[0]], None)
            yield code, ErasureStream(code.field, n, [[code.field.zero] * n] * 4, mu - 3)
            yield code, ErasureStream(code.field, n, [[code.field.el(rng.randrange(q))
                                                      for _ in range(n)]
                                                     for _ in range(6)], None)


def test_extraction_matches_dense_route_on_golden_codes():
    rng = random.Random(99)
    for cname, code in codes().items():
        for blocks in (1, 4, 12):
            _, s = encoded(code, rng, blocks)
            for v in [*degree_variants(s, code.G.degree), tampered(s, rng)]:
                want = outcome(dense_extract, code, v)
                assert outcome(extract_message, code, v) == want, (cname, blocks)


def test_extraction_matches_dense_route_on_random_streams():
    kinds = set()
    for code, s in random_streams():
        want = outcome(dense_extract, code, s)
        assert outcome(extract_message, code, s) == want
        kinds.add(type(want) if isinstance(want, dict) else want[0])
    assert kinds == {dict, InconsistentStream}


def test_extraction_matches_dense_route_on_delayed_code(gf2):
    # G = z (1, 1 + z) delays every message block by one, so with no origin
    # degree announced the last listed u_t reaches no listed codeword block
    delayed = ConvCode(2, 1, PolyMatrix.from_packed(gf2, [[[0, 0]], [[1, 1]], [[0, 1]]]),
                       PolyMatrix.from_packed(gf2, [[[1, 1]], [[1, 0]]]))
    u = PolyMatrix.from_packed(gf2, [[[1]], [[0]], [[1]], [[1]]])
    s = ErasureStream.from_codeword(delayed.encode(u))
    s.origin_degree = None
    got = outcome(extract_message, delayed, s)
    assert got[0] is NonUnique
    assert got == outcome(dense_extract, delayed, s)


def test_extraction_matches_dense_route_when_g0_pivots_are_not_leading():
    # G_0 = [[1, 1, 0], [1, 1, 1]] has rank 2 with pivot columns 0 and 2
    gf3 = field(3)
    code = ConvCode(3, 2, PolyMatrix.from_packed(gf3, [[[1, 1, 0], [1, 1, 1]],
                                                      [[0, 2, 1], [1, 0, 2]]]))
    rng = random.Random(17)
    kinds = set()
    for blocks in (1, 3, 8):
        _, s = encoded(code, rng, blocks)
        for v in [*degree_variants(s, code.G.degree), tampered(s, rng)]:
            want = outcome(dense_extract, code, v)
            assert outcome(extract_message, code, v) == want
            kinds.add(type(want) if isinstance(want, dict) else want[0])
    assert kinds == {dict, InconsistentStream}


def test_nonzero_block_past_the_message_is_inconsistent():
    code = random_code(3, 1, 2, 16, seed=0, want="mdp")
    fld = code.field
    _, s = encoded(code, random.Random(3), 6)
    top = message_degree_bound(code, s) + 1
    # one more block at t = top + mu, which no message coefficient reaches
    late = ErasureStream(fld, 3, s.blocks + [[fld.zero, fld.one, fld.zero]],
                         s.origin_degree)
    assert len(s.blocks) == top + code.G.degree
    want = (InconsistentStream, "blocks are not a codeword window")
    assert outcome(dense_extract, code, late) == want
    assert outcome(extract_message, code, late) == want


def test_an_erased_block_wins_over_an_earlier_inconsistency():
    code = random_code(3, 1, 2, 16, seed=0, want="mdp")
    _, s = encoded(code, random.Random(4), 8)
    s.blocks[1][0] = s.blocks[1][0] + code.field.one
    s.blocks[6][2] = None
    want = (ValueError, "block 6 still has erasures")
    assert outcome(dense_extract, code, s) == want
    assert outcome(extract_message, code, s) == want


def test_extraction_of_no_blocks_on_both_routes(gf2):
    delayed = ConvCode(2, 1, PolyMatrix.from_packed(gf2, [[[0, 0]], [[1, 1]], [[0, 1]]]))
    for code in (random_code(3, 1, 2, 16, seed=0, want="mdp"), delayed):
        for deg in (None, 0, -5):
            s = ErasureStream(code.field, code.n, [], deg)
            assert outcome(extract_message, code, s) == outcome(dense_extract, code, s) == {}


def test_extraction_work_is_linear_in_the_stream_length(monkeypatch):
    # Field products per call, and entries walked by the elimination.  The
    # banded whole-stream solve has little fill-in, so its product count is
    # nearly linear too, but it walks every entry of T*n rows of T*k + 1
    # ints: about 4x per doubling.
    code = random_code(3, 1, 2, 16, seed=0, want="mdp")
    fld = code.field
    rng = random.Random(8)
    products, walked = [], []
    originals = fld._vmul, linalg._reduce
    for blocks in (100, 200, 400):
        _, s = encoded(code, rng, blocks)
        count = {"mul": 0, "walk": 0}

        def mul(a, b, mul=fld._vmul, count=count):
            count["mul"] += 1
            return mul(a, b)

        def reduce(fld, x, basis, reduce=linalg._reduce, count=count):
            count["walk"] += len(x)
            return reduce(fld, x, basis)

        with monkeypatch.context() as m:
            m.setattr(fld, "_vmul", mul)
            m.setattr(linalg, "_reduce", reduce)
            extract_message(code, s)
        products.append(count["mul"])
        walked.append(count["walk"])
    assert (fld._vmul, linalg._reduce) == originals
    for counts in (products, walked):
        assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts


def test_extraction_leaves_no_band_on_the_code(monkeypatch):
    # extraction reads G's coefficients directly: it builds no generator
    # band and stores nothing on the code
    def refuse(*args):
        raise AssertionError("extraction built a sliding matrix")

    monkeypatch.setattr(sliding, "_build", refuse)
    rng = random.Random(5)
    for code in codes().values():
        before = dict(vars(code))
        slots = {slot: getattr(code.G, slot) for slot in type(code.G).__slots__}
        _, s = encoded(code, rng, 30)
        extract_message(code, s)
        assert vars(code).keys() == before.keys()
        assert all(vars(code)[key] is val for key, val in before.items())
        assert all(getattr(code.G, slot) is val for slot, val in slots.items())


# -- the stream must match the code -------------------------------------------

def mismatched(stream):
    fld, gf3 = stream.field, field(3)
    return {
        "n+1": ErasureStream(fld, stream.n + 1, [b + [fld.zero] for b in stream.blocks],
                             stream.origin_degree),
        "n-1": ErasureStream(fld, stream.n - 1, [b[:-1] for b in stream.blocks],
                             stream.origin_degree),
        "GF(3)": ErasureStream(gf3, stream.n, [[gf3.el(e.val) for e in b]
                                               for b in stream.blocks],
                               stream.origin_degree),
    }


def test_every_entry_point_refuses_a_stream_of_another_code(code522h, msg522):
    # the quick-start codeword of the README, padded, cut and moved to GF(3)
    s = ErasureStream.from_codeword(code522h.encode(msg522))
    for name, bad in mismatched(s).items():
        for run in (extract_message, gm_decode_forward, pc_decode_forward):
            with pytest.raises(LengthMismatch, match="does not match the code"):
                run(code522h, bad)


# -- a stream with no blocks ---------------------------------------------------

def test_both_engines_complete_a_stream_without_blocks():
    G = random_code(3, 1, 2, 16, seed=0, want="mdp").G
    entries = [[G.coeff(i).data[0][c].val for i in range(G.degree + 1)] for c in range(3)]
    code = _rate_third(G.field, *entries)
    assert code.G == G
    assert extract_message(code, ErasureStream(code.field, 3, [], None)) == {}
    with tempfile.TemporaryDirectory() as tmp:
        code_path, in_path = os.path.join(tmp, "code.json"), os.path.join(tmp, "s.txt")
        with open(code_path, "w") as fh:
            fh.write(json.dumps(code.to_json()))
        with open(in_path, "w") as fh:
            fh.write("#n=3 field=2^4:13 deg=unknown\n")
        for engine in ("gm", "pc"):
            rep_path = os.path.join(tmp, f"{engine}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(["decode", "--engine", engine, "--code", code_path,
                               "--in", in_path, "--report", rep_path])
            assert status == 0
            with open(rep_path) as fh:
                rep = json.load(fh)["report"]
            assert rep["complete"] is True and rep["message"] == []
