"""Stream model and text serialization."""

from __future__ import annotations

import random
import re
import time

import pytest

from convec import field
from convec.gf import Field, field_from_ref
from convec.errors import LengthMismatch, NotPrime, ParseError
from convec.polymat import PolyMatrix
from convec.stream import ErasureStream


def test_from_codeword_blocks(code522, msg522):
    v = code522.encode(msg522)
    s = ErasureStream.from_codeword(v)
    assert len(s) == 5
    assert s.origin_degree == 4
    assert s.symbol_count == 25
    assert s.is_complete
    for t in range(5):
        assert s.blocks[t] == list(v.coeff(t).data[0])
    assert s.to_poly() == v


def test_erasure_accounting(code522, msg522, mask522):
    s = ErasureStream.from_codeword(code522.encode(msg522))
    for t, positions in enumerate(mask522):
        for p in positions:
            s.blocks[t][p - 1] = None
    assert s.erased_positions(0) == (2, 3)
    assert s.erased_positions(2) == (3,)
    assert s.total_erasures == 9
    assert not s.is_complete
    assert s.window_erasures(0, 1) == 4
    assert s.window_erasures(3, 1) == 4
    # windows clip at the stream end
    assert s.window_erasures(4, 10) == 1
    assert s.window_erasures(0, 99) == 9
    with pytest.raises(ParseError):
        s.to_poly()


def test_copy_is_independent(code522, msg522):
    s = ErasureStream.from_codeword(code522.encode(msg522))
    c = s.copy()
    c.blocks[0][0] = None
    assert s.is_complete
    assert not c.is_complete
    assert s != c


def test_block_length_checked(gf2):
    with pytest.raises(LengthMismatch):
        ErasureStream(gf2, 3, [[gf2.zero, gf2.one]])


def test_foreign_symbol_rejected(gf2):
    gf3 = field(3)
    with pytest.raises(ParseError):
        ErasureStream(gf2, 2, [[gf3.one, gf2.zero]])


@pytest.mark.parametrize("symbol", [1, True, "1", 1.0], ids=["int", "bool", "str", "float"])
def test_symbol_that_is_not_an_element_is_a_type_error(symbol):
    fld = field(2, 4)
    with pytest.raises(TypeError, match=f"^block 1 holds {re.escape(repr(symbol))}, "):
        ErasureStream(fld, 3, [[fld.one, None, fld.zero], [fld.one, symbol, None]])


def test_copy_and_from_text_compare_no_field(code522, msg522, monkeypatch):
    # both build every symbol from the stream's own field, so no symbol's
    # field is checked again
    s = ErasureStream.from_codeword(code522.encode(msg522))
    s.blocks[1][3] = None
    text = s.to_text()

    def refuse(self, other):
        raise AssertionError("a Field was compared")

    monkeypatch.setattr(Field, "__eq__", refuse)
    c = s.copy()
    parsed = ErasureStream.from_text(text)
    monkeypatch.undo()
    assert c == s == parsed


def test_text_round_trip(code522, msg522, mask522, gf2):
    s = ErasureStream.from_codeword(code522.encode(msg522))
    for t, positions in enumerate(mask522):
        for p in positions:
            s.blocks[t][p - 1] = None
    text = s.to_text()
    assert text.splitlines()[0] == "#n=5 field=2^1:3 deg=4"
    assert text.splitlines()[1] == "0 1 ? ? 1"
    back = ErasureStream.from_text(text)
    assert back == s
    assert back.origin_degree == 4


def test_text_round_trip_unknown_degree(gf2):
    s = ErasureStream(gf2, 2, [[gf2.one, None], [None, gf2.zero]])
    assert s.origin_degree is None
    text = s.to_text()
    assert "deg=unknown" in text.splitlines()[0]
    assert ErasureStream.from_text(text) == s


@pytest.mark.parametrize("fld", [field(7), field(2, 4), field(3, 2), field(2, 769)],
                         ids=["prime", "binary", "general", "2^769"])
def test_text_round_trip_extension_field(fld):
    rng = random.Random(5)
    blocks = [[fld.el(rng.randrange(fld.q)) for _ in range(3)] for _ in range(4)]
    blocks[2][1] = None
    s = ErasureStream(fld, 3, blocks, origin_degree=3)
    text = s.to_text()
    back = ErasureStream.from_text(text)
    assert back == s and back.to_text() == text
    # symbols above 9 must have used hex digits
    body = text.split("\n", 1)[1]
    assert any(ch in "abcdef" for ch in body) is (fld.q > 10)


@pytest.mark.parametrize("text, exc", [
    ("0 1\n1 0\n", ParseError),                            # no header
    ("#n=x field=2^1:3 deg=0\n0\n", ParseError),           # bad n
    ("#n=2 field=2^1:3 deg=zz\n0 1\n", ParseError),        # bad degree
    ("#n=2 field=2^1:3\n0 1\n", ParseError),               # missing key
    ("#n=2 field=2^1:3 deg=0\n0 1 1\n", LengthMismatch),   # wrong width
    ("#n=2 field=2^1:3 deg=0\n0 g\n", ParseError),         # bad symbol
    # n and deg load only as to_text writes them: n=0 and n=-1 used to
    # raise ValueError, deg=-7 and deg=-2 to load, and the rest to load and
    # be written back differently
    ("#n=+2 field=2^1:3 deg=0\n0 1\n", ParseError),
    ("#n=0_2 field=2^1:3 deg=0\n0 1\n", ParseError),
    ("#n=\u0662 field=2^1:3 deg=0\n0 1\n", ParseError),
    ("#n=02 field=2^1:3 deg=0\n0 1\n", ParseError),
    ("#n=0 field=2^1:3 deg=0\n", ParseError),
    ("#n=-1 field=2^1:3 deg=0\n", ParseError),
    ("#n=2 field=2^1:3 deg=+0\n0 1\n", ParseError),
    ("#n=2 field=2^1:3 deg=0_0\n0 1\n", ParseError),
    ("#n=2 field=2^1:3 deg=00\n0 1\n", ParseError),
    ("#n=2 field=2^1:3 deg=-0\n0 1\n", ParseError),
    ("#n=2 field=2^1:3 deg=-7\n0 1\n", ParseError),      # below -1
    ("#n=2 field=2^1:3 deg=-2\n0 1\n", ParseError),
])
def test_from_text_errors(text, exc):
    with pytest.raises(exc):
        ErasureStream.from_text(text)


def test_zero_codeword_round_trips_at_degree_minus_one(code522):
    zero = PolyMatrix.zero(code522.field, 1, code522.n)
    s = ErasureStream.from_codeword(zero)
    assert s.origin_degree == -1 and len(s) == 1
    text = s.to_text()
    assert text.startswith("#n=5 field=2^1:3 deg=-1\n")
    back = ErasureStream.from_text(text)
    assert back == s and back.to_text() == text


@pytest.mark.parametrize("header, key", [
    ("#n=3 field=2^4:13 deg=0 n=4", "n"),     # used to load n = 4
    ("#n=3 field=2^4:13 field=2^4:13 deg=0", "field"),
    ("#deg=0 n=3 field=2^4:13 deg=unknown", "deg"),
    ("#n=3 field=2^4:13 deg=0 x=1 x=1", "x"),
])
def test_repeated_header_key(header, key):
    with pytest.raises(ParseError, match=f"^repeated header key {key}=$"):
        ErasureStream.from_text(f"{header}\n0 1 2\n")


@pytest.mark.parametrize("ref", ["2^3:1b", "2^3:fb", "2^3:-5", "2^1:-1"])
def test_out_of_range_modulus_in_header(ref):
    # each would re-read as a different in-range modulus (2^3:b or 2^1:3)
    with pytest.raises(ValueError, match="^malformed field reference"):
        ErasureStream.from_text(f"#n=2 field={ref} deg=0\n0 1\n")


def test_short_modulus_of_huge_degree_is_refused_at_once():
    # the modulus 0x13 stops at x^4, so its x^m coefficient is zero; the
    # reference used to be unpacked into m + 1 digits first, 5.7 s at m = 10^7
    for ref, error, message in (("2^10000000:13", ValueError, "modulus must be monic"),
                                ("2^1000000000:13", ValueError, "modulus must be monic"),
                                ("4^1000000000:13", NotPrime, "p = 4 is not prime")):
        start = time.perf_counter()
        with pytest.raises(error, match=f"^{message}$"):
            ErasureStream.from_text(f"#n=3 field={ref} deg=0\n")
        assert time.perf_counter() - start < 0.5, ref


@pytest.mark.parametrize("ref", ["0^3:b", "1^1:0", "-3^2:5"])
def test_characteristic_below_two_in_header(ref):
    # p = 0 used to reach a division by p before any check
    with pytest.raises(ValueError, match="^malformed field reference"):
        ErasureStream.from_text(f"#n=2 field={ref} deg=0\n0 1\n")


@pytest.mark.parametrize("token", ["0x1", "+1", "0_1", "01", "A", "-0", "\u0661"])
def test_non_canonical_symbol_is_refused(token):
    # each used to load as the value int(token, 16) and be written back
    # differently; only what to_hex writes loads
    text = f"#n=3 field=2^4:13 deg=unknown\n1 {token} a\n"
    with pytest.raises(ParseError, match=re.escape(f"line 2: bad symbol {token!r}")):
        ErasureStream.from_text(text)
    canonical = "#n=3 field=2^4:13 deg=unknown\n1 0 a\n"
    assert ErasureStream.from_text(canonical).to_text() == canonical


@pytest.mark.parametrize("text, message", [
    ("#n=3 field=2^4:13 deg=unknown\n\n1 2 3\n\n4 zz 6\n", "line 5: bad symbol 'zz'"),
    ("\n\n#n=3 field=2^4:13 deg=unknown\n1 2\n", "line 4: 2 tokens, expected 3"),
    ("#n=3 field=2^4:13 deg=unknown\n1 2 3\n4 zz 6\n", "line 3: bad symbol 'zz'"),
], ids=["blank-lines-before-symbol", "leading-blank-lines", "no-blank-lines"])
def test_from_text_errors_number_lines_as_they_stand(text, message):
    with pytest.raises((ParseError, LengthMismatch), match=f"^{re.escape(message)}$"):
        ErasureStream.from_text(text)


def iid_text(fld, blocks, seed):
    """The text of a stream over fld of `blocks` blocks of 3 uniform
    symbols, each erased with probability 0.1."""
    rng = random.Random(seed)
    rows = [[None if rng.random() < 0.1 else fld.el(rng.randrange(fld.q))
             for _ in range(3)] for _ in range(blocks)]
    return ErasureStream(fld, 3, rows, blocks - 1).to_text()


def test_from_text_builds_one_element_per_distinct_token(element_builds):
    text = iid_text(field_from_ref("2^4:13"), 100, 11)  # the header's field, cached
    tokens = set(text.split("\n", 1)[1].split()) - {"?"}
    element_builds[0] = 0
    s = ErasureStream.from_text(text)
    assert element_builds[0] <= len(tokens) <= 16
    assert s.to_text() == text
    # equal symbols are one shared Element
    assert len({id(e) for b in s.blocks for e in b if e is not None}) == len(tokens)


def test_bad_token_is_named_at_its_first_line(element_builds):
    # a repeated bad token is refused where it first stands, after the good
    # tokens before it were parsed once each
    text = "#n=3 field=2^4:13 deg=unknown\n1 2 3\n2 1 3\n3 g 1\ng 2 1\n"
    field_from_ref("2^4:13")  # the header's field, built and cached
    element_builds[0] = 0
    with pytest.raises(ParseError, match="^line 4: bad symbol 'g'$"):
        ErasureStream.from_text(text)
    assert element_builds[0] == 3


@pytest.mark.parametrize("ref", ["+2^0_4:+1_3", "02^4:13", "2^+4:13", "2^04:13",
                                 "2^4:0x13", "2^4:013", "2^4:1_3", "2^4:13A",
                                 "2^\u0664:13"])
def test_non_canonical_field_reference_is_refused(ref):
    # p and m in decimal and the modulus in hex, each exactly as ref() writes
    # them; +2^0_4:+1_3 used to load as 2^4:13
    with pytest.raises(ValueError, match="^malformed field reference"):
        ErasureStream.from_text(f"#n=3 field={ref} deg=0\n1 2 3\n")
