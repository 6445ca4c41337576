"""The explicit large-field construction and the seeded random search."""

from __future__ import annotations

import hashlib
import json
import sys
import time

import pytest

from convec import construct, field, gf
from convec.cli import main
from convec.construct import (
    alpha_exponent_layout,
    build_complete_mdp,
    degree_bounds,
    random_code,
    staircase_certificate,
    staircase_exponents,
)
from convec.distance import (
    L_of,
    column_bound,
    column_distance,
    is_mdp,
    verify_complete_jmdp_via_g,
)
from convec.errors import (
    DivisibilityViolated,
    FieldTooLarge,
    NotPrime,
    ParseError,
    SearchExhausted,
)
from convec.linalg import Mat, rank
from convec.polymat import code_from_json
from convec.stream import ErasureStream


@pytest.fixture(scope="module")
def built311():
    return build_complete_mdp(3, 1, 1, 2)


def test_degree_bounds_reference():
    # general figure 4*2^5, quoted figure 6*2^5; the build takes max+1
    assert degree_bounds(3, 1, 1) == (128, 192)


def test_pinned_code_entries(built311):
    code = built311
    fld = code.field
    assert fld.p == 2 and fld.m == 193
    assert fld.modulus_packed == (1 << 193) | 503
    a = fld.el(2)
    assert [code.G.coeff(0).data[0][c] for c in range(3)] == [a, a ** 2, a ** 4]
    assert [code.G.coeff(1).data[0][c] for c in range(3)] == [a ** 8, a ** 16, a ** 32]
    assert (code.n, code.k, code.delta, code.G.degree) == (3, 1, 1, 1)


def test_provenance_metadata(built311):
    prov = built311.metadata["provenance"]
    assert prov["N"] == 193
    assert prov["bound_general"] == 128
    assert prov["bound_coarse"] == 192
    assert prov["alpha"] == "x"
    # GF(2^193) designates no generator, so no primitivity claim
    assert "alpha_primitive_verified" not in prov
    assert prov["field"] == built311.field.ref()


def test_provenance_flag_set_explicitly(cold_fields):
    code = build_complete_mdp(3, 1, 1, 2)
    code.metadata["provenance"]["alpha_primitive_verified"] = True
    doc = json.loads(json.dumps(code.to_json()))
    assert doc["metadata"]["provenance"]["alpha_primitive_verified"] is True


def test_setup_does_no_factoring(cold_fields, monkeypatch):
    # building, certifying, writing and loading a construct code, or
    # parsing a large-field stream header, tests and factors only numbers
    # below 2^32, and imports no sympy: q - 1 of a large field is never
    # factored
    def small(fn):
        def refuse(n):
            assert n < gf.SMALL_INT, f"{fn.__name__} of a {n.bit_length()}-bit number"
            return fn(n)
        return refuse

    monkeypatch.setattr(gf, "_factorint", small(gf._factorint))
    monkeypatch.setattr(gf, "_isprime", small(gf._isprime))
    monkeypatch.setitem(sys.modules, "sympy", None)
    for shape, sets in (((3, 1, 1), 90), ((3, 2, 2), 361), ((3, 1, 2), 24204)):
        code = build_complete_mdp(*shape, 2)
        assert verify_complete_jmdp_via_g(code, 1).passed
        assert code.field.alpha is None
        doc = json.loads(json.dumps(code.to_json()))
        assert "primitive" not in doc["field"]
        assert doc["metadata"] == code.metadata
        assert code.metadata["provenance"]["N"] == code.field.m
        cold_fields.cache_clear()
        loaded = code_from_json(doc)
        assert loaded.field == code.field and loaded.metadata == code.metadata
        rep = verify_complete_jmdp_via_g(loaded, L_of(*shape))
        assert rep.passed and rep.sets_checked == sets
    modulus = (1 << 769) | 0b1011000001  # the GF(2^769) auto modulus
    stream = ErasureStream.from_text(f"#n=1 field=2^769:{modulus:x} deg=0\n1\n")
    assert stream.field.m == 769 and stream.blocks[0][0] == stream.field.one


def test_lazy_generator_output_unchanged(cold_fields):
    prov = build_complete_mdp(3, 1, 1, 2).metadata["provenance"]
    assert dict(prov) == {
        "construction": "doubling-exponent staircase", "N": 193,
        "bound_general": 128, "bound_coarse": 192, "alpha": "x",
        "field": "2^193:20000000000000000000000000000000000000000000001f7"}
    cold_fields.cache_clear()
    doc = build_complete_mdp(3, 1, 1, 2).to_json()
    assert doc["field"] == {"p": 2, "m": 193, "modulus": list(field(2, 193).modulus)}
    # the bytes `convec construct --n 3 --k 1 --delta 1 --p 2` writes
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "28b5198a100c2080fb6a2388cc630cbb5cfc115a603012feefbc7c5fa9e55c03")
    assert field(2, 193).alpha is None


def test_construct_file_loads_and_verifies_without_factoring(cold_fields, monkeypatch):
    # a (3,2,2,2) construct file, one written with the large field's old
    # primitive among them, loads and verifies with no number of 2^32 or
    # more factored or tested; writing it again names no primitive
    def small(fn):
        def refuse(n):
            assert n < gf.SMALL_INT, f"{fn.__name__} of a {n.bit_length()}-bit number"
            return fn(n)
        return refuse

    doc = json.loads(json.dumps(build_complete_mdp(3, 2, 2, 2).to_json()))
    for prim in (None, "2"):
        if prim is not None:
            doc["field"]["primitive"] = prim
        cold_fields.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(gf, "_factorint", small(gf._factorint))
            m.setattr(gf, "_isprime", small(gf._isprime))
            code = code_from_json(doc)
            rep = verify_complete_jmdp_via_g(code, L_of(3, 2, 2))
        assert rep.passed and rep.sets_checked == 361
        assert code.field.alpha is None
        assert "primitive" not in code.to_json()["field"]


def test_file_naming_a_large_field_generator_loads(tmp_path, cold_fields, capsys):
    # the bytes `convec construct --n 3 --k 1 --delta 1 --p 2` wrote while a
    # large field designated a generator, with its primitivity flag, still
    # load and verify; the field's primitive is type-checked and ignored
    doc = build_complete_mdp(3, 1, 1, 2).to_json()
    doc["field"]["primitive"] = "2"
    doc["metadata"]["provenance"]["alpha_primitive_verified"] = False
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a1af47ab136513fd888c7be5f09b1daaaae9a5e067c9fea785274d015f7a7ad3")
    cold_fields.cache_clear()
    code = code_from_json(json.loads(text))
    assert code.field == field(2, 193) and code.field.alpha is None
    assert code.metadata == doc["metadata"]
    codef, rep = tmp_path / "code.json", tmp_path / "rep.json"
    codef.write_text(text)
    assert main(["verify", "--code", str(codef), "--property", "complete-jmdp:G",
                 "--report", str(rep)]) == 0
    assert capsys.readouterr().out == "passed\n"
    out = json.loads(rep.read_text())
    assert (out["j"], out["sets_checked"], out["passed"]) == (1, 90, True)
    doc["field"]["primitive"] = 2
    with pytest.raises(ParseError, match="primitive"):
        code_from_json(doc)


def test_certify_inverts_on_the_kernel_side(monkeypatch):
    # the depth-4 band is 12 x 15, so each set's 3-column complement is
    # reduced against the 3-row kernel, mostly one column with no inverse;
    # the band side took 1050 inverses
    code = build_complete_mdp(3, 2, 2, 2)
    calls = []
    inv2 = gf._inv2

    def counted(a, f):
        calls.append(a)
        return inv2(a, f)

    monkeypatch.setattr(gf, "_inv2", counted)
    rep = verify_complete_jmdp_via_g(code, 3)
    assert rep.passed and rep.sets_checked == 361
    assert len(calls) < 150


def test_independence_tests_take_no_inverse(monkeypatch, built311):
    # the walks and rank reduce against an unscaled basis; certify's
    # inverses are the kernel _rref's alone, one per distinct pivot value
    # other than 1
    code = build_complete_mdp(3, 2, 2, 2)
    calls = []
    inv2 = gf._inv2

    def counted(a, f):
        calls.append(a)
        return inv2(a, f)

    monkeypatch.setattr(gf, "_inv2", counted)
    rep = verify_complete_jmdp_via_g(code, 3)
    assert rep.passed and rep.sets_checked == 361
    assert len(calls) <= 24 and sum(a != 1 for a in calls) <= 12
    calls.clear()
    # (3,1,1) at j = L walks its 4 x 9 band's own columns
    rep = verify_complete_jmdp_via_g(built311, L_of(3, 1, 1))
    assert rep.passed and rep.sets_checked > 0
    assert calls == []
    dense = Mat.from_packed(code.field, [[3, 5, 1 << 700 | 7], [9, 1 << 600 | 11, 13]])
    assert rank(dense) == 2
    assert calls == []


def test_certification_speed(built311):
    t0 = time.perf_counter()
    rep = verify_complete_jmdp_via_g(built311, L_of(3, 1, 1))
    elapsed = time.perf_counter() - t0
    assert rep.passed and rep.sets_checked > 0
    assert elapsed < 5.0
    # complete MDP with k <= n-k is in particular MDP
    assert is_mdp(built311)


def test_structure_flags(built311):
    flags = built311.flags
    assert flags.delay_free and flags.row_reduced
    assert flags.noncatastrophic_certified


def test_layout_convention():
    assert alpha_exponent_layout(3, 1, 1) == [[[0, 1, 2]], [[3, 4, 5]]]
    lay = alpha_exponent_layout(4, 2, 2)
    for i, grid in enumerate(lay):
        assert grid[0][0] == i * 4
        assert grid[0][3] == (i + 1) * 4 - 1
        assert grid[1][0] == i * 4 + 1
        assert grid[1][3] == (i + 1) * 4


def test_divisibility_guard():
    with pytest.raises(DivisibilityViolated):
        build_complete_mdp(3, 2, 3, 2)


def test_field_cap():
    with pytest.raises(FieldTooLarge):
        build_complete_mdp(3, 1, 3, 2)
    with pytest.raises(FieldTooLarge) as exc:
        build_complete_mdp(3, 1, 1, 2, max_extension_degree=100)
    assert "193" in str(exc.value)


def test_prime_guard():
    with pytest.raises(NotPrime):
        build_complete_mdp(3, 1, 1, 4)


@pytest.mark.parametrize("params", [(3, 1, 1), (2, 1, 2), (4, 2, 2), (3, 2, 2)])
def test_staircase_conditions(params):
    n, k, delta = params
    cert = staircase_certificate(n, k, delta)
    mu, L = delta // k, L_of(n, k, delta)
    assert cert["rows"] == k * (L + 1 + 2 * mu)
    assert cert["cols"] == n * (L + 1 + mu)
    assert cert["max_term_exponent"] <= max(cert["bound_general"], cert["bound_coarse"])


def test_staircase_reference_grid():
    grid = staircase_exponents(3, 1, 1)
    # four rows, degree grows down and right, zeros confined to the corners
    assert grid[0] == [None] * 6 + [0, 1, 2]
    assert grid[1] == [None] * 3 + [0, 1, 2, 3, 4, 5]
    assert grid[2] == [0, 1, 2, 3, 4, 5] + [None] * 3
    assert grid[3] == [3, 4, 5] + [None] * 6
    # the worst surviving minor term for these parameters
    cert = staircase_certificate(3, 1, 1)
    assert cert["max_term_exponent"] == 100 < 193


def test_staircase_rejects_negative_exponent(monkeypatch):
    grid = staircase_exponents(3, 1, 1)
    grid[0][6] = -1
    monkeypatch.setattr(construct, "staircase_exponents", lambda n, k, delta: grid)
    with pytest.raises(ValueError, match="non-positive exponent at \\(0,6\\)"):
        staircase_certificate(3, 1, 1)


@pytest.mark.parametrize("grid,message", [
    ([[1, 1]], "row 0 fails doubling at column 1"),
    ([[1], [1]], "column 0 fails doubling at row 1"),
])
def test_staircase_rejects_no_doubling(monkeypatch, grid, message):
    monkeypatch.setattr(construct, "staircase_exponents", lambda n, k, delta: grid)
    with pytest.raises(ValueError, match=f"^{message}$"):
        staircase_certificate(3, 1, 1)


def test_random_code_first_sample():
    code = random_code(3, 2, 3, 9, seed=2)
    assert (code.n, code.k, code.delta) == (3, 2, 3)
    assert code.field.q == 9
    assert code.flags.delay_free and code.flags.row_reduced
    again = random_code(3, 2, 3, 9, seed=2)
    assert code.G == again.G


def test_random_code_mdp_search():
    code = random_code(2, 1, 1, 8, seed=1, want="mdp")
    L = L_of(2, 1, 1)
    # independent check: brute-force column distance meets the bound at L
    assert column_distance(code, L) == column_bound(2, 1, L)


def test_random_code_complete_search():
    code = random_code(2, 1, 1, 8, seed=5, want="complete")
    assert verify_complete_jmdp_via_g(code, L_of(2, 1, 1)).passed


def test_random_code_small_field_exhausts():
    with pytest.raises(SearchExhausted):
        random_code(2, 1, 1, 2, seed=0, want="mdp", attempts=64)


def test_random_code_argument_guards():
    with pytest.raises(ValueError):
        random_code(2, 1, 1, 6, seed=0)
    with pytest.raises(ValueError):
        random_code(2, 1, 1, 8, seed=0, want="best")
    with pytest.raises(DivisibilityViolated):
        random_code(3, 2, 3, 8, seed=0, want="complete")


@pytest.mark.parametrize("q,want", [
    (16, (2, 4)), (27, (3, 3)), (2 ** 40, (2, 40)), (3 ** 30, (3, 30)),
    ((2 ** 31 - 1) ** 2, (2 ** 31 - 1, 2)), (2 ** 61 - 1, (2 ** 61 - 1, 1))])
def test_prime_power(q, want):
    assert construct._prime_power(q) == want


@pytest.mark.parametrize("q", [12, 2 ** 32 * 3, 1])
def test_prime_power_refuses(q):
    with pytest.raises(ValueError, match="not a prime power"):
        construct._prime_power(q)


def test_random_code_over_large_fields(monkeypatch):
    # a prime q of 2^32 or more, and q = 2^40, with no sympy to import
    monkeypatch.setitem(sys.modules, "sympy", None)
    for q, m in ((2 ** 61 - 1, 1), (2 ** 40, 40)):
        code = random_code(2, 1, 1, q, 0)
        assert (code.field.q, code.field.m, code.delta) == (q, m, 1)


def test_built_code_encodes(built311):
    # desk check that the big-field code is usable end to end
    from convec.polymat import PolyMatrix
    from convec.stream import ErasureStream
    from convec.codec import gm_decode_forward

    fld = built311.field
    u = PolyMatrix.from_packed(fld, [[[5]], [[fld.el(3).val]], [[1]]])
    s = ErasureStream.from_codeword(built311.encode(u))
    s.blocks[1][0] = s.blocks[1][1] = None
    rep = gm_decode_forward(built311, s)
    assert rep.complete and rep.message() == u
