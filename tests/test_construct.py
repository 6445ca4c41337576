"""The explicit large-field construction and the seeded random search."""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from convec import construct, field, gf
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
from convec.errors import DivisibilityViolated, FieldTooLarge, NotPrime, SearchExhausted
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
    # 2^193 - 1 cannot be factored within budget, so no primitivity claim
    assert prov["alpha_primitive_verified"] is False
    assert prov["field"] == built311.field.ref()


def test_setup_does_no_factoring(cold_fields, monkeypatch):
    # building and certifying a code, or parsing a large-field stream
    # header, never reads the field's generator, whose certificate factors
    # q - 1
    def refuse(n):
        raise AssertionError(f"factored a {n.bit_length()}-bit number")

    monkeypatch.setattr(gf, "_budgeted_factor", refuse)
    code = build_complete_mdp(3, 1, 1, 2)
    rep = verify_complete_jmdp_via_g(code, 1)
    assert rep.passed and rep.sets_checked > 0
    modulus = (1 << 769) | 0b1011000001  # the GF(2^769) auto modulus
    stream = ErasureStream.from_text(f"#n=1 field=2^769:{modulus:x} deg=0\n1\n")
    assert stream.field.m == 769 and stream.blocks[0][0] == stream.field.one


def test_lazy_generator_output_unchanged(cold_fields):
    prov = build_complete_mdp(3, 1, 1, 2).metadata["provenance"]
    assert dict(prov) == {
        "construction": "doubling-exponent staircase", "N": 193,
        "bound_general": 128, "bound_coarse": 192, "alpha": "x",
        "alpha_primitive_verified": False,
        "field": "2^193:20000000000000000000000000000000000000000000001f7"}
    cold_fields.cache_clear()
    doc = build_complete_mdp(3, 1, 1, 2).to_json()
    assert doc["field"]["primitive"] == "2"
    assert doc["metadata"]["provenance"]["alpha_primitive_verified"] is False
    # the bytes `convec construct --n 3 --k 1 --delta 1 --p 2` wrote while
    # the generator was found with the field
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a1af47ab136513fd888c7be5f09b1daaaae9a5e067c9fea785274d015f7a7ad3")
    cold_fields.cache_clear()
    build_complete_mdp(3, 1, 1, 2)
    fld = field(2, 193)
    assert fld.alpha.val == 2 and fld.unverified_primitive


def test_provenance_flag_set_explicitly(cold_fields):
    prov = build_complete_mdp(3, 1, 1, 2).metadata["provenance"]
    prov["alpha_primitive_verified"] = True
    assert json.loads(json.dumps(prov))["alpha_primitive_verified"] is True


def test_metadata_is_worked_out_once_on_first_read(cold_fields, monkeypatch):
    # building and certifying factor nothing; the first read of any entry
    # of the metadata finds the generator, factoring 2^193 - 1, and the
    # record it fills in is kept, edits included
    calls = []
    factor = gf._budgeted_factor

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(gf, "_budgeted_factor", counted)
    code = build_complete_mdp(3, 1, 1, 2)
    assert verify_complete_jmdp_via_g(code, 1).passed
    assert calls == []
    assert code.metadata["provenance"]["N"] == 193
    assert calls == [(1 << 193) - 1]
    prov = code.metadata["provenance"]
    assert prov["alpha_primitive_verified"] is False
    assert len(calls) == 1
    del prov["alpha_primitive_verified"]
    doc = code.to_json()
    assert len(calls) == 1
    assert doc["field"]["primitive"] == "2"
    assert "alpha_primitive_verified" not in doc["metadata"]["provenance"]
    assert "alpha_primitive_verified" not in code.metadata["provenance"]


def test_construct_file_loads_and_verifies_without_factoring(cold_fields, monkeypatch):
    # loading a code file settles no generator of a large field: the JSON's
    # primitive is checked only when read again, as writing the code does
    doc = json.loads(json.dumps(build_complete_mdp(3, 2, 2, 2).to_json()))
    cold_fields.cache_clear()
    factor = gf._budgeted_factor

    def refuse(n):
        raise AssertionError(f"factored a {n.bit_length()}-bit number")

    monkeypatch.setattr(gf, "_budgeted_factor", refuse)
    code = code_from_json(doc)
    rep = verify_complete_jmdp_via_g(code, L_of(3, 2, 2))
    assert rep.passed and rep.sets_checked == 361
    monkeypatch.setattr(gf, "_budgeted_factor", factor)
    assert code.to_json()["field"]["primitive"] == "2"
    assert code.field.unverified_primitive


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
    # inverses are the kernel _rref's alone, half of them inverses of 1 in
    # its back substitution
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
