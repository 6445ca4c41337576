"""End-to-end runs of the command line surface through main()."""

from __future__ import annotations

import json
import random

import pytest

from conftest import MASK522
from convec import gf
from convec.cli import main
from convec.errors import Reducible
from convec.polymat import code_from_json
from convec.stream import ErasureStream
from test_gf import REDUCIBLE_ABOVE_PREFIX
from test_golden_decode import codes as golden_codes


@pytest.fixture
def ws(tmp_path, code522, msg522):
    """Worked-example code and message written to disk."""
    code = tmp_path / "code.json"
    code.write_text(json.dumps(code522.to_json()))
    msg = tmp_path / "message.txt"
    msg.write_text(ErasureStream.from_codeword(msg522).to_text())
    return tmp_path, str(code), str(msg)


def run(argv):
    return main([str(a) for a in argv])


def erased_text(code522, msg522) -> str:
    stream = ErasureStream.from_codeword(code522.encode(msg522))
    for t, positions in enumerate(MASK522):
        for p in positions:
            stream.blocks[t][p - 1] = None
    return stream.to_text()


# -- pipelines ----------------------------------------------------------------

def test_identity_pipeline(ws, msg522):
    tmp, code, msg = ws
    cw, clean, rep = tmp / "cw.txt", tmp / "clean.txt", tmp / "rep.json"
    assert run(["encode", "--code", code, "--message", msg, "--out", cw]) == 0
    assert run(["corrupt", "--in", cw, "--iid", "0.0", "--seed", "1",
                "--out", clean]) == 0
    # nothing erased, so the stream survives the round trip byte for byte
    assert clean.read_bytes() == cw.read_bytes()
    assert run(["decode", "--engine", "gm", "--code", code, "--in", clean,
                "--report", rep]) == 0
    doc = json.loads(rep.read_text())
    assert doc["report"]["complete"]
    assert doc["report"]["message"] == [
        [0, ["1", "1"]], [1, ["0", "0"]], [2, ["1", "0"]], [3, ["0", "1"]]]


def test_worked_example_decode(ws, code522, msg522, capsys):
    tmp, code, _ = ws
    noisy = tmp / "noisy.txt"
    noisy.write_text(erased_text(code522, msg522))
    rep = tmp / "rep.json"
    assert run(["decode", "--engine", "gm", "--code", code, "--in", noisy,
                "--report", rep]) == 0
    assert "complete" in capsys.readouterr().out
    doc = json.loads(rep.read_text())
    assert doc["tool"] == {"name": "convec", "version": "0.1.0"}
    assert set(doc["inputs"]) == {"code", "stream"}
    assert all(len(v["sha256"]) == 64 for v in doc["inputs"].values())
    assert doc["report"]["message"] == [
        [0, ["1", "1"]], [1, ["0", "0"]], [2, ["1", "0"]], [3, ["0", "1"]]]
    assert doc["report"]["lost_intervals"] == []


def test_mask_pattern_file(ws, code522, msg522):
    tmp, code, msg = ws
    cw, noisy, rep = tmp / "cw.txt", tmp / "noisy.txt", tmp / "rep.json"
    maskfile = tmp / "mask.txt"
    maskfile.write_text(erased_text(code522, msg522))
    run(["encode", "--code", code, "--message", msg, "--out", cw])
    assert run(["corrupt", "--in", cw, "--pattern", f"mask {maskfile}",
                "--out", noisy]) == 0
    assert noisy.read_text() == maskfile.read_text()
    assert run(["decode", "--engine", "gm", "--code", code, "--in", noisy,
                "--report", rep]) == 0
    assert json.loads(rep.read_text())["report"]["complete"]


def test_reports_byte_identical(ws, code522, msg522):
    tmp, code, _ = ws
    noisy = tmp / "noisy.txt"
    noisy.write_text(erased_text(code522, msg522))
    a, b = tmp / "a.json", tmp / "b.json"
    for out in (a, b):
        assert run(["decode", "--engine", "gm", "--code", code, "--in", noisy,
                    "--report", out]) == 0
    assert a.read_bytes() == b.read_bytes()
    for out in (a, b):
        assert run(["verify", "--code", code, "--property", "delay-free",
                    "--report", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_guard_toggle(tmp_path):
    # burst that only the guard scan clears: decode stalls without it
    from convec import field
    from convec.polymat import ConvCode, PolyMatrix
    fld = field(2, 3)
    code = ConvCode(2, 1, PolyMatrix.from_packed(
        fld, [[[7, 4]], [[2, 1]], [[1, 3]]]))
    u = PolyMatrix.from_packed(
        fld, [[[c]] for c in (3, 3, 2, 7, 3, 7, 7, 1, 5, 6, 2)])
    stream = ErasureStream.from_codeword(code.encode(u))
    mask = [(), (1,), (1, 2), (1,), (1,), (1, 2), (), (), (), (), (1,), (1,), ()]
    for t, positions in enumerate(mask):
        for p in positions:
            stream.blocks[t][p - 1] = None
    codef = tmp_path / "code.json"
    codef.write_text(json.dumps(code.to_json()))
    noisy = tmp_path / "noisy.txt"
    noisy.write_text(stream.to_text())
    on, off = tmp_path / "on.json", tmp_path / "off.json"
    run(["decode", "--engine", "gm", "--code", codef, "--in", noisy,
         "--guard", "on", "--report", on])
    run(["decode", "--engine", "gm", "--code", codef, "--in", noisy,
         "--guard", "off", "--report", off])
    assert json.loads(on.read_text())["report"]["complete"]
    assert json.loads(off.read_text())["report"]["lost_intervals"] == [[2, 12]]


def test_nonstandard_generator_pipeline(tmp_path):
    # the code JSON designates x + 1 as generator; the stream header names
    # only p, m and the modulus, and must still match the code
    from convec import field
    from convec.polymat import ConvCode, PolyMatrix
    fld = field(2, 3)
    code = ConvCode(2, 1, PolyMatrix.from_packed(
        fld, [[[7, 4]], [[2, 1]], [[1, 3]]]))
    spec = code.to_json()
    spec["field"]["primitive"] = "3"
    codef, msg = tmp_path / "code.json", tmp_path / "message.txt"
    codef.write_text(json.dumps(spec))
    u = PolyMatrix.from_packed(fld, [[[c]] for c in (3, 5, 6, 1, 2)])
    msg.write_text(ErasureStream.from_codeword(u).to_text())
    cw, noisy, rep = tmp_path / "cw.txt", tmp_path / "noisy.txt", tmp_path / "rep.json"
    assert run(["encode", "--code", codef, "--message", msg, "--out", cw]) == 0
    assert run(["corrupt", "--in", cw, "--pattern", "3v 1* 4v 1*",
                "--out", noisy]) == 0
    assert run(["decode", "--engine", "gm", "--code", codef, "--in", noisy,
                "--report", rep]) == 0
    doc = json.loads(rep.read_text())["report"]
    assert doc["complete"]
    assert doc["message"] == [[t, [format(c, "x")]]
                              for t, c in enumerate((3, 5, 6, 1, 2))]


# a prime field; binary and general fields on tables; binary and general
# fields past the table cap; and the explicit construction's GF(2^193)
ROUND_TRIP_FIELDS = [(5, 1), (2, 4), (3, 3), (2, 9), (3, 6), (2, 193)]


@pytest.mark.parametrize("p,m", ROUND_TRIP_FIELDS)
def test_round_trip_every_field_kind(tmp_path, pair_2_1, p, m):
    from convec import field
    from convec.polymat import PolyMatrix
    codef = tmp_path / "code.json"
    if m == 193:
        # build_complete_mdp(3, 1, 1, 2), which has no parity check
        assert run(["construct", "--n", 3, "--k", 1, "--delta", 1, "--p", 2,
                    "--out", codef]) == 0
        fld = code_from_json(json.loads(codef.read_text())).field
        engines = ["gm"]
    else:
        fld = field(p, m)
        code = pair_2_1(fld, [1, 1], [1, fld.q - 1])
        codef.write_text(json.dumps(code.to_json()))
        engines = ["gm", "pc"]
    rng = random.Random(fld.q)
    sent = [rng.randrange(fld.q) for _ in range(6)]
    msg, cw, noisy = tmp_path / "msg.txt", tmp_path / "cw.txt", tmp_path / "noisy.txt"
    u = PolyMatrix.from_packed(fld, [[[c]] for c in sent])
    msg.write_text(ErasureStream.from_codeword(u).to_text())
    assert run(["encode", "--code", codef, "--message", msg, "--out", cw]) == 0
    assert run(["corrupt", "--in", cw, "--pattern", "3v 1* 5v 1* 3v 1*",
                "--out", noisy]) == 0
    assert noisy.read_text().count("?") == 3
    for engine in engines:
        rep = tmp_path / f"{engine}.json"
        assert run(["decode", "--engine", engine, "--code", codef, "--in", noisy,
                    "--report", rep]) == 0
        doc = json.loads(rep.read_text())["report"]
        assert doc["complete"], engine
        # the codeword's tail blocks decode to zero message blocks
        got = doc["message"]
        assert got[:len(sent)] == [[t, [format(c, "x")]] for t, c in enumerate(sent)]
        assert all(block == ["0"] for _, block in got[len(sent):])


# -- verify and construct ------------------------------------------------------

def test_verify_flag_properties(ws, capsys):
    tmp, code, _ = ws
    rep = tmp / "rep.json"
    assert run(["verify", "--code", code, "--property", "row-reduced",
                "--report", rep]) == 0
    assert capsys.readouterr().out.strip() == "passed"
    assert json.loads(rep.read_text())["passed"] is True


def test_verify_negative_verdict_exits_zero(ws, capsys):
    tmp, code, _ = ws
    rep = tmp / "rep.json"
    # the worked example is not MDP; a clean run still exits 0
    assert run(["verify", "--code", code, "--property", "mdp",
                "--report", rep]) == 0
    assert capsys.readouterr().out.strip() == "failed"
    assert json.loads(rep.read_text())["passed"] is False


def test_construct_then_verify(tmp_path, capsys):
    codef = tmp_path / "built.json"
    assert run(["construct", "--n", 3, "--k", 1, "--delta", 1, "--p", 2,
                "--out", codef]) == 0
    assert "GF(2^193)" in capsys.readouterr().out
    doc = json.loads(codef.read_text())
    code = code_from_json(doc)
    assert code.metadata["provenance"]["N"] == 193
    rep = tmp_path / "rep.json"
    assert run(["verify", "--code", codef, "--property", "complete-jmdp:G",
                "--report", rep]) == 0
    out = json.loads(rep.read_text())
    assert out["passed"] is True
    assert out["property"] == "complete-jmdp:G"
    assert out["j"] == 1  # defaulted to L
    assert "wall_time_ms" not in out


@pytest.mark.parametrize("existing", [None, b'{"kept": true}\n'], ids=["new", "existing"])
def test_construct_error_writes_nothing(tmp_path, capsys, existing):
    # the (3,2,2) construction needs GF(2^769), one degree past the cap
    # given: the command fails before its output file is opened
    codef = tmp_path / "c.json"
    if existing is not None:
        codef.write_bytes(existing)
    assert run(["construct", "--n", 3, "--k", 2, "--delta", 2, "--p", 2,
                "--max-extension-degree", 768, "--out", codef]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "FieldTooLarge",
        "message": "construction needs GF(2^769) but the cap is 768; "
                   "pass max_extension_degree=769 to build anyway"}
    if existing is None:
        assert not codef.exists()
    else:
        assert codef.read_bytes() == existing


# -- rates ---------------------------------------------------------------------

def test_rates_lines(capsys):
    assert run(["rates", "--n", 3, "--k", 1, "--delta", 18, "--j", 27]) == 0
    assert capsys.readouterr().out == "56/84 74/138 56/111\n"
    assert run(["rates", "--n", 3, "--k", 2, "--delta", 18, "--j", 27]) == 0
    assert capsys.readouterr().out.split()[0] == "28/84"
    assert run(["rates", "--n", 3, "--k", 1, "--delta", 1, "--j", 1]) == 0
    assert capsys.readouterr().out == "4/6 5/9 —\n"


@pytest.mark.parametrize("delta, j", [("-2", "5"), ("-1", "0")])
def test_rates_negative_delta_error_json(capsys, delta, j):
    assert run(["rates", "--n", 3, "--k", 1, "--delta", delta, "--j", j]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError",
                                        "message": "delta must be >= 0"}


# -- bench -----------------------------------------------------------------------

def scrub(doc):
    if isinstance(doc, dict):
        return {k: scrub(v) for k, v in doc.items()
                if k not in ("wall_ms", "total_wall_ms")}
    if isinstance(doc, list):
        return [scrub(v) for v in doc]
    return doc


def test_bench_runs_and_is_deterministic(tmp_path, code522h):
    tmp = tmp_path
    code = tmp / "code.json"
    code.write_text(json.dumps(code522h.to_json()))
    a, b = tmp / "a.json", tmp / "b.json"
    argv = ["bench", "--code", code, "--pattern", "2* 8v", "--engines", "gm,pc",
            "--trials", 3, "--seed", 11, "--report"]
    assert run(argv + [a]) == 0
    assert run(argv + [b]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert scrub(da) == scrub(db)
    assert len(da["trials"]) == 3
    assert set(da["summary"]) == {"gm", "pc"}
    for eng in ("gm", "pc"):
        assert da["summary"][eng]["solves"] > 0
        assert da["summary"][eng]["max_unknowns"] >= da["summary"][eng]["mean_unknowns"]
    # the stats fold per-trial solve records, so they must agree
    gm = [s for row in da["trials"] for s in row["engines"]["gm"]["solves"]
          if s["unknowns"] > 0]
    assert da["summary"]["gm"]["solves"] == len(gm)
    assert da["summary"]["gm"]["max_unknowns"] == max(s["unknowns"] for s in gm)


# -- failure surface -------------------------------------------------------------

def test_missing_file_error_json(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert run(["decode", "--engine", "gm", "--code", tmp_path / "nope.json",
                "--in", tmp_path / "nope.txt", "--report", rep]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IOError"
    assert "nope.json" in err["message"]


# one value of the wrong JSON type each: (path into the code JSON, value)
WRONG_TYPES = [
    (("G",), None),
    (("field",), None),
    (("k",), {}),
    (("field", "modulus", 0), None),
    (("field", "modulus", 0), []),
    (("G", 0, 0, 0), 1000000),
    (("H", 1, 0), "1"),
    (("n",), 5.0),
    (("field", "m"), True),
    (("field", "p"), "2"),
    (("field", "modulus"), 19),
    (("field", "primitive"), 2),
    (("metadata",), [None]),
    ((), []),
]


@pytest.mark.parametrize("path, value", WRONG_TYPES,
                         ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v in WRONG_TYPES])
@pytest.mark.parametrize("engine", ["gm", "pc"])
def test_wrong_json_type_in_code_error_json(tmp_path, code522h, msg522, capsys,
                                            engine, path, value):
    doc = dict(code522h.to_json(), metadata={"source": "README"})
    if path:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        doc = value
    code, noisy = tmp_path / "code.json", tmp_path / "noisy.txt"
    code.write_text(json.dumps(doc))
    noisy.write_text(erased_text(code522h, msg522))
    rep = tmp_path / "rep.json"
    assert run(["decode", "--engine", engine, "--code", code, "--in", noisy,
                "--report", rep]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"} and err["error"] == "ParseError"
    assert not rep.exists()


def test_huge_m_with_supplied_modulus_error_json(tmp_path, capsys):
    # the golden GF(16) code with its field's m raised to 10**30 and its
    # degree-4 modulus kept fails the modulus check before 2 ** m is formed
    code = golden_codes()["gf16_mu2"]
    doc = code.to_json()
    doc["field"]["m"] = 10 ** 30
    path, noisy = tmp_path / "code.json", tmp_path / "noisy.txt"
    path.write_text(json.dumps(doc))
    noisy.write_text(ErasureStream(code.field, code.n, [[code.field.zero] * code.n] * 3,
                                   0).to_text())
    rep = tmp_path / "rep.json"
    assert run(["decode", "--engine", "gm", "--code", path, "--in", noisy,
                "--report", rep]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"} and err["error"] == "ValueError"
    assert not rep.exists()


def test_reducible_modulus_above_prefix_error_json(tmp_path, capsys):
    # the golden GF(16) code with a supplied modulus that is the product of
    # two irreducibles of one degree above the irreducibility test's Ben-Or
    # prefix: Rabin's finish rejects it, through the usual Reducible error
    f = dict(REDUCIBLE_ABOVE_PREFIX)["equal-degrees"]
    doc = golden_codes()["gf16_mu2"].to_json()
    doc["field"]["m"] = f.bit_length() - 1
    doc["field"]["modulus"] = list(gf._coeffs(f, 2))
    with pytest.raises(Reducible):
        code_from_json(doc)
    path, rep = tmp_path / "code.json", tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", "--code", path, "--property", "mdp", "--report", rep]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "Reducible"
    assert not rep.exists()


def test_bad_pattern_error_json(ws, capsys):
    tmp, code, msg = ws
    cw = tmp / "cw.txt"
    run(["encode", "--code", code, "--message", msg, "--out", cw])
    capsys.readouterr()
    assert run(["corrupt", "--in", cw, "--pattern", "3x",
                "--out", tmp / "o.txt"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_message_width_mismatch(ws, capsys):
    tmp, code, _ = ws
    bad = tmp / "bad.txt"
    bad.write_text("#n=3 field=2^1:3 deg=0\n1 0 1\n")
    assert run(["encode", "--code", code, "--message", bad,
                "--out", tmp / "cw.txt"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LengthMismatch"
    assert "k=2" in err["message"]


@pytest.mark.parametrize("command", ["corrupt", "bench"])
def test_empty_mask_error_json(ws, capsys, command):
    # a mask file with a header and no blocks is an empty mask, which the
    # cyclic repetition that both commands use cannot tile
    tmp, code, msg = ws
    cw, empty = tmp / "cw.txt", tmp / "empty.txt"
    run(["encode", "--code", code, "--message", msg, "--out", cw])
    empty.write_text("#n=5 field=2^1:3 deg=unknown\n")
    capsys.readouterr()
    argv = {
        "corrupt": ["corrupt", "--in", cw, "--pattern", f"mask {empty}",
                    "--cyclic", "--out", tmp / "o.txt"],
        "bench": ["bench", "--code", code, "--pattern", f"mask {empty}",
                  "--seed", "1", "--trials", "1", "--report", tmp / "b.json"],
    }[command]
    assert run(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "empty mask"}


@pytest.mark.parametrize("engine", ["gm", "pc"])
def test_zero_characteristic_header_error_json(ws, capsys, engine):
    tmp, code, _ = ws
    bad = tmp / "bad.txt"
    bad.write_text("#n=2 field=0^3:b deg=0\n0 1\n")
    assert run(["decode", "--engine", engine, "--code", code, "--in", bad,
                "--report", tmp / "rep.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "ValueError", "message": "malformed field reference '0^3:b'"}


@pytest.mark.parametrize("engine", ["gm", "pc"])
def test_non_canonical_symbol_error_json(ws, capsys, engine):
    tmp, code, _ = ws
    bad = tmp / "bad.txt"
    bad.write_text("#n=5 field=2^1:3 deg=0\n1 0x1 0 1 1\n")
    assert run(["decode", "--engine", engine, "--code", code, "--in", bad,
                "--report", tmp / "rep.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "ParseError", "message": "line 2: bad symbol '0x1'"}
    assert not (tmp / "rep.json").exists()


def test_iid_without_seed(ws, capsys):
    tmp, code, msg = ws
    cw = tmp / "cw.txt"
    run(["encode", "--code", code, "--message", msg, "--out", cw])
    capsys.readouterr()
    assert run(["corrupt", "--in", cw, "--iid", "0.3",
                "--out", tmp / "o.txt"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_budget_env_cap(ws, capsys, monkeypatch):
    tmp, code, _ = ws
    monkeypatch.setenv("CONVEC_BUDGET", "1")
    assert run(["verify", "--code", code, "--property", "complete-jmdp:G",
                "--j", "1", "--report", tmp / "rep.json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BudgetExceeded"


def test_budget_env_caps_mdp(ws, capsys, monkeypatch):
    tmp, code, _ = ws
    monkeypatch.setenv("CONVEC_BUDGET", "1")
    assert run(["verify", "--code", code, "--property", "mdp",
                "--report", tmp / "rep.json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BudgetExceeded"
    assert not (tmp / "rep.json").exists()


@pytest.mark.parametrize("engine", ["gm", "pc"])
def test_negative_max_delay_error_json(tmp_path, code522h, msg522, capsys, engine):
    code, noisy = tmp_path / "code.json", tmp_path / "noisy.txt"
    code.write_text(json.dumps(code522h.to_json()))
    noisy.write_text(erased_text(code522h, msg522))
    rep = tmp_path / "rep.json"
    assert run(["decode", "--engine", engine, "--code", code, "--in", noisy,
                "--max-delay", "-1", "--report", rep]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "max_delay must be >= 0"}
    assert not rep.exists()


@pytest.mark.parametrize("j", ["-1", "-3"])
def test_negative_delay_error_json(ws, capsys, j):
    tmp, code, _ = ws
    assert run(["verify", "--code", code, "--property", "complete-jmdp:G",
                "--j", j, "--report", tmp / "rep.json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "j must be >= 0"}
    assert not (tmp / "rep.json").exists()


@pytest.mark.parametrize("engine", ["gm", "pc"])
def test_code_entry_out_of_range_error_json(tmp_path, capsys, engine):
    code = golden_codes()["gf16_mu2"]
    doc = code.to_json()
    doc["G"][0][0][0] = "10"  # 16, one past GF(16)
    codef, noisy, rep = tmp_path / "code.json", tmp_path / "noisy.txt", tmp_path / "rep.json"
    codef.write_text(json.dumps(doc))
    noisy.write_text(ErasureStream.from_codeword(code.G).to_text())
    assert run(["decode", "--engine", engine, "--code", codef, "--in", noisy,
                "--report", rep]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "ValueError", "message": "packed value 16 out of range for GF(2^4)"}
    assert not rep.exists()
