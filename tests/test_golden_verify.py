"""Golden verify and construct reports: `convec verify` for every property
and `convec construct` must reproduce the stored outputs byte for byte.

The codes cover both ways full-size minors have been computed: k >= 2 codes
over GF(7) and GF(9), whose fields have more points than the sum of the row
degrees, a k = 2 code over GF(2), which has fewer, a complete MDP code
over GF(5) with its parity check, a catastrophic code, and the code
`convec construct --n 3 --k 1 --delta 1 --p 2` builds.  Each case
stores the exit status, stdout, stderr and the report, with input paths
reduced to file names.

After those come codes over GF(2) and GF(3) whose complete j-MDP checks
fail deep in the enumeration: the first vanishing minor follows up to 51
nonzero ones and shares a column prefix with the set before it.  They are
checked for `mdp` (one of them passes) and for complete j-MDP at every j
from 0 to L, on each side the code has.

The expected file was written once by ``regenerate()``, from the source
tree the outputs are meant to match:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden_verify as g; g.regenerate()"
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from convec import field
from convec.cli import main
from convec.distance import L_of
from convec.polymat import ConvCode, Poly, PolyMatrix, code_from_json

GOLDEN = Path(__file__).with_name("golden_verify.jsonl")
FLAG_PROPERTIES = ("delay-free", "row-reduced", "noncatastrophic", "mdp")


def _systematic(fld, p_grids) -> ConvCode:
    """G = (I | P(z)) with parity check H = (-P(z)^T | I); p_grids holds the
    coefficient matrices of the k x (n-k) block P."""
    k, r = len(p_grids[0]), len(p_grids[0][0])
    neg = [[[(-fld.el(v)).val for v in col] for col in zip(*c)] for c in p_grids]
    eye_k = [[int(i == j) for j in range(k)] for i in range(k)]
    eye_r = [[int(i == j) for j in range(r)] for i in range(r)]
    zk, zr = [[0] * k for _ in range(k)], [[0] * r for _ in range(r)]
    G = [[a + b for a, b in zip(eye_k if d == 0 else zk, c)] for d, c in enumerate(p_grids)]
    H = [[a + b for a, b in zip(c, eye_r if d == 0 else zr)] for d, c in enumerate(neg)]
    return ConvCode(k + r, k, PolyMatrix.from_packed(fld, G),
                    PolyMatrix.from_packed(fld, H))


def _pair(fld, g1, g2) -> ConvCode:
    """(2,1) code G = (g1, g2) with parity check H = (g2, -g1)."""
    p1, p2 = Poly.from_packed(fld, g1), Poly.from_packed(fld, g2)
    d = max(p1.degree, p2.degree)

    def grids(a, b):
        return [[[a.coeff(i).val, b.coeff(i).val]] for i in range(d + 1)]

    return ConvCode(2, 1, PolyMatrix.from_packed(fld, grids(p1, p2)),
                    PolyMatrix.from_packed(fld, grids(p2, -p1)))


def codes() -> dict[str, dict]:
    """Code JSON documents by name."""
    gf2 = field(2)
    code522 = ConvCode(5, 2, PolyMatrix.from_packed(gf2, [
        [[1, 1, 0, 1, 1], [1, 0, 1, 1, 0]],
        [[1, 1, 1, 1, 1], [0, 0, 0, 1, 1]],
    ]), PolyMatrix.from_packed(gf2, [
        [[1, 1, 0, 1, 1], [1, 0, 0, 1, 0], [1, 1, 1, 0, 0]],
        [[0, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 0, 1, 0, 0]],
    ]))
    return {name: code.to_json() for name, code in {
        "gf2_522": code522,
        "gf7_422": _systematic(field(7), [[[3, 5], [1, 6]], [[2, 4], [6, 1]]]),
        "gf9_532": _systematic(field(3, 2), [[[1, 2, 3], [4, 5, 6]],
                                             [[7, 8, 1], [2, 0, 5]],
                                             [[0, 3, 0], [1, 0, 0]]]),
        "gf5_mdp": _pair(field(5), (1, 1), (1, 2)),
        # (1 + z) divides both entries, so the code is catastrophic
        "gf3_catastrophic": _pair(field(3), (1, 1), (1, 0, 2)),
    }.items()}


def _rate_one_third(fld, entries) -> ConvCode:
    """(3,1) code G = (g0, g1, g2) without a parity check; entries holds the
    coefficient lists of g0, g1 and g2."""
    d = max(len(e) for e in entries)
    grids = [[[e[i] if i < len(e) else 0 for e in entries]] for i in range(d)]
    return ConvCode(3, 1, PolyMatrix.from_packed(fld, grids))


def deep_codes() -> dict[str, dict]:
    """Code JSON documents whose first vanishing minor lies deep, by name."""
    gf2, gf3 = field(2), field(3)
    return {name: code.to_json() for name, code in {
        "gf2_pair_deep": _pair(gf2, (1, 1, 1), (1, 0, 1)),
        "gf2_pair3_deep": _pair(gf2, (1, 0, 1, 1), (1, 1)),
        "gf2_311_deep": _rate_one_third(gf2, [(1, 0, 1), (1, 1), (1, 1, 1)]),
        "gf3_pair_deep_g": _pair(gf3, (1, 0, 2, 1), (1, 2, 1, 1)),
        "gf3_pair_deep_h": _pair(gf3, (2, 2, 2, 2), (1, 1, 1, 2)),
        "gf3_311_mdp": _rate_one_third(gf3, [(2, 1), (2, 2), (1,)]),
        "gf3_313_deep": _rate_one_third(gf3, [(1, 1, 1, 1), (2, 1, 2), (1, 0, 1, 1)]),
    }.items()}


def _cli(argv, out_name, files=None) -> dict:
    """Run the CLI in a temporary directory holding `files`; `{tmp}` in argv
    names that directory.  Returns status, stdout, stderr and the output
    file, a report with input paths reduced to file names."""
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in (files or {}).items():
            Path(tmp, fname).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([a.format(tmp=tmp) for a in argv])
        path = Path(tmp, out_name)
        doc = path.read_text() if path.exists() else None
    if doc is not None and out_name == "report.json":
        doc = json.loads(doc)
        for entry in doc["inputs"].values():
            entry["path"] = os.path.basename(entry["path"])
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "output": doc}


def _verify_runs(name, code_text, runs):
    """(case name, outcome) for each (property, j or None) in runs."""
    for prop, j in runs:
        argv = ["verify", "--code", "{tmp}/code.json", "--property", prop,
                "--report", "{tmp}/report.json"]
        if j is not None:
            argv += ["--j", str(j)]
        yield (f"{name}/{prop}" + ("" if j is None else f"/j{j}"),
               _cli(argv, "report.json", {"code.json": code_text}))


def _verify_cases(name, code_text):
    """Every property; complete j-MDP at j = 0 and L."""
    code = code_from_json(json.loads(code_text))
    runs = [(prop, None) for prop in FLAG_PROPERTIES]
    for side in ("G", "H"):
        runs += [(f"complete-jmdp:{side}", j)
                 for j in sorted({0, L_of(code.n, code.k, code.delta)})]
    return _verify_runs(name, code_text, runs)


def _deep_cases(name, code_text):
    """mdp, then complete j-MDP at every j up to L on each side the code has."""
    code = code_from_json(json.loads(code_text))
    ell = L_of(code.n, code.k, code.delta)
    runs = [("mdp", None)]
    for side in ("G", "H") if code.H is not None else ("G",):
        runs += [(f"complete-jmdp:{side}", j) for j in range(ell + 1)]
    return _verify_runs(name, code_text, runs)


def corpus_lines() -> list[str]:
    built = _cli(["construct", "--n", "3", "--k", "1", "--delta", "1", "--p", "2",
                  "--out", "{tmp}/built.json"], "built.json")
    cases = [("construct/3-1-1-2", built)]
    texts = {name: json.dumps(doc) for name, doc in codes().items()}
    texts["construct_3_1_1_2"] = built["output"]
    for name, text in texts.items():
        cases.extend(_verify_cases(name, text))
    for name, doc in deep_codes().items():
        cases.extend(_deep_cases(name, json.dumps(doc)))
    return [json.dumps({"case": name, **outcome}, sort_keys=True, separators=(",", ":"))
            for name, outcome in cases]


def regenerate(path: Path = GOLDEN) -> None:
    path.write_text("\n".join(corpus_lines()) + "\n")


def _stored() -> list[str]:
    return GOLDEN.read_text().splitlines()


def test_golden_verify_byte_identical():
    want, got = _stored(), corpus_lines()
    assert len(got) == len(want)
    changed = [json.loads(w)["case"] for w, g in zip(want, got) if w != g]
    assert changed == []


def test_golden_verify_covers_every_outcome():
    seen = set()
    for line in _stored():
        doc = json.loads(line)
        if doc["output"] is None:
            seen.add(json.loads(doc["stderr"])["error"])
        elif doc["case"].startswith("construct/"):
            seen.add("constructed")
        else:
            seen.add((doc["output"]["property"], doc["output"]["passed"]))
    for prop in FLAG_PROPERTIES + ("complete-jmdp:G", "complete-jmdp:H"):
        assert (prop, True) in seen, prop
    for prop in ("noncatastrophic", "mdp", "complete-jmdp:G"):
        assert (prop, False) in seen, prop
    assert "constructed" in seen
