"""Golden decode corpus: both engines must reproduce the stored outputs byte
for byte.

Every input is built here from fixed seeds: codes over GF(2), GF(3), GF(5),
GF(8) (memory 2), GF(16) and GF(27), i.i.d. and Gilbert-Elliott erasure
masks, tampered received symbols, and the decoder settings guard=False,
max_delay, distances and an unknown origin degree.  Each case stores the
canonical report JSON and the corrected stream text, or the exception type
and message.  Two cases run ``convec decode`` through the command line.
The gm cases of the catastrophic GF(3) code G = [1+z, 1+2z^2], which has
no parity check, come last: they were appended after the rest and written
from the source tree of that time.

The expected file was written once by ``regenerate()``, from the source
tree the outputs are meant to match:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden_decode as g; g.regenerate()"
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from convec import field
from convec.cli import main
from convec.codec import gm_decode_forward, pc_decode_forward
from convec.errors import ConvecError
from convec.polymat import ConvCode, Poly, PolyMatrix
from convec.stream import ErasureStream

GOLDEN = Path(__file__).with_name("golden_decode.jsonl")
ENGINES = {"gm": gm_decode_forward, "pc": pc_decode_forward}


# -- codes ----------------------------------------------------------------------

def _pair(fld, g1, g2) -> ConvCode:
    """(2,1) code G = (g1, g2) with parity check H = (g2, -g1)."""
    p1, p2 = Poly.from_packed(fld, g1), Poly.from_packed(fld, g2)
    d = max(p1.degree, p2.degree)

    def grids(a, b):
        return [[[a.coeff(i).val, b.coeff(i).val]] for i in range(d + 1)]

    return ConvCode(2, 1, PolyMatrix.from_packed(fld, grids(p1, p2)),
                    PolyMatrix.from_packed(fld, grids(p2, -p1)))


def _rate_third(fld, g0, g1, g2) -> ConvCode:
    """(3,1) code G = (g0, g1, g2) with H rows (g1, -g0, 0), (g2, 0, -g0)."""
    g = [Poly.from_packed(fld, c) for c in (g0, g1, g2)]
    zero = Poly.zero(fld)
    rows = [[g[1], -g[0], zero], [g[2], zero, -g[0]]]
    d = max(p.degree for p in g)
    G = PolyMatrix.from_packed(fld, [[[p.coeff(i).val for p in g]]
                                     for i in range(d + 1)])
    H = PolyMatrix.from_packed(fld, [[[p.coeff(i).val for p in row] for row in rows]
                                     for i in range(d + 1)])
    return ConvCode(3, 1, G, H)


def _code522() -> ConvCode:
    fld = field(2)
    G = PolyMatrix.from_packed(fld, [
        [[1, 1, 0, 1, 1], [1, 0, 1, 1, 0]],
        [[1, 1, 1, 1, 1], [0, 0, 0, 1, 1]],
    ])
    H = PolyMatrix.from_packed(fld, [
        [[1, 1, 0, 1, 1], [1, 0, 0, 1, 0], [1, 1, 1, 0, 0]],
        [[0, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 0, 1, 0, 0]],
    ])
    return ConvCode(5, 2, G, H)


def codes() -> dict[str, ConvCode]:
    return {
        "gf2_522": _code522(),
        "gf3_mu2": _pair(field(3), (1, 1, 2), (1, 2, 1)),
        "gf5_mu1": _pair(field(5), (1, 1), (1, 2)),
        "gf8_mu2": _pair(field(2, 3), (7, 2, 1), (4, 1, 3)),
        "gf16_mu2": _rate_third(field(2, 4), (1, 3, 7), (1, 9, 12), (1, 14, 5)),
        "gf27_mu1": _pair(field(3, 3), (1, 5), (2, 17)),
    }


# -- streams --------------------------------------------------------------------

def _gilbert_elliott(rng, total):
    bad, out = False, []
    for _ in range(total):
        out.append(rng.random() < (0.9 if bad else 0.08))
        bad = rng.random() >= 0.25 if bad else rng.random() < 0.06
    return out


def _stream(code, seed, blocks, mask, known_degree=True):
    """Encode a seeded message of `blocks` blocks and erase by mask kind."""
    rng = random.Random(seed)
    fld = code.field
    u = PolyMatrix.from_packed(fld, [[[rng.randrange(fld.q) for _ in range(code.k)]]
                                     for _ in range(blocks)])
    s = ErasureStream.from_codeword(code.encode(u))
    total = len(s) * s.n
    kind, arg = mask
    if kind == "iid":
        flags = [rng.random() < arg for _ in range(total)]
    elif kind == "ge":
        flags = _gilbert_elliott(rng, total)
    elif kind == "mask":  # 1-based erased positions per block
        flags = [idx % s.n + 1 in arg[idx // s.n] if idx // s.n < len(arg) else False
                 for idx in range(total)]
    else:  # "tamper": alter one received symbol, erase others at 25%
        t, pos = arg
        s.blocks[t][pos] = s.blocks[t][pos] + fld.one
        flags = [rng.random() < 0.25 and idx != t * s.n + pos
                 for idx in range(total)]
    for idx, erased in enumerate(flags):
        if erased:
            s.blocks[idx // s.n][idx % s.n] = None
    if not known_degree:
        s.origin_degree = None
    return s


SETTINGS = (("default", {}), ("noguard", {"guard": False}), ("delay1", {"max_delay": 1}),
            ("dist", {"distances": (1, 2, 3, 4, 5, 6, 7)}))


def cases():
    """(name, engine, code, stream, kwargs), all from fixed seeds."""
    for cname, code in codes().items():
        blocks = 12 if code.n == 2 else 8
        masks = [("iid", 0.3), ("ge", None), ("ge", None)]
        for mi, mask in enumerate(masks):
            seed = 1000 * len(cname) + 17 * mi + sum(map(ord, cname))
            for sname, kw in SETTINGS:
                for engine in ENGINES:
                    yield (f"{cname}/{mask[0]}{mi}/{sname}/{engine}", engine,
                           code, _stream(code, seed, blocks, mask), kw)
            for engine in ENGINES:
                yield (f"{cname}/{mask[0]}{mi}/unknown_degree/{engine}", engine,
                       code, _stream(code, seed, blocks, mask, known_degree=False), {})
        if cname == "gf8_mu2":
            # the widened guard window at candidate 3 clears this burst
            mask = ("mask", [(), (1,), (1, 2), (1,), (1,), (1, 2), (), (), (), (),
                             (1,), (1,), ()])
            for engine in ENGINES:
                yield (f"{cname}/extended_guard/{engine}", engine, code,
                       _stream(code, 9, 11, mask), {})
        for seed in (5, 6):
            for engine in ENGINES:
                yield (f"{cname}/tamper{seed}/{engine}", engine, code,
                       _stream(code, seed, blocks, ("tamper", (3, 0))), {})


def catastrophic_cases():
    """gm only: G = [1+z, 1+2z^2] over GF(3) shares the factor 1+z, so the
    code is catastrophic and has no polynomial parity check."""
    fld = field(3)
    code = ConvCode(2, 1, PolyMatrix.from_packed(fld, [[[1, 1]], [[1, 0]], [[0, 2]]]))
    cname = "gf3_catastrophic"
    for mi, mask in enumerate([("iid", 0.3), ("ge", None), ("ge", None)]):
        seed = 1000 * len(cname) + 17 * mi + sum(map(ord, cname))
        for sname, kw in SETTINGS:
            yield (f"{cname}/{mask[0]}{mi}/{sname}/gm", "gm", code,
                   _stream(code, seed, 12, mask), kw)
        yield (f"{cname}/{mask[0]}{mi}/unknown_degree/gm", "gm", code,
               _stream(code, seed, 12, mask, known_degree=False), {})
    for seed in (5, 6):
        yield (f"{cname}/tamper{seed}/gm", "gm", code,
               _stream(code, seed, 12, ("tamper", (3, 0))), {})


def _outcome(engine, code, stream, kw) -> dict:
    try:
        rep = ENGINES[engine](code, stream, **kw)
    except ConvecError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"report": rep.to_json(), "corrected": rep.corrected.to_text()}


def _cli_case(engine) -> dict:
    """`convec decode` on the GF(5) code, input paths reduced to file names."""
    code = codes()["gf5_mu1"]
    stream = _stream(code, 82, 14, ("ge", None))
    with tempfile.TemporaryDirectory() as tmp:
        code_path = os.path.join(tmp, "code.json")
        in_path = os.path.join(tmp, "noisy.txt")
        rep_path = os.path.join(tmp, "report.json")
        with open(code_path, "w") as fh:
            fh.write(json.dumps(code.to_json()))
        with open(in_path, "w") as fh:
            fh.write(stream.to_text())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["decode", "--engine", engine, "--code", code_path,
                           "--in", in_path, "--report", rep_path])
        with open(rep_path) as fh:
            doc = json.load(fh)
    for entry in doc["inputs"].values():
        entry["path"] = os.path.basename(entry["path"])
    return {"status": status, "stdout": out.getvalue(), "document": doc}


def corpus_lines() -> list[str]:
    def line(doc):
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    lines = [line({"case": name, **_outcome(engine, code, stream, kw)})
             for name, engine, code, stream, kw in cases()]
    lines += [line({"case": f"cli/{engine}", **_cli_case(engine)}) for engine in ENGINES]
    lines += [line({"case": name, **_outcome(engine, code, stream, kw)})
              for name, engine, code, stream, kw in catastrophic_cases()]
    return lines


def regenerate(path: Path = GOLDEN) -> None:
    path.write_text("\n".join(corpus_lines()) + "\n")


# -- tests ----------------------------------------------------------------------

def _stored() -> list[str]:
    return GOLDEN.read_text().splitlines()


def test_golden_corpus_byte_identical():
    want, got = _stored(), corpus_lines()
    assert len(got) == len(want)
    changed = [json.loads(w)["case"] for w, g in zip(want, got) if w != g]
    assert changed == []


def test_golden_corpus_covers_every_path():
    seen = {"lost_interval": 0, "InconsistentStream": 0}
    for line in _stored():
        doc = json.loads(line)
        if "error" in doc:
            seen[doc["error"]] = seen.get(doc["error"], 0) + 1
            continue
        rep = doc.get("report") or doc["document"]["report"]
        seen["lost_interval"] += len(rep["lost_intervals"])
        for w in rep["windows"]:
            key = (w["outcome"] if w["solver"] in ("gm", "pc")
                   else f"{w['solver']}:{w['outcome']}")
            seen[key] = seen.get(key, 0) + 1
    for key in ("partial", "stalled", "gm_guard_window:guard_recovered",
                "gm_guard_extended:guard_recovered", "pc_guard:guard_recovered",
                "lost_interval", "InconsistentStream"):
        assert seen.get(key, 0) > 0, key
    assert GOLDEN.stat().st_size < 300_000
