"""Decode a GF(27) stream with both engines through ``convec.cli.main``,
build and certify the (3,2,2) code over GF(2^769) and the (3,1,1) code over
GF(2^193) at j = L, and check that sympy was never imported.  The first
certificate walks the column sets on the band's kernel side, the second on
the band's own columns.

Fields below 2^32 elements are built with trial division alone, and a large
field's generator, whose certificate factors q - 1, is read by neither the
construction nor the minor check, so both must run in a Python that has no
sympy installed:

    python -m venv --without-pip /tmp/bare
    PYTHONPATH=src /tmp/bare/bin/python tests/sympy_free_decode.py

Prints one line and exits 0 when both decodes complete and recover the
message, the certificates pass over all 361 and 90 sets and sympy is absent
from ``sys.modules``; exits 1 otherwise.
``tests/test_imports.py`` runs it in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

from convec import field
from convec.cli import main
from convec.construct import build_complete_mdp
from convec.distance import L_of, verify_complete_jmdp_via_g
from convec.polymat import ConvCode, Poly, PolyMatrix
from convec.stream import ErasureStream


def gf27_code() -> ConvCode:
    """(2,1) code G = (1 + 5z, 2 + 17z) over GF(27), H = (g2, -g1)."""
    fld = field(3, 3)
    g1, g2 = Poly.from_packed(fld, (1, 5)), Poly.from_packed(fld, (2, 17))

    def grids(a, b):
        return [[[a.coeff(i).val, b.coeff(i).val]] for i in range(2)]

    return ConvCode(2, 1, PolyMatrix.from_packed(fld, grids(g1, g2)),
                    PolyMatrix.from_packed(fld, grids(g2, -g1)))


def run() -> list[str]:
    """Problems found; empty when everything holds."""
    code = gf27_code()
    rng = random.Random(27)
    blocks = [rng.randrange(27) for _ in range(20)]
    u = PolyMatrix.from_packed(code.field, [[[v]] for v in blocks])
    stream = ErasureStream.from_codeword(code.encode(u))
    for t in range(0, len(stream), 3):
        stream.blocks[t][t % 2] = None
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        code_path = os.path.join(tmp, "code.json")
        in_path = os.path.join(tmp, "noisy.txt")
        with open(code_path, "w") as fh:
            json.dump(code.to_json(), fh)
        with open(in_path, "w") as fh:
            fh.write(stream.to_text())
        for engine in ("gm", "pc"):
            rep_path = os.path.join(tmp, f"{engine}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(["decode", "--engine", engine, "--code", code_path,
                               "--in", in_path, "--report", rep_path])
            if status != 0:
                problems.append(f"{engine}: exit status {status}")
                continue
            with open(rep_path) as fh:
                report = json.load(fh)["report"]
            got = [int(vals[0], 16) for t, vals in report["message"] if t < len(blocks)]
            if not report["complete"] or got != blocks:
                problems.append(f"{engine}: message not recovered")
    for shape, sets in (((3, 2, 2), 361), ((3, 1, 1), 90)):
        rep = verify_complete_jmdp_via_g(build_complete_mdp(*shape, 2), L_of(*shape))
        if not rep.passed or rep.sets_checked != sets:
            problems.append(f"certify {shape}: passed={rep.passed}, {rep.sets_checked} sets")
    if "sympy" in sys.modules:
        problems.append("sympy was imported")
    return problems


if __name__ == "__main__":
    found = run()
    print("; ".join(found) if found else
          "ok: gm and pc decoded GF(27), (3,2,2) certified over GF(2^769) and (3,1,1)"
          " over GF(2^193) without sympy")
    sys.exit(1 if found else 0)
