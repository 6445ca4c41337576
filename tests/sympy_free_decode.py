"""Decode a GF(27) stream with both engines through ``convec.cli.main``,
build and certify the (3,2,2) code over GF(2^769) and the (3,1,1) code over
GF(2^193) at j = L, write both as JSON with their metadata, and check
that sympy was never imported.  The first certificate walks the column sets
on the band's kernel side, the second on the band's own columns.

The library imports only the standard library, so decoding, the
construction, the minor check and writing a construct file must all run
in a Python that has nothing else installed:

    python -m venv --without-pip /tmp/bare
    PYTHONPATH=src /tmp/bare/bin/python tests/sympy_free_decode.py

Through the command line it also checks that:

* ``convec construct`` writes both codes byte for byte as pinned by
  CONSTRUCT_SHA256, the (3,1,1) bytes being those ``tests/test_construct.py``
  pins, so every environment that runs this script writes the same file;
* ``convec verify --property complete-jmdp:G`` passes on both files over all
  361 and 90 sets;
* a supplied modulus of degree 70 loads through the irreducibility test's
  Rabin finish;
* two reducible moduli of degree 769 fail with one JSON ``Reducible`` line
  on stderr and exit status 1.

Prints one line and exits 0 when all of that holds, both decodes complete
and recover the message, the certificates pass over all 361 and 90 sets,
both codes' JSON names no generator and records N = 769 and 193, and sympy
is absent from ``sys.modules``; exits 1 otherwise.
``tests/test_imports.py`` runs it in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import hashlib
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


# sha256 of what `convec construct --n N --k K --delta D --p 2` writes
CONSTRUCT_SHA256 = {
    (3, 2, 2): "5211d26fe835be50cac89bfed5271f65f1ca1206f6e224b9bdbc6ee19dee6a8a",
    (3, 1, 1): "28b5198a100c2080fb6a2388cc630cbb5cfc115a603012feefbc7c5fa9e55c03",
}


def cli(*argv: str) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of one ``convec`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


def binary_code_file(path: str, m: int, taps: tuple[int, ...]) -> str:
    """A (2,1) code G = (1, 1) over GF(2^m) with the supplied modulus, the
    sum of x^i over taps, written as JSON at path."""
    with open(path, "w") as fh:
        json.dump({"field": {"p": 2, "m": m,
                             "modulus": [int(i in taps) for i in range(m + 1)]},
                   "n": 2, "k": 1, "G": [[["1", "1"]]]}, fh)
    return path


def command_line_checks(tmp: str) -> list[str]:
    """Problems with construct, verify and modulus loading through the CLI."""
    problems = []
    for (n, k, delta), sets, j in (((3, 2, 2), 361, 3), ((3, 1, 1), 90, 1)):
        name = f"construct ({n},{k},{delta})"
        code_path = os.path.join(tmp, f"c{n}{k}{delta}.json")
        rep_path = os.path.join(tmp, f"v{n}{k}{delta}.json")
        status, _, err = cli("construct", "--n", str(n), "--k", str(k),
                             "--delta", str(delta), "--p", "2", "--out", code_path)
        if status != 0:
            problems.append(f"{name}: exit status {status}: {err.strip()}")
            continue
        with open(code_path, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != CONSTRUCT_SHA256[n, k, delta]:
                problems.append(f"{name}: bytes differ from the pinned ones")
        status, out, _ = cli("verify", "--code", code_path,
                             "--property", "complete-jmdp:G", "--report", rep_path)
        with open(rep_path) as fh:
            rep = json.load(fh)
        if (status, out) != (0, "passed\n") or (
                rep["j"], rep["sets_checked"], rep["passed"]) != (j, sets, True):
            problems.append(f"verify {name}: status {status}, {out.strip()!r}, "
                            f"j={rep['j']}, {rep['sets_checked']} sets")
    # degree 70 = 2 * 5 * 7: the supplied modulus loads through the Rabin
    # finish, with its gcd at m/2 = 35
    status, out, _ = cli("verify", "--code", binary_code_file(
        os.path.join(tmp, "c70.json"), 70, (0, 1, 3, 5, 70)),
        "--property", "delay-free", "--report", os.path.join(tmp, "v70.json"))
    if (status, out) != (0, "passed\n"):
        problems.append(f"m = 70: status {status}, {out.strip()!r}")
    # x^769 + x^5 + x^4 + x^2 + 1 has six factors, all of degree above 8,
    # which the discriminant parity sieve rejects; x^769 + 1, which x + 1
    # divides, the small-factor sieve rejects as a window of one
    for name, taps in (("c769", (0, 2, 4, 5, 769)), ("c769b", (0, 769))):
        status, _, err = cli("verify", "--code", binary_code_file(
            os.path.join(tmp, f"{name}.json"), 769, taps),
            "--property", "delay-free", "--report", os.path.join(tmp, f"v{name}.json"))
        lines = err.splitlines()
        if status != 1 or len(lines) != 1 or json.loads(lines[0])["error"] != "Reducible":
            problems.append(f"{name}: status {status}, stderr {err!r}")
    return problems


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
            status, _, _ = cli("decode", "--engine", engine, "--code", code_path,
                               "--in", in_path, "--report", rep_path)
            if status != 0:
                problems.append(f"{engine}: exit status {status}")
                continue
            with open(rep_path) as fh:
                report = json.load(fh)["report"]
            got = [int(vals[0], 16) for t, vals in report["message"] if t < len(blocks)]
            if not report["complete"] or got != blocks:
                problems.append(f"{engine}: message not recovered")
        problems += command_line_checks(tmp)
    for shape, sets, N in (((3, 2, 2), 361, 769), ((3, 1, 1), 90, 193)):
        built = build_complete_mdp(*shape, 2)
        rep = verify_complete_jmdp_via_g(built, L_of(*shape))
        if not rep.passed or rep.sets_checked != sets:
            problems.append(f"certify {shape}: passed={rep.passed}, {rep.sets_checked} sets")
        doc = json.loads(json.dumps(built.to_json()))
        if ("primitive" in doc["field"] or doc["metadata"] != built.metadata
                or built.metadata["provenance"]["N"] != N):
            problems.append(f"construct {shape}: unexpected JSON")
    if "sympy" in sys.modules:
        problems.append("sympy was imported")
    return problems


if __name__ == "__main__":
    found = run()
    print("; ".join(found) if found else
          "ok: gm and pc decoded GF(27), (3,2,2) over GF(2^769) and (3,1,1) over"
          " GF(2^193) certified and written, construct, verify and moduli checked"
          " through the CLI, all without sympy")
    sys.exit(1 if found else 0)
