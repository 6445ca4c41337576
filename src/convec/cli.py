"""Command line front end.

Subcommands: encode, corrupt, decode, verify, construct, rates, bench.
Codes travel as JSON, streams and messages as the text format with "?"
for erasures.  Reports carry the tool version and sha256 hashes of every
input file; apart from the bench timings (which are wall-clock by
nature) identical inputs and seeds produce byte-identical files.

All randomness enters through explicit --seed flags.  The environment
variable CONVEC_BUDGET caps enumeration work where a subcommand runs a
minor search.

Failures print one JSON object to stderr, {"error": <code>, "message":
...}, and exit nonzero.  Every output is rendered in full before its file
is opened, so a command that fails while rendering leaves no partial file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from . import __version__
from .channel import PatternSpec, corrupt, parse_pattern
from .codec import gm_decode_forward, pc_decode_forward, recovering_rates
from .construct import build_complete_mdp
from .distance import (
    L_of,
    is_mdp,
    verify_complete_jmdp_via_g,
    verify_complete_jmdp_via_h,
)
from .errors import ConvecError, LengthMismatch
from .polymat import ConvCode, PolyMatrix, code_from_json
from .stream import ErasureStream


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_code(path: str, inputs: dict) -> ConvCode:
    data = _read(path)
    inputs["code"] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return code_from_json(json.loads(data))


def _load_stream(path: str, inputs: dict, label: str = "stream") -> ErasureStream:
    data = _read(path)
    inputs[label] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return ErasureStream.from_text(data.decode())


def _write_text(path: str, text: str) -> None:
    """Write text rendered in full beforehand, so a failure while rendering
    leaves no file behind and an existing one as it was."""
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_report(path: str, inputs: dict, payload: dict) -> None:
    doc = {
        "tool": {"name": "convec", "version": __version__},
        "inputs": inputs,
    }
    doc.update(payload)
    _write_json(path, doc)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_encode(args) -> int:
    inputs: dict = {}
    code = _load_code(args.code, inputs)
    msg = _load_stream(args.message, inputs, "message")
    if msg.n != code.k:
        raise LengthMismatch(
            f"message blocks have {msg.n} symbols, the code expects k={code.k}")
    v = code.encode(msg.to_poly())
    _write_text(args.out, ErasureStream.from_codeword(v).to_text())
    print(f"encoded {len(msg)} message blocks -> {v.degree + 1} codeword blocks")
    return 0


def _cmd_corrupt(args) -> int:
    inputs: dict = {}
    stream = _load_stream(args.infile, inputs)
    if args.iid is not None:
        pattern = PatternSpec(kind="iid", prob=args.iid, seed=args.seed)
    else:
        pattern = parse_pattern(args.pattern)
    out = corrupt(stream, pattern, seed=args.seed,
                  cyclic=args.cyclic, block_level=args.block_level)
    _write_text(args.out, out.to_text())
    print(f"erased {out.total_erasures - stream.total_erasures} symbols")
    return 0


def _cmd_decode(args) -> int:
    inputs: dict = {}
    code = _load_code(args.code, inputs)
    stream = _load_stream(args.infile, inputs)
    decode = gm_decode_forward if args.engine == "gm" else pc_decode_forward
    rep = decode(code, stream, max_delay=args.max_delay,
                 guard=args.guard == "on")
    _write_report(args.report, inputs, {"report": rep.to_json()})
    status = "complete" if rep.complete else f"lost intervals {rep.lost_intervals}"
    print(f"decode ({args.engine}): {status}")
    return 0


_FLAG_PROPS = {
    "delay-free": lambda code: code.flags.delay_free,
    "row-reduced": lambda code: code.flags.row_reduced,
    "noncatastrophic": lambda code: code.flags.noncatastrophic_certified,
}


def _cmd_verify(args) -> int:
    inputs: dict = {}
    code = _load_code(args.code, inputs)
    prop = args.property
    if prop in _FLAG_PROPS:
        payload = {"property": prop, "passed": _FLAG_PROPS[prop](code)}
    elif prop == "mdp":
        payload = {"property": "mdp", "passed": is_mdp(code)}
    else:
        j = L_of(code.n, code.k, code.delta) if args.j is None else args.j
        check = (verify_complete_jmdp_via_g if prop.endswith(":G")
                 else verify_complete_jmdp_via_h)
        rep = check(code, j).to_json()  # CONVEC_BUDGET applies inside
        rep["property"] = prop
        rep.pop("wall_time_ms", None)  # keep reports byte-reproducible
        payload = rep
    _write_report(args.report, inputs, payload)
    print("passed" if payload["passed"] else "failed")
    return 0


def _cmd_construct(args) -> int:
    code = build_complete_mdp(args.n, args.k, args.delta, args.p,
                              max_extension_degree=args.max_extension_degree)
    _write_json(args.out, code.to_json())
    prov = code.metadata["provenance"]
    print(f"built ({args.n},{args.k},{args.delta}) code over GF({args.p}^{prov['N']})")
    return 0


def _cmd_rates(args) -> int:
    table = recovering_rates(args.n, args.k, args.delta, args.j)
    cells = [str(table[key]) if key in table else "—"
             for key in ("forward", "guard_G", "guard_H")]
    print(" ".join(cells))
    return 0


def _trial_message(fld, rng, k: int, degree: int) -> PolyMatrix:
    grids = [[[fld.random_element(rng).val for _ in range(k)]]
             for _ in range(degree + 1)]
    return PolyMatrix.from_packed(fld, grids)


def _cmd_bench(args) -> int:
    inputs: dict = {}
    code = _load_code(args.code, inputs)
    pattern = parse_pattern(args.pattern)
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    decoders = {"gm": gm_decode_forward, "pc": pc_decode_forward}
    for e in engines:
        if e not in decoders:
            raise ValueError(f"unknown engine {e!r}")
    trials = []
    for i in range(args.trials):
        rng = random.Random(f"{args.seed}:{i}")
        u = _trial_message(code.field, rng, code.k, args.degree)
        clean = ErasureStream.from_codeword(code.encode(u))
        noisy = corrupt(clean, pattern, seed=args.seed + i, cyclic=True)
        row = {"trial": i, "erasures": noisy.total_erasures, "engines": {}}
        for name in engines:
            t0 = time.perf_counter()
            rep = decoders[name](code, noisy)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            solves = [{"t": w.t, "j": w.j, "unknowns": w.unknowns,
                       "equations": w.equations, "outcome": w.outcome}
                      for w in rep.windows]
            row["engines"][name] = {
                "complete": rep.complete,
                "solves": solves,
                "wall_ms": round(wall_ms, 3),
            }
        trials.append(row)
    summary = {}
    for name in engines:
        unknowns = [s["unknowns"]
                    for row in trials for s in row["engines"][name]["solves"]
                    if s["unknowns"] > 0]
        summary[name] = {
            "solves": len(unknowns),
            "mean_unknowns": round(sum(unknowns) / len(unknowns), 3) if unknowns else 0.0,
            "max_unknowns": max(unknowns, default=0),
            "total_wall_ms": round(sum(row["engines"][name]["wall_ms"]
                                       for row in trials), 3),
            "complete_trials": sum(row["engines"][name]["complete"]
                                   for row in trials),
        }
    _write_report(args.report, inputs, {
        "pattern": args.pattern,
        "seed": args.seed,
        "trials": trials,
        "summary": summary,
    })
    for name in engines:
        s = summary[name]
        print(f"{name}: {s['solves']} solves, mean unknowns {s['mean_unknowns']}, "
              f"{s['complete_trials']}/{args.trials} complete")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="convec",
        description="exact-arithmetic convolutional codes over erasure channels")
    ap.add_argument("--version", action="version", version=f"convec {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="multiply a message stream by the code")
    p.add_argument("--code", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("corrupt", help="apply an erasure pattern to a stream")
    p.add_argument("--in", dest="infile", required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--pattern", help="run-length, iid, or mask pattern text")
    grp.add_argument("--iid", type=float, help="i.i.d. erasure probability")
    p.add_argument("--seed", type=int, help="seed for stochastic patterns")
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--block-level", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_corrupt)

    p = sub.add_parser("decode", help="recover erased symbols and the message")
    p.add_argument("--engine", choices=("gm", "pc"), required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-delay", type=int, default=None)
    p.add_argument("--guard", choices=("on", "off"), default="on")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("verify", help="check a structural or minor property")
    p.add_argument("--code", required=True)
    p.add_argument("--property", required=True, choices=(
        "delay-free", "row-reduced", "noncatastrophic", "mdp",
        "complete-jmdp:G", "complete-jmdp:H"))
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("construct", help="build the explicit large-field code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-extension-degree", type=int, default=4096)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("rates", help="print forward and guard recovering rates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(fn=_cmd_rates)

    p = sub.add_parser("bench", help="measure solve dimensions across engines")
    p.add_argument("--code", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--engines", default="gm,pc")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--degree", type=int, default=19,
                   help="message degree generated per trial")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=_cmd_bench)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "corrupt" and args.iid is not None and args.seed is None:
        print(json.dumps({"error": "ParseError",
                          "message": "--iid needs --seed"}), file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ConvecError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IOError", "message": str(exc)}), file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError, ImportError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
