"""convec benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload stream|burst|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; convec is imported from ./src and
nowhere else, so a directory without the sources fails with exit code 2.

--trace 0 measures the end-to-end metrics with tracing off: set-up runs
SETUP_RUNS times (median reported), then whole passes over the generated
inputs repeat until --seconds have passed (per-pass medians reported).

--trace 1 runs set-up and one pass untraced, then both again with every
layer's public functions wrapped (see spans.py), and reports the per-layer
metrics: span times in wall seconds, the tracing overhead in rescaled ones.  Spans go to
.bench_out/ when the run ends.

Every output is checked against the clean inputs; any mismatch or exception
counts as failed, and the run then exits 1 after printing its result.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 3
OUT_DIR = ROOT / ".bench_out"


def refuse(why: str):
    print(f"bench: {why}", file=sys.stderr)
    sys.exit(2)


def load_convec():
    """Import convec from this checkout's sources, or exit 2."""
    src = ROOT / "src"
    if not (src / "convec" / "__init__.py").is_file():
        refuse(f"no convec sources under {src}")
    sys.path.insert(0, str(src))
    import convec

    if Path(convec.__file__).resolve().parent != (src / "convec").resolve():
        refuse(f"convec imported from {convec.__file__}, not from {src}")


def environment(seed: int) -> dict:
    """Python, nproc, commit (None outside a git checkout), source digest, seed."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "convec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest(), "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the traced layers
# ---------------------------------------------------------------------------

def _cells(counts, args, result):
    a = args[0]
    counts["linalg.solve_right.cells"] += a.nrows * a.ncols


def _guard(engine):
    def record(counts, args, result):
        counts[f"codec.{engine}_guard_recover.ok"] += bool(result.ok)
    return record


def install(tracer):
    """Wrap the public function of each layer where its callers look it up."""
    from convec import channel, codec, construct, distance, gf, linalg, polymat, sliding
    from convec.gf import Element
    from convec.polymat import ConvCode
    from convec.stream import ErasureStream

    tracer.count_method("gf.mul_count", Element, "__mul__")
    tracer.count_method("gf.inv_count", Element, "inverse")
    tracer.count_method("gf.inv_count", Element, "__truediv__")
    # only construction's own lookup: it is the cold build, while every
    # stream parse fetches the cached field through gf.field again
    tracer.wrap_function("gf.field", gf, "field", only={"convec.construct"})
    tracer.wrap_function("linalg.solve_right", linalg, "solve_right", _cells)
    tracer.wrap_function("linalg.minor", linalg, "minor")
    tracer.wrap_function("linalg.rank", linalg, "rank")
    tracer.wrap_function("sliding.generator_band", sliding, "generator_band")
    tracer.wrap_function("sliding.parity_band", sliding, "parity_band")
    tracer.wrap_iterator("sliding.enumerate_nontrivial", sliding, "enumerate_nontrivial")
    tracer.wrap_method("polymat.encode", ConvCode, "encode")
    tracer.wrap_function("polymat.code_from_json", polymat, "code_from_json")
    tracer.wrap_method("stream.from_text", ErasureStream, "from_text")
    tracer.wrap_function("channel.corrupt", channel, "corrupt")
    tracer.wrap_function("codec.gm_decode_forward", codec, "gm_decode_forward")
    tracer.wrap_function("codec.pc_decode_forward", codec, "pc_decode_forward")
    tracer.wrap_function("codec.gm_guard_recover", codec, "gm_guard_recover", _guard("gm"))
    tracer.wrap_function("codec.pc_guard_recover", codec, "pc_guard_recover", _guard("pc"))
    tracer.wrap_function("codec.extract_message", codec, "extract_message")
    tracer.wrap_function("distance.verify", distance, "verify_complete_jmdp_via_g")
    tracer.wrap_function("construct.build_complete_mdp", construct, "build_complete_mdp")


def gf_op_us(fld, seed: int, ops: int, batches: int = 5) -> tuple[float, float]:
    """Median microseconds per mul (ops of them per batch) and per inverse
    (a tenth as many) on seeded nonzero operands."""
    rng = random.Random(seed)
    xs = [fld.el(rng.randrange(1, fld.q)) for _ in range(ops)]
    ys = [fld.el(rng.randrange(1, fld.q)) for _ in range(ops)]
    invs = xs[:max(ops // 10, 1)]
    clock = time.perf_counter
    mul, inv = [], []
    for _ in range(batches):
        t0 = clock()
        for x, y in zip(xs, ys):
            x * y
        mul.append((clock() - t0) / len(xs) * 1e6)
        t0 = clock()
        for x in invs:
            x.inverse()
        inv.append((clock() - t0) / len(invs) * 1e6)
    return statistics.median(mul), statistics.median(inv)


def per_layer(tracer, inputs, passes, seed) -> dict:
    """Per-layer metrics from one traced set-up and pass: name -> (value, unit)."""
    st = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    out = {}
    fld = inputs.code.field
    mul_us, inv_us = gf_op_us(fld, seed, 2000 if fld.q < 1 << 16 else 200)
    out["gf.mul_us"] = (mul_us, "us")
    out["gf.inv_us"] = (inv_us, "us")
    out["gf.field_build_s"] = (tracer.total_time("gf.field"), "s")
    out["gf.mul_count"] = (counts["gf.mul_count"], "count")
    out["gf.inv_count"] = (counts["gf.inv_count"], "count")
    for name in ("linalg.solve_right", "linalg.minor", "sliding.generator_band",
                 "sliding.parity_band", "codec.gm_guard_recover",
                 "codec.pc_guard_recover", "codec.extract_message"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["linalg.solve_right.cells"] = (counts["linalg.solve_right.cells"], "count")
    for engine in ("gm", "pc"):
        name = f"codec.{engine}_guard_recover"
        ok = counts[f"{name}.ok"]
        out[f"{name}.ok"] = (ok, "count")
        out[f"{name}.yield"] = (ok / calls(name) if calls(name) else 0.0, "ratio")
        out[f"codec.{engine}_decode_forward.self_s"] = (self_s(f"codec.{engine}_decode_forward"), "s")
    out["codec.extract_message.streams"] = (len(tracer.trace_ids_with("codec.extract_message")), "count")
    for name in ("linalg.rank", "sliding.enumerate_nontrivial", "distance.verify",
                 "construct.build_complete_mdp"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("stream.from_text", "polymat.encode", "polymat.code_from_json", "channel.corrupt"):
        out[f"{name}_s"] = (tracer.total_time(name), "s")
    st_pass = passes[-1].stats
    out["codec.gm.windows"] = (st_pass.get("gm.windows", 0), "count")
    out["codec.pc.windows"] = (st_pass.get("pc.windows", 0), "count")
    solves = st_pass.get("gm.solves", 0)
    out["codec.gm.mean_unknowns"] = (st_pass["gm.unknowns"] / solves if solves else 0.0, "count")
    out["distance.sets_checked"] = (st_pass.get("sets_checked", 0), "count")
    return out


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result dict, human-readable lines, trace dump)."""
    import gauge
    import spans
    import workloads

    timer = gauge.Gauge(segmented=not trace)
    import_raw = time.perf_counter() - START
    import_s = import_raw * timer.factor()
    wl = workloads.make(workload_name, tiny)
    env = environment(seed)
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {workload_name} {json.dumps(wl.describe(), sort_keys=True)}"]
    problems, attempted = [], 0
    if not trace:
        setup_runs, setup_raw = [], []
        for _ in range(SETUP_RUNS):
            inputs, wall, scaled = timer.time(wl.setup, seed)
            setup_runs.append(scaled)
            setup_raw.append(wall)
        attempted += SETUP_RUNS
        passes, t0 = [], time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(wl.run_pass(inputs, timer))
        setup_s = import_s + statistics.median(setup_runs)
        named = wl.end_to_end(inputs, passes, setup_runs)
        named["setup_s"] = (setup_s, "s")
        named["peak_rss_mb"] = (peak_rss_mb(), "MB")
        lines.append(f"raw_seconds import {import_raw!r} setup {setup_raw!r} "
                     f"passes {[p.raw for p in passes]!r}")
        dump = None
    else:
        inputs, _, plain_setup = timer.time(wl.setup, seed)
        plain = wl.run_pass(inputs, timer)
        tracer = spans.Tracer()
        install(tracer)
        try:
            inputs, _, traced_setup = timer.time(wl.setup, seed)
            traced = wl.run_pass(inputs, timer, tracer)
        finally:
            tracer.restore()
        attempted += 2
        passes = [plain, traced]
        if traced.outputs != plain.outputs:
            problems.append("traced outputs differ from untraced outputs")
        named = per_layer(tracer, inputs, passes, seed)
        plain_s = plain_setup + sum(plain.seconds.values())
        overhead = traced_setup + sum(traced.seconds.values()) - plain_s
        named["trace.overhead_s"] = (overhead, "s")
        named["trace.overhead_frac"] = (overhead / plain_s, "ratio")
        dump = {"environment": env, "workload": workload_name,
                "spans": tracer.dump(), "counts": dict(tracer.counts),
                "solve_ops_estimate": "heuristic r*c*min(r,c) per solve; not a count"}
    failed = len(problems)
    for i, p in enumerate(passes):
        attempted += p.attempted
        failed += p.failed
        problems += p.problems
        if p.outputs != passes[0].outputs:
            problems.append(f"pass {i} outputs differ from pass 0")
            failed += 1
    failed = min(failed, attempted)
    lines.append(f"exact {json.dumps(wl.exact_counts(passes), sort_keys=True)}")
    lines.append(f"passes {len(passes)}")
    lines += [f"metric {k} {v!r} {u}" for k, (v, u) in sorted(named.items())]
    lines.append(f"metric failed_frac {failed / attempted!r} ratio")
    lines += [f"problem {p}" for p in problems[:20]]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    return result, lines, dump


def select(result: dict, names) -> dict:
    """Keep only the metrics BENCHMARK.json lists for this mode."""
    out = dict(result)
    out["metrics"] = {k: result["metrics"][k] for k in names}
    return out


def declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("stream", "burst", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if "CONVEC_BUDGET" in os.environ:
        refuse("CONVEC_BUDGET is set; it changes the verification work, unset it")
    load_convec()
    result, lines, dump = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    if dump is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(dump))
        print(f"spans {len(dump['spans'])} written to {path.relative_to(ROOT)}")
    print(json.dumps(select(result, [m["name"] for m in declared(bool(args.trace))])),
          flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
