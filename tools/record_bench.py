"""Record the benchmark at fixed seeds into BENCH_<pr>.json.

    python3 tools/record_bench.py --pr 16

Runs every workload that BENCHMARK.json lists through bench/run.py with
tracing off for its run_seconds, once for each of SEEDS, in a fresh process
each, from the root of this checkout.  The file keeps the environment
(Python, nproc, commit and the sha256 of src/convec/*.py, which must agree
across runs), and per workload the median over seeds of every metric
run.py prints, each seed's values, its `exact` counts and its `passes`, the
number of passes run.py fitted into run_seconds (peak_rss_mb grows with it,
since run.py keeps every pass's reports).

The commit is the checkout's HEAD, so record after committing the sources
the file describes; source_sha256 names them either way.  Exits 1 without
writing when a run fails its own checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def parse_run(stdout: str) -> dict:
    """The env, exact counts, pass count and metrics of one bench/run.py
    output."""
    env, exact, passes, metrics = None, None, None, {}
    for line in stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word == "env":
            env = json.loads(rest)
        elif word == "exact":
            exact = json.loads(rest)
        elif word == "passes":
            passes = int(rest)
        elif word == "metric":
            name, value, unit = rest.split(" ")
            metrics[name] = {"value": float(value), "unit": unit}
    if env is None or exact is None or passes is None or not metrics:
        raise ValueError("not the output of bench/run.py")
    return {"env": env, "exact": exact, "passes": passes, "metrics": metrics}


def summarise(pr: int, seconds: float, runs: dict) -> dict:
    """BENCH_<pr>.json from {workload: {seed: parse_run(...)}}."""
    envs = [r["env"] for by_seed in runs.values() for r in by_seed.values()]
    env = {key: envs[0][key] for key in ("python", "nproc", "commit", "source_sha256")}
    for other in envs:
        if any(other[key] != env[key] for key in env):
            raise ValueError("runs disagree on their environment")
    out = {"pr": pr, **env, "seconds": seconds, "workloads": {}}
    for workload, by_seed in runs.items():
        seeds = sorted(by_seed)
        names = sorted(by_seed[seeds[0]]["metrics"])
        out["workloads"][workload] = {
            "seeds": seeds,
            "metrics": {name: {
                "median": statistics.median(by_seed[s]["metrics"][name]["value"]
                                            for s in seeds),
                "unit": by_seed[seeds[0]]["metrics"][name]["unit"],
                "runs": [by_seed[s]["metrics"][name]["value"] for s in seeds],
            } for name in names},
            "exact": {str(s): by_seed[s]["exact"] for s in seeds},
            "passes": {str(s): by_seed[s]["passes"] for s in seeds},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode:
                print(f"record_bench: {workload} seed {seed} failed:\n{proc.stdout}"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            run = runs.setdefault(workload, {})[seed] = parse_run(proc.stdout)
            print(f"{workload} seed {seed}: work_per_s "
                  f"{run['metrics']['work_per_s']['value']:.1f}", flush=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(summarise(args.pr, seconds, runs), indent=2,
                               sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
