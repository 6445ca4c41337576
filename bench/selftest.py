"""Self-test of the benchmark at tiny sizes; run from the repository root:

    python3 bench/selftest.py

It checks that
  * all three workloads run correctly in both modes at tiny sizes;
  * every metric BENCHMARK.json names is emitted with its declared unit;
  * the exact counts repeat across two traced runs with the same seed, and
    tracing leaves every report and verification result unchanged;
  * a symbol deliberately corrupted in the checker's input is caught as a
    failure, and so is a certificate that checked the wrong number of sets.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
import time

import run


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def metrics_match(result: dict, declared: list[dict], where: str):
    for m in declared:
        got = result["metrics"].get(m["name"])
        check(got is not None, f"{where}: metric {m['name']} missing")
        check(got["unit"] == m["unit"], f"{where}: {m['name']} in {got['unit']}, not {m['unit']}")
        check(isinstance(got["value"], (int, float)), f"{where}: {m['name']} is not a number")


def corrupted_symbol_is_caught(workloads, gauge):
    wl = workloads.make("stream", tiny=True)
    inputs = wl.setup(7)
    clean = wl.run_pass(inputs, gauge.Gauge())
    check(not clean.problems, f"clean tiny stream pass fails: {clean.problems}")
    case = inputs.cases[0]
    erased = [(t, pos) for t, line in enumerate(case.text.splitlines()[1:])
              for pos, tok in enumerate(line.split()) if tok == "?"]
    check(bool(erased), "tiny stream has no erasure to corrupt")
    t, pos = erased[0]
    case.clean[t][pos] ^= 1  # the checker now expects another symbol there
    bad = wl.run_pass(inputs, gauge.Gauge())
    check(len(bad.problems) == 2 and all(f"symbol ({t},{pos})" in p for p in bad.problems),
          f"corrupted symbol not caught by both engines: {bad.problems}")


def wrong_certificate_is_caught(workloads):
    from convec.distance import VerificationReport

    good = VerificationReport("complete_jmdp_via_g", 2, 10, True, None, 1.0)
    check(not workloads.check_certificate(good, 10), "a right certificate is refused")
    check(bool(workloads.check_certificate(good, 11)), "a wrong set count is accepted")
    failed = VerificationReport("complete_jmdp_via_g", 2, 10, False, None, 1.0)
    check(bool(workloads.check_certificate(failed, 10)), "a failed verification is accepted")


def main() -> int:
    t0 = time.perf_counter()
    run.load_convec()
    import gauge
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(workloads.WORKLOADS), f"BENCHMARK.json lists {names}")
    for name in names:
        result, lines, _ = run.run(name, 3, 0.05, trace=False, tiny=True)
        check(result["correct"] and result["failed"] == 0, f"{name}: {lines}")
        metrics_match(result, spec["end_to_end"], f"{name} untraced")
        traced = []
        for _ in range(2):
            result, lines, dump = run.run(name, 3, 0.05, trace=True, tiny=True)
            check(result["correct"], f"{name} traced: {lines}")
            check(bool(dump["spans"]), f"{name}: no spans recorded")
            metrics_match(result, spec["per_layer"], f"{name} traced")
            traced.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"}
                          | {"exact": [ln for ln in lines if ln.startswith("exact ")]})
        check(traced[0] == traced[1], f"{name}: counts differ between runs {traced}")
        print(f"selftest {name}: ok")
    corrupted_symbol_is_caught(workloads, gauge)
    wrong_certificate_is_caught(workloads)
    print(f"selftest: all checks passed in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
