"""tools/record_bench.py on canned bench/run.py output; nothing is run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "record_bench", Path(__file__).resolve().parent.parent / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def canned(seed: int, work: float, commit="b851e2f", passes=8) -> str:
    return "\n".join([
        f'env {{"commit": "{commit}", "nproc": 2, "python": "3.11.7", "seed": {seed}, '
        '"source_sha256": "d62c"}',
        'workload stream {"field": "GF(16)", "streams": 6}',
        "raw_seconds import 0.1 setup [0.06, 0.08] passes [{'gm': 0.09, 'pc': 0.06}]",
        f'exact {{"codec.gm.solves": {600 + seed}, "codec.pc.windows": 160}}',
        f"passes {passes}",
        f"metric peak_rss_mb {20.0 + seed} MB",
        f"metric work_per_s {work!r} 1/s",
        "metric failed_frac 0.0 ratio",
        '{"correct": true, "attempted": 99, "failed": 0, "metrics": {}}',
    ]) + "\n"


def test_parse_run_reads_env_exact_and_every_metric():
    run = record_bench.parse_run(canned(1, 26093.485370924413))
    assert run["env"]["source_sha256"] == "d62c" and run["env"]["seed"] == 1
    assert run["exact"] == {"codec.gm.solves": 601, "codec.pc.windows": 160}
    assert run["passes"] == 8
    assert run["metrics"] == {
        "peak_rss_mb": {"value": 21.0, "unit": "MB"},
        "work_per_s": {"value": 26093.485370924413, "unit": "1/s"},
        "failed_frac": {"value": 0.0, "unit": "ratio"},
    }


def test_parse_run_refuses_other_output():
    with pytest.raises(ValueError, match="not the output of bench/run.py"):
        record_bench.parse_run("bench: no convec sources under src\n")
    without_passes = canned(1, 1.0).replace("passes 8\n", "")
    with pytest.raises(ValueError, match="not the output of bench/run.py"):
        record_bench.parse_run(without_passes)


def test_progress_line_shows_passes_and_memory_beside_the_rate():
    run = record_bench.parse_run(canned(2, 26093.485370924413, passes=57))
    assert record_bench.progress_line("burst", 2, run) == (
        "burst seed 2: work_per_s 26093.5 passes 57 peak_rss_mb 22.0")


def test_summarise_takes_medians_over_seeds():
    runs = {"stream": {s: record_bench.parse_run(canned(s, w, passes=p))
                       for s, w, p in ((3, 30.0, 9), (1, 10.0, 8), (2, 40.0, 12))}}
    doc = record_bench.summarise(16, 15, runs)
    assert (doc["pr"], doc["commit"], doc["source_sha256"], doc["seconds"]) == (
        16, "b851e2f", "d62c", 15)
    stream = doc["workloads"]["stream"]
    assert stream["seeds"] == [1, 2, 3]
    assert stream["metrics"]["work_per_s"] == {"median": 30.0, "unit": "1/s",
                                               "runs": [10.0, 40.0, 30.0]}
    assert stream["metrics"]["peak_rss_mb"]["median"] == 22.0
    assert stream["exact"]["2"] == {"codec.gm.solves": 602, "codec.pc.windows": 160}
    # peak_rss_mb grows with the pass count, so each seed's count is kept
    assert stream["passes"] == {"1": 8, "2": 12, "3": 9}


def test_summarise_refuses_runs_of_different_sources():
    runs = {"stream": {1: record_bench.parse_run(canned(1, 1.0)),
                       2: record_bench.parse_run(canned(2, 1.0, commit="958ffaf"))}}
    with pytest.raises(ValueError, match="disagree"):
        record_bench.summarise(16, 15, runs)
