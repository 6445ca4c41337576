"""Golden demo outputs: every script in ``demos/`` must exit as stored and
print the stored stdout byte for byte.

Each demo runs in its own interpreter with ``PYTHONPATH=src``, as a reader
would run it.  A demo without a stored entry fails, so a new demo needs a
new golden line.  The expected file was written once by ``regenerate()``,
from the source tree the outputs are meant to match:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_demos as g; g.regenerate()"
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("golden_demos.jsonl")


def run_demo(path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return {"demo": path.name, "returncode": done.returncode, "stdout": done.stdout}


def regenerate(path: Path = GOLDEN) -> None:
    path.write_text("".join(json.dumps(run_demo(d)) + "\n" for d in DEMOS))


def _stored() -> dict[str, dict]:
    docs = (json.loads(line) for line in GOLDEN.read_text().splitlines())
    return {doc["demo"]: doc for doc in docs}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_output_matches_golden(path):
    stored = _stored()
    assert path.name in stored, f"no golden entry for demos/{path.name}"
    assert run_demo(path) == stored[path.name]
