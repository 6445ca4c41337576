"""Decoding over a small field never imports sympy.

``sympy`` is imported only for numbers of at least 2^32, so a GF(27)
decode through the command line runs without it.  The check runs in a
fresh interpreter, since this test session imports sympy itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_gf27_decode_leaves_sympy_unimported():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "sympy_free_decode.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("ok:")
