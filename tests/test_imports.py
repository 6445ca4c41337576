"""The library runs on the standard library alone.

Every import in ``src/convec`` names a standard-library module or the
package itself, and a GF(27) decode, two constructions and their
certificates, and the command-line construct, verify and modulus checks of
``sympy_free_decode.py`` run in a fresh interpreter without sympy, which
this test session imports for its oracles.  The library keeps one cache at module
level, the field cache.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import convec
from convec import gf

ROOT = Path(__file__).resolve().parents[1]


def test_library_imports_only_the_standard_library():
    found = []
    for path in sorted((ROOT / "src" / "convec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_one_module_level_cache():
    cached = []
    for info in pkgutil.iter_modules(convec.__path__, "convec."):
        module = importlib.import_module(info.name)
        cached += [(info.name, name) for name, obj in vars(module).items()
                   if hasattr(obj, "cache_clear") and obj is not gf._cached_field]
    assert cached == []
    assert hasattr(gf._cached_field, "cache_clear")


def test_gf27_decode_leaves_sympy_unimported():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "sympy_free_decode.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("ok:")
