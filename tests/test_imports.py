"""The library runs on the standard library alone.

Every import in ``src/convec`` names a standard-library module or the
package itself, and a GF(27) decode, two constructions and their
certificates, and the command-line construct, verify and modulus checks of
``sympy_free_decode.py`` run in a fresh interpreter without sympy, which
this test session imports for its oracles.  The library keeps one cache at module
level, the field cache, and emptying it leaves no Field behind.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
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


def _cell_contents(cell):
    try:
        return cell.cell_contents
    except ValueError:  # a cell not yet bound
        return None


def _holds_field(obj, seen) -> bool:
    """Whether obj is a Field or reaches one through containers, a
    function's attributes, defaults and closure, or a convec class's
    namespace."""
    if id(obj) in seen or isinstance(obj, types.ModuleType):
        return False
    seen.add(id(obj))
    if isinstance(obj, gf.Field):
        return True
    if isinstance(obj, dict):
        inner = [*obj, *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        inner = obj
    elif isinstance(obj, types.FunctionType):
        inner = [*vars(obj).values(), *(obj.__defaults__ or ()),
                 *map(_cell_contents, obj.__closure__ or ())]
    elif isinstance(obj, type) and obj.__module__.startswith("convec"):
        inner = vars(obj).values()
    else:
        return False
    return any(_holds_field(x, seen) for x in inner)


def test_one_module_level_cache(cold_fields):
    modules = [importlib.import_module(info.name)
               for info in pkgutil.iter_modules(convec.__path__, "convec.")]
    cached = [(module.__name__, name) for module in modules for name, obj in vars(module).items()
              if hasattr(obj, "cache_clear") and obj is not gf._cached_field]
    assert cached == []
    # cold means cold: after cache_clear every way of asking for a field
    # builds a new one, and no module global still holds a Field
    requests = [lambda: gf.field(2, 4), lambda: gf.field_from_ref("2^4:13"),
                lambda: gf.field_from_json({"p": 3, "m": 3})]
    before = [request() for request in requests]
    gf._cached_field.cache_clear()
    assert all(request() is not old for request, old in zip(requests, before))
    gf._cached_field.cache_clear()
    seen: set[int] = set()
    held = [(module.__name__, name) for module in modules
            for name, obj in vars(module).items() if _holds_field(obj, seen)]
    assert held == []


def test_gf27_decode_leaves_sympy_unimported():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "sympy_free_decode.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.startswith("ok:")
