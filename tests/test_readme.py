"""Every ```python block of README.md runs as written, each in a fresh
namespace."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("i", range(len(BLOCKS)))
def test_readme_example_runs(i):
    exec(compile(BLOCKS[i], f"README.md python block {i}", "exec"), {})
