"""Tests for tools/code_lines.py, the code-line count of a package."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

INIT = '''"""Module docstring
over two lines."""

import os


# a comment-only line
def f(a,
      b):
    """Function docstring."""
    x = (a +     # a trailing comment
         b)
    "a bare string that is not a docstring"
    return x


class C:
    """Class docstring.

    Over several lines.
    """

    def g(self):
        return os.sep
'''

MODULE = '''x = 1
"""a string after the first statement is no docstring"""
'''


def run_tool(root: Path) -> dict:
    out = subprocess.run([sys.executable, str(TOOL), str(root)], check=True,
                         capture_output=True, text=True).stdout
    return {name: int(n) for name, n in map(str.split, out.splitlines())}


def test_counts_each_module_and_the_total(tmp_path):
    (tmp_path / "__init__.py").write_text(INIT)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "__init__.py").write_text("")
    (tmp_path / "sub" / "mod.py").write_text(MODULE)
    counts = run_tool(tmp_path)
    # INIT: import, def over two lines, the assignment over two, the bare
    # string, return, class, def g and its return
    assert counts == {"__init__.py": 10, "sub/__init__.py": 0, "sub/mod.py": 2,
                      "total": 12}


def test_empty_directory_totals_zero(tmp_path):
    assert run_tool(tmp_path) == {"total": 0}
