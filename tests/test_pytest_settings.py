"""The suite's pytest settings: a failing property test is reported as one
ordinary failure, and the tests after it still run."""

import pathlib
import shutil
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_suite(tmp_path):
    # on a failure hypothesis's plugin imports libcst, whose import warns
    # with a DeprecationWarning; run in tmp_path, which also receives the
    # .hypothesis directory of the failing example's patch
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
