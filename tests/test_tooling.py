"""The test settings themselves: a failing property test must be reported
as a failure with its falsifying example, not abort the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout


PASSING_XFAIL = """
import pytest


@pytest.mark.xfail(reason="pins a known fault")
def test_pinned():
    assert True
"""


def test_an_xfail_that_passes_fails_the_run(tmp_path):
    (tmp_path / "test_pin.py").write_text(PASSING_XFAIL)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pin.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "XPASS(strict)" in proc.stdout
