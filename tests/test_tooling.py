"""The test settings and tools themselves: a failing property test must be
reported as a failure with its falsifying example, not abort the run, and
the golden script's check must name the largest changes of a case."""

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


def test_golden_check_names_the_largest_changes():
    from test_golden import describe_change

    old, new = '{"w": [0.25, 1e-10, 3]}\n', '{"w": [0.375, 2e-10, 3]}\n'
    assert describe_change(old, new) == (
        "largest absolute change 0.125 (0.25 -> 0.375), largest relative change 1 (1e-10 -> 2e-10)"
    )
    assert describe_change(old, old.replace("0.25", "2.5e-1")) == "only the spelling of its numbers changes"
    assert describe_change(old, old.replace('"w"', '"v"')) == (
        "the text changes beyond its numbers, first at '{\"w\": [0.25, 1e-10, 3]}' -> '{\"v\": [0.25, 1e-10, 3]}'"
    )
    # a number that becomes null: the first such line pair, stripped of its indent
    before = '{\n  "lower_bound": 0.5,\n  "n": 2,\n  "x": 1e-10\n}\n'
    after = '{\n  "lower_bound": null,\n  "n": 2,\n  "x": null\n}\n'
    assert describe_change(before, after) == (
        "the text changes beyond its numbers, first at '\"lower_bound\": 0.5,' -> '\"lower_bound\": null,'"
    )
    # a line that only one side has
    assert describe_change("[1]\n", "[1]\n[2]\n") == "the text changes beyond its numbers, first at '' -> '[2]'"
