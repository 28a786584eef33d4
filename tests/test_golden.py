"""Byte-identity of CLI output on fixed inputs.

Each case runs `finconv` in-process through `cli.main` on the models and
measures under tests/golden/ and compares standard output and the exit
code with the recorded `<case>.stdout` and `exit_codes.json`. A change that
alters any of these bytes on purpose regenerates them and says why:

    PYTHONPATH=src python tests/test_golden.py

With --check it writes nothing and prints each case whose output would
change, with the largest absolute and the largest relative change among
its numbers, or the first line that changes beyond its numbers, which is
what such a change has to justify:

    PYTHONPATH=src python tests/test_golden.py --check
"""

import contextlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

from finconv import cli
from test_cli import SUBCOMMANDS

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_c3": ["verify", "c3.json"],
    "verify_broken": ["verify", "broken.json"],
    "root_c2_flip": ["root", "c2.json", "c2_one.json", "--n", "2", "--seed", "7"],
    "root_c2": ["root", "c2.json", "c2_mu.json", "--n", "2"],
    "root_c3": ["root", "c3.json", "c3_mu.json", "--n", "3"],
    "root_j3": ["root", "j3.json", "j3_mu.json", "--n", "3"],
    # Z8's delta_1 has no square root, as its real semicharacter of order 2 shows
    "root_z8_d1": ["root", "z8.json", "z8_one.json", "--n", "2"],
    "divisible_c2": ["divisible", "c2.json", "c2_heavy.json", "--n-max", "3"],
    "divisible_c3": ["divisible", "c3.json", "c3_mu.json", "--n-max", "3"],
    "divisible_j3": ["divisible", "j3.json", "j3_mu.json", "--n-max", "3"],
    "fit_lk_j2": ["fit-lk", "j2.json", "j2_quarter.json"],
    # all three phases of the fit run: coarse grid, refinement and polish
    "fit_lk_c2": ["fit-lk", "c2.json", "c2_one.json", "--r-max", "2", "--max-iters", "500", "--restarts", "4"],
    # a fit that the refinement and the polish each improve on the coarse grid's best
    "fit_lk_c3": ["fit-lk", "c3.json", "c3_fit.json", "--max-iters", "500", "--restarts", "4"],
    "exp_r0": ["exp", "j3.json", "j3_mu.json", "--r", "0"],
    "exp_r1": ["exp", "j3.json", "j3_mu.json", "--r", "1"],
    "exp_r200": ["exp", "j3.json", "j3_mu.json", "--r", "200"],
    # past the series limit the exponential is taken by squaring
    "exp_r900": ["exp", "j3.json", "j3_mu.json", "--r", "900"],
    "power_c3": ["power", "c3.json", "c3_mu.json", "--n", "5"],
    "bernoulli_c2": ["bernoulli", "c2.json", "c2_one.json", "--r", "1", "--K-list", "4,16,64"],
    "levy_root_c3": ["levy-root", "c3.json", "c3_mu.json", "--N", "4"],
    "levy_exp_c2": ["levy-exp", "c2.json", "c2_mu.json", "--r", "1", "--N", "4"],
    "levy_validate_c3": ["levy-validate", "c3.json", "c3_path.json"],
    # long paths: a group (Z8) and a chain (J3), with exact and sampled ticks
    "levy_root_z8": ["levy-root", "z8.json", "z8_mu.json", "--N", "64"],
    "levy_root_j3": ["levy-root", "j3.json", "j3_mu.json", "--N", "64"],
    "levy_validate_z8": ["levy-validate", "z8.json", "z8_path.json"],
    "levy_validate_z8_csv": ["levy-validate", "z8.json", "z8_path.csv"],
    "levy_validate_j3": ["levy-validate", "j3.json", "j3_rational.json"],
    "levy_validate_j3_csv": ["levy-validate", "j3.json", "j3_path.csv"],
    "eval_c3": ["eval", "c3.json", "c3_mu.json", "--formula", "add(x,x)=zero"],
    "convolve_c3": ["convolve", "c3.json", "c3_mu.json", "c3_fit.json"],
    "lambda_c2": ["lambda", "c2.json", "c2_mu.json", "--r", "1", "--K", "16"],
    "extract_jump_c3": ["extract-jump", "c3.json", "c3_mu.json", "--r", "1", "--K", "1"],
    # two of the three conditions fail at K = 4
    "concentration_c3": ["concentration", "c3.json", "c3_mu.json", "c3_mu.json", "--r", "1", "--K", "4"],
    "compare_paths_c3": ["compare-paths", "c3.json", "c3_mu.json", "c3_fit.json", "--N", "8"],
}


def run_case(name: str) -> tuple[int, str]:
    argv = [str(GOLDEN / a) if a.endswith((".json", ".csv")) else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name):
    code, stdout = run_case(name)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_text()


def test_every_verb_has_a_golden_case():
    assert sorted({argv[0] for argv in CASES.values()}) == sorted(SUBCOMMANDS)


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def describe_change(old: str, new: str) -> str:
    """The largest absolute and the largest relative change between the
    numbers of two outputs that differ in their numbers only; otherwise the
    first pair of lines that differ beyond their numbers."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        a, b = next(
            (a, b)
            for a, b in itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue="")
            if NUMBER.sub("#", a) != NUMBER.sub("#", b)
        )
        return f"the text changes beyond its numbers, first at {a.strip()!r} -> {b.strip()!r}"
    changes = [
        (abs(float(b) - float(a)), abs(float(b) - float(a)) / abs(float(a)) if float(a) else float("inf"), a, b)
        for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))
        if float(a) != float(b)
    ]
    if not changes:
        return "only the spelling of its numbers changes"
    absolute = max(changes, key=lambda c: c[0])
    relative = max(changes, key=lambda c: c[1])
    return (f"largest absolute change {absolute[0]:.3g} ({absolute[2]} -> {absolute[3]}), "
            f"largest relative change {relative[1]:.3g} ({relative[2]} -> {relative[3]})")


def check() -> None:
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for name in sorted(CASES):
        code, stdout = run_case(name)
        if name not in codes:
            print(f"{name}: a new case, exit code {code}")
            continue
        if code != codes[name]:
            print(f"{name}: exit code {codes[name]} -> {code}")
        old = (GOLDEN / f"{name}.stdout").read_text()
        if stdout != old:
            print(f"{name}: {describe_change(old, stdout)}")


def regenerate() -> None:
    codes = {}
    for name in sorted(CASES):
        codes[name], stdout = run_case(name)
        (GOLDEN / f"{name}.stdout").write_text(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        check()
    else:
        regenerate()
