"""Byte-identity of CLI output on fixed inputs.

Each case runs `finconv` in-process through `cli.main` on the models and
measures under tests/golden/ and compares standard output and the exit
code with the recorded `<case>.stdout` and `exit_codes.json`. A change that
alters any of these bytes on purpose regenerates them and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from finconv import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_c3": ["verify", "c3.json"],
    "verify_broken": ["verify", "broken.json"],
    "root_c2_flip": ["root", "c2.json", "c2_one.json", "--n", "2", "--seed", "7"],
    "root_c2": ["root", "c2.json", "c2_mu.json", "--n", "2"],
    "root_c3": ["root", "c3.json", "c3_mu.json", "--n", "3"],
    "root_j3": ["root", "j3.json", "j3_mu.json", "--n", "3"],
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


if __name__ == "__main__":
    codes = {}
    for name in sorted(CASES):
        codes[name], stdout = run_case(name)
        (GOLDEN / f"{name}.stdout").write_text(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
