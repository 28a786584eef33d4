import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finconv.cli import build_parser

GOLDEN = Path(__file__).parent / "golden"

SUBCOMMANDS = [
    "verify", "eval", "convolve", "power", "exp", "root", "divisible",
    "lambda", "extract-jump", "concentration", "fit-lk", "bernoulli",
    "levy-root", "levy-exp", "levy-validate", "compare-paths",
]

C2_MODEL = {
    "universe": ["0", "1"],
    "functions": {"add": {"arity": 2, "table": [[0, 1], [1, 0]]}},
    "constants": {"zero": 0},
    "semigroup": {"function": "add"},
}

J2_MODEL = {
    "universe": 2,
    "relations": {"leq": {"arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]}},
    "semigroup": {
        "formula": "leq(x, z) & leq(y, z) & (forall w. (leq(x, w) & leq(y, w)) -> leq(z, w))"
    },
}

BROKEN_MODEL = {
    "universe": 2,
    "functions": {"add": {"arity": 2, "table": [[0, 0], [1, 1]]}},
    "semigroup": {"function": "add"},
}


# capped addition min(x + y, 2): not a union of groups, so its exponentials
# keep the Poisson series rather than the semicharacter transform
CAPPED_MODEL = {
    "universe": 3,
    "functions": {"add": {"arity": 2, "table": [[0, 1, 2], [1, 2, 2], [2, 2, 2]]}},
    "semigroup": {"function": "add"},
}


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "finconv", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "c2.json").write_text(json.dumps(C2_MODEL))
    (d / "j2.json").write_text(json.dumps(J2_MODEL))
    (d / "broken.json").write_text(json.dumps(BROKEN_MODEL))
    (d / "d1.json").write_text(json.dumps({"point": "1"}))
    (d / "mu.json").write_text(json.dumps({"weights": [0.3, 0.7]}))
    (d / "quarter.json").write_text(json.dumps({"weights": [0.25, 0.75]}))
    (d / "lam.json").write_text(json.dumps({"weights": [10 / 11, 1 / 11]}))
    (d / "capped.json").write_text(json.dumps(CAPPED_MODEL))
    (d / "capped_mu.json").write_text(json.dumps({"weights": np.random.default_rng(3).dirichlet(np.ones(3)).tolist()}))
    return d


def test_every_subcommand_has_help_with_defaults():
    for name in SUBCOMMANDS:
        proc = run_cli(name, "--help")
        assert proc.returncode == 0, name
        assert "--threads" in proc.stdout
        assert "-o" in proc.stdout
        assert "default" in proc.stdout


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    examples = [line for block in blocks for line in block.splitlines() if line.startswith("finconv ")]
    assert len(examples) >= 16
    parser = build_parser()
    for line in examples:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0], line


def test_verify_pass_and_fail(files):
    ok = run_cli("verify", str(files / "c2.json"))
    assert ok.returncode == 0
    doc = json.loads(ok.stdout)
    assert doc["passed"] and doc["zero"] == 0
    formula_route = run_cli("verify", str(files / "j2.json"))
    assert formula_route.returncode == 0
    assert json.loads(formula_route.stdout)["add_table"] == [[0, 1], [1, 1]]
    # an integral float reads as an integer here as it does for an arity
    float_universe = files / "j2_float_universe.json"
    float_universe.write_text(json.dumps({**J2_MODEL, "universe": 2.0}))
    assert run_cli("verify", str(float_universe)).stdout == formula_route.stdout
    bad = run_cli("verify", str(files / "broken.json"))
    assert bad.returncode == 1
    report = json.loads(bad.stdout)
    comm = [a for a in report["axioms"] if a["name"] == "commutativity"][0]
    assert comm["counterexample"][:2] == [0, 1]


def test_missing_file_is_input_error(files):
    proc = run_cli("verify", str(files / "nope.json"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_eval(files):
    proc = run_cli("eval", str(files / "c2.json"), str(files / "mu.json"), "--formula", "add(1, x) = zero")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["probability"] == pytest.approx(0.7)
    assert doc["event"] == [1]


def test_eval_without_semigroup(files, tmp_path):
    model = tmp_path / "bare.json"
    model.write_text(json.dumps({
        "universe": 2,
        "relations": {"leq": {"arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]}},
    }))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"weights": [0.3, 0.7]}))
    proc = run_cli("eval", str(model), str(mu), "--formula", "forall y. leq(x, y)")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.3)


def test_convolve_and_power(files):
    proc = run_cli("convolve", str(files / "c2.json"), str(files / "d1.json"), str(files / "d1.json"))
    assert json.loads(proc.stdout)["weights"] == [1.0, 0.0]
    proc = run_cli("power", str(files / "c2.json"), str(files / "mu.json"), "--n", "0")
    assert json.loads(proc.stdout)["weights"] == [1.0, 0.0]


def test_exp_output_file_sums_to_one(files, tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli("exp", str(files / "c2.json"), str(files / "d1.json"), "--r", "1", "--tol", "1e-9", "-o", str(out))
    assert proc.returncode == 0
    weights = json.loads(out.read_text())["weights"]
    assert abs(math.fsum(weights) - 1.0) <= 1e-12
    assert weights[0] == pytest.approx(math.exp(-1) * math.cosh(1), abs=1e-9)


def test_measure_csv_export(files, tmp_path):
    out = tmp_path / "out.csv"
    run_cli("exp", str(files / "c2.json"), str(files / "d1.json"), "--r", "0.5", "-o", str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "element,weight"
    assert len(lines) == 3
    name, w = lines[1].split(",")
    assert name == "0"
    assert float(w) > 0


def test_root_exit_codes(files):
    infeasible = run_cli("root", str(files / "c2.json"), str(files / "d1.json"), "--n", "2", "--seed", "7")
    assert infeasible.returncode == 1
    doc = json.loads(infeasible.stdout)
    assert doc["verdict"] == "infeasible_lower_bound"
    assert doc["lower_bound"] >= 0.5 - 1e-6
    assert doc["seed"] == 7
    exact = run_cli("root", str(files / "j2.json"), str(files / "quarter.json"), "--n", "2")
    assert exact.returncode == 0
    doc = json.loads(exact.stdout)
    assert doc["verdict"] == "exact_within_tol"
    assert doc["best_root"]["weights"] == pytest.approx([0.5, 0.5], abs=1e-6)


def test_divisible(files):
    proc = run_cli("divisible", str(files / "c2.json"), str(files / "d1.json"), "--n-max", "2")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["first_failing"] == 2


def test_lambda_and_extract_jump(files):
    proc = run_cli("lambda", str(files / "c2.json"), str(files / "d1.json"), "--r", "1", "--K", "10")
    assert json.loads(proc.stdout)["weights"] == pytest.approx([10 / 11, 1 / 11])
    proc = run_cli("extract-jump", str(files / "c2.json"), str(files / "lam.json"), "--r", "1", "--K", "10")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["weights"] == pytest.approx([0.0, 1.0], abs=1e-12)
    bad = run_cli("extract-jump", str(files / "c2.json"), str(files / "mu.json"), "--r", "1", "--K", "10")
    assert bad.returncode == 2


def test_concentration(files):
    proc = run_cli(
        "concentration", str(files / "c2.json"), str(files / "d1.json"), str(files / "lam.json"),
        "--r", "1", "--K", "2", "--eps", "1e-3",
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    names = {c["name"]: c["holds"] for c in doc["conditions"]}
    assert not names["exp_ratio_near_one"]


def test_fit_lk(files):
    proc = run_cli("fit-lk", str(files / "j2.json"), str(files / "quarter.json"), "--r-max", "4")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["residual"] <= 1e-6


def test_bernoulli_table(files):
    proc = run_cli("bernoulli", str(files / "c2.json"), str(files / "d1.json"), "--r", "0", "--K-list", "4,8,16")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "K,tv_error"
    assert len(lines) == 4
    assert all(line.endswith(",0") for line in lines[1:])
    single = run_cli("bernoulli", str(files / "c2.json"), str(files / "d1.json"), "--r", "1", "--K-list", "64")
    assert len(single.stdout.strip().splitlines()) == 2
    sweep = run_cli("bernoulli", str(files / "c2.json"), str(files / "d1.json"), "--r", "1", "--K-list", "64,128,256,512")
    errs = [float(line.split(",")[1]) for line in sweep.stdout.strip().splitlines()[1:]]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_levy_root_manifest_and_validate(files, tmp_path):
    csv = tmp_path / "path.csv"
    manifest = tmp_path / "path.json"
    proc = run_cli(
        "levy-root", str(files / "c2.json"), str(files / "mu.json"), "--N", "8",
        "-o", str(csv), "--manifest", str(manifest),
    )
    assert proc.returncode == 0
    doc = json.loads(manifest.read_text())
    assert doc["timeline"] == {"kind": "uniform_grid", "N": 8}
    assert doc["csv"] == "path.csv"
    via_manifest = run_cli("levy-validate", str(files / "c2.json"), str(manifest), "--tol", "1e-12")
    assert via_manifest.returncode == 0
    assert json.loads(via_manifest.stdout)["passed"]
    via_csv = run_cli("levy-validate", str(files / "c2.json"), str(csv), "--tol", "1e-12")
    assert via_csv.returncode == 0


def test_manifest_in_another_directory_points_at_the_csv(files, tmp_path):
    # -o out/p.csv --manifest man/p.json, as paths relative to the working directory
    (tmp_path / "out").mkdir()
    (tmp_path / "man").mkdir()
    csv, manifest = os.path.relpath(tmp_path / "out" / "p.csv"), os.path.relpath(tmp_path / "man" / "p.json")
    proc = run_cli(
        "levy-root", str(files / "c2.json"), str(files / "mu.json"), "--N", "4", "-o", csv, "--manifest", manifest,
    )
    assert proc.returncode == 0, proc.stderr
    # relative to the manifest's directory, the one levy-validate reads it against
    assert json.loads((tmp_path / "man" / "p.json").read_text())["csv"] == "../out/p.csv"
    check = run_cli("levy-validate", str(files / "c2.json"), manifest, "--tol", "1e-12")
    assert check.returncode == 0, check.stderr
    assert json.loads(check.stdout)["passed"]
    # a manifest directory that is a symlink to a directory at another depth
    (tmp_path / "real" / "deep").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "real" / "deep")
    linked = os.path.relpath(tmp_path / "link" / "p.json")
    proc = run_cli("levy-root", str(files / "c2.json"), str(files / "mu.json"), "--N", "4", "-o", csv, "--manifest", linked)
    assert proc.returncode == 0, proc.stderr
    check = run_cli("levy-validate", str(files / "c2.json"), linked, "--tol", "1e-12")
    assert check.returncode == 0, check.stderr


def test_levy_exp_and_validate(files, tmp_path):
    csv = tmp_path / "epath.csv"
    proc = run_cli(
        "levy-exp", str(files / "c2.json"), str(files / "d1.json"),
        "--r", "1", "--tol", "1e-9", "--N", "16", "-o", str(csv),
    )
    assert proc.returncode == 0
    check = run_cli("levy-validate", str(files / "c2.json"), str(csv), "--tol", "3e-9")
    assert check.returncode == 0
    # the series that capped addition keeps leaves a truncation error that 1e-15 sees
    capped = tmp_path / "capped.csv"
    proc = run_cli(
        "levy-exp", str(files / "capped.json"), str(files / "capped_mu.json"),
        "--r", "1", "--tol", "1e-9", "--N", "16", "-o", str(capped),
    )
    assert proc.returncode == 0
    strict = run_cli("levy-validate", str(files / "capped.json"), str(capped), "--tol", "1e-15")
    assert strict.returncode == 1


def test_a_negative_zero_tick_is_written_as_zero(files, tmp_path):
    csv, manifest = tmp_path / "p.csv", tmp_path / "p.json"
    proc = run_cli(
        "levy-exp", str(files / "c2.json"), str(files / "d1.json"),
        "--r", "1", "--samples=-0,0.5", "-o", str(csv), "--manifest", str(manifest),
    )
    assert proc.returncode == 0, proc.stderr
    assert csv.read_text().splitlines()[3] == "0,1,0"
    assert math.copysign(1.0, json.loads(manifest.read_text())["timeline"]["ticks"][0]) == 1.0


def test_huge_rates_give_measures(tmp_path):
    c3, mu = str(GOLDEN / "c3.json"), str(GOLDEN / "c3_mu.json")
    proc = run_cli("exp", c3, mu, "--r", "1e306")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["weights"] == pytest.approx([1 / 3] * 3, abs=1e-12)
    csv = tmp_path / "huge.csv"
    assert run_cli("levy-exp", c3, mu, "--r", "1e20", "--N", "2", "-o", str(csv)).returncode == 0
    check = run_cli("levy-validate", c3, str(csv))
    assert check.returncode == 0, check.stdout
    assert json.loads(check.stdout)["passed"] is True


def test_subnormal_tolerance_ends(tmp_path):
    # the series stopped only below tol/2, which underflows to 0.0 here;
    # these runs take well under a second, the timeout leaves room for a busy host
    c3, mu = str(GOLDEN / "c3.json"), str(GOLDEN / "c3_mu.json")
    for r, tol in (("1", "5e-324"), ("900", "1e-320")):
        proc = run_cli("exp", c3, mu, "--r", r, "--tol", tol, timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert abs(math.fsum(json.loads(proc.stdout)["weights"]) - 1.0) <= 1e-12
    csv = tmp_path / "subnormal.csv"
    proc = run_cli("levy-exp", c3, mu, "--r", "1", "--tol", "5e-324", "-o", str(csv), timeout=5)
    assert proc.returncode == 0, proc.stderr
    rows = [[float(v) for v in line.split(",")[1:]] for line in csv.read_text().splitlines()[3:]]
    assert len(rows) == 17  # the default grid of 16 steps
    for row in rows:
        assert abs(math.fsum(row) - 1.0) <= 1e-12


def _assert_input_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def _c2_with(**changes):
    doc = json.loads(json.dumps(C2_MODEL))
    doc.update(changes)
    return doc


def _add_with(**changes):
    return _c2_with(functions={"add": {"arity": 2, "table": [[0, 1], [1, 0]], **changes}})


def _leq_with(tuples):
    return {**J2_MODEL, "relations": {"leq": {"arity": 2, "tuples": tuples}}}


MALFORMED_MODELS = {
    "null-entry": _add_with(table=[[0, None], [1, 0]]),
    "fractional-entry": _add_with(table=[[0, 1.7], [1, 0]]),
    "boolean-entry": _add_with(table=[[0, True], [1, 0]]),
    "ragged-table": _add_with(table=[[0, 1], [1]]),
    "text-arity": _add_with(arity="two"),
    "function-list": _c2_with(functions=["add"]),
    "constant-list": _c2_with(constants=["zero"]),
    "tuples-number": _leq_with(5),
    "tuple-number": _leq_with([[0, 0], 1]),
    "semigroup-text": _c2_with(semigroup="add"),
    "semigroup-function-list": _c2_with(semigroup={"function": ["add"]}),
    "universe-boolean": _c2_with(universe=True, functions={"add": {"arity": 2, "table": [[0]]}}, constants={}),
    # a universe below one element is refused before any symbol's table is sized by it
    "universe-negative-relation": _leq_with([[0, 0]]) | {"universe": -1},
    "universe-negative-function": _c2_with(universe=-2),
    # entries beyond int64 must not overflow the table conversion
    "huge-entry": _add_with(table=[[0, 10**23], [1, 0]]),
    "huge-float-entry": _add_with(table=[[0, 1e300], [1, 0]]),
    # 1000**4 cells: the dense table must be refused before it is allocated
    "relation-over-budget": {"universe": 1000, "relations": {"r": {"arity": 4, "tuples": []}}},
    # past numpy's dimension limit: on one element every table is within the budget,
    # and a tuple of 10**17 entries must not be built
    "function-arity-70": {
        "universe": 1, "functions": {"f": {"arity": 70, "table": json.loads("[" * 70 + "0" + "]" * 70)}},
    },
    "relation-arity-70": {"universe": 1, "relations": {"r": {"arity": 70, "tuples": []}}},
    "relation-arity-1e17": {"universe": 1, "relations": {"r": {"arity": 1e17, "tuples": []}}},
    # a negative arity never reaches depth 0 of the table, however deep it nests;
    # raw text, since json recurses as deep as the value
    "function-arity-negative": (
        '{"universe": 1, "functions": {"f": {"arity": -1, "table": ' + "[" * 950 + "0" + "]" * 950 + "}}}"
    ),
    "function-arity-zero": {"universe": 1, "functions": {"f": {"arity": 0, "table": [0]}}},
    "constant-outside-universe": _c2_with(constants={"zero": 5}),
    "semigroup-function-undeclared": _c2_with(semigroup={"function": "mul"}),
    "semigroup-function-unary": _c2_with(
        functions={**C2_MODEL["functions"], "neg": {"arity": 1, "table": [0, 1]}}, semigroup={"function": "neg"},
    ),
    "relation-arity-zero": {"universe": 2, "relations": {"r": {"arity": 0, "tuples": []}}},
    "duplicate-universe-names": _c2_with(universe=["a", "a"]),
    "function-without-table": _c2_with(functions={"add": {"arity": 2}}),
}


def _write_model(path, doc):
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_malformed_model_is_input_error(tmp_path, name):
    _assert_input_error(run_cli("verify", _write_model(tmp_path / f"{name}.json", MALFORMED_MODELS[name])))


@pytest.mark.parametrize("name", ["function-arity-negative", "function-arity-zero"])
def test_function_arity_below_one_is_refused(tmp_path, name):
    proc = run_cli("verify", _write_model(tmp_path / "model.json", MALFORMED_MODELS[name]))
    assert proc.stderr == "error: function 'f': arity must be at least 1\n"


@pytest.mark.parametrize("name", ["universe-negative-relation", "universe-negative-function"])
def test_universe_below_one_element_is_refused(tmp_path, name):
    proc = run_cli("verify", _write_model(tmp_path / "model.json", MALFORMED_MODELS[name]))
    assert proc.stderr == "error: universe must have at least one element\n"


DEEP_JSON = "[" * 5000 + "]" * 5000  # raw text: json.dumps recurses as deep as the value
LONG_INTEGER = "1" + "0" * 4999  # past the 4300 digits int() reads from text

# inputs that json.dumps cannot write, given as the raw file contents
RAW_MODELS = {
    "not-utf8": b'{"universe": 2}\xff',
    "long-integer": f'{{"universe": {LONG_INTEGER}}}',
    "deep-json": f'{{"universe": {DEEP_JSON}}}',
}
RAW_MEASURES = {
    "not-utf8": b'{"weights": [0.5, 0.5]}\xff',
    "long-integer": f'{{"point": {LONG_INTEGER}}}',
    "deep-json": f'{{"weights": {DEEP_JSON}}}',
}


def _write_raw(path, raw):
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    return str(path)


@pytest.mark.parametrize("name", sorted(RAW_MODELS))
def test_undecodable_model_is_input_error(tmp_path, name):
    proc = run_cli("verify", _write_raw(tmp_path / "model.json", RAW_MODELS[name]))
    _assert_input_error(proc)
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 120, proc.stderr


@pytest.mark.parametrize("name", sorted(RAW_MEASURES))
def test_undecodable_measure_is_input_error(files, tmp_path, name):
    proc = run_cli("power", str(files / "c2.json"), _write_raw(tmp_path / "mu.json", RAW_MEASURES[name]), "--n", "1")
    _assert_input_error(proc)
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 120, proc.stderr


def test_undecodable_path_files_are_input_errors(files, tmp_path):
    c2 = str(files / "c2.json")
    csv = _c2_path(files, tmp_path)
    manifest = {"csv": csv.name, "timeline": {"kind": "uniform_grid", "N": 2}}
    head, body = csv.read_text().split("\n", 1)
    assert head.startswith("# generator:")
    raws = {
        "csv-not-utf8.csv": csv.read_bytes() + b"\xff",
        "manifest-not-utf8.json": json.dumps(manifest).encode() + b"\xff",
        "manifest-deep-json.json": json.dumps(manifest)[:-1] + f', "generator": {DEEP_JSON}}}',
        "generator-deep-json.csv": f"# generator: {DEEP_JSON}\n{body}",
    }
    for name, raw in raws.items():
        proc = run_cli("levy-validate", c2, _write_raw(tmp_path / name, raw))
        _assert_input_error(proc)
        assert len(proc.stderr.splitlines()) == 1, (name, proc.stderr)
    # the CSV a manifest names
    _write_raw(tmp_path / "bad.csv", csv.read_bytes() + b"\xff")
    named = tmp_path / "named.json"
    named.write_text(json.dumps({**manifest, "csv": "bad.csv"}))
    proc = run_cli("levy-validate", c2, str(named))
    _assert_input_error(proc)
    assert len(proc.stderr.splitlines()) == 1 and "cannot read path CSV" in proc.stderr, proc.stderr


DEEP_FORMULAS = {
    "70-quantifiers": "".join(f"forall v{i}. " for i in range(70)) + "x = x",
    "200-brackets": "(" * 200 + "x = x" + ")" * 200,
    "1000-brackets": "(" * 1000 + "x = x" + ")" * 1000,
    "1000-negations": "!" * 1000 + "x = x",
    "1000-implications": " -> ".join(["x = x"] * 1000),
    "1000-conjunctions": " & ".join(["x = x"] * 1000),
}


@pytest.mark.parametrize("name", sorted(DEEP_FORMULAS))
def test_deeply_nested_formula_is_input_error(tmp_path, name):
    # on a one-element universe every enumeration is within the budget
    one = {"universe": 1, "functions": {"add": {"arity": 2, "table": [[0]]}}, "semigroup": {"function": "add"}}
    model = tmp_path / "one.json"
    model.write_text(json.dumps(one))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"weights": [1.0]}))
    proc = run_cli("eval", str(model), str(mu), "--formula", DEEP_FORMULAS[name])
    _assert_input_error(proc)
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 120, proc.stderr
    semigroup = f"({DEEP_FORMULAS[name]}) & add(x, y) = z"
    model.write_text(json.dumps({**one, "semigroup": {"formula": semigroup}}))
    proc = run_cli("verify", str(model))
    _assert_input_error(proc)
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 120, proc.stderr


MALFORMED_MEASURES = {
    "fractional-point": {"point": 1.7},
    "boolean-point": {"point": True},
    "list-point": {"point": [1]},
    "null-point": {"point": None},
    "text-weights": {"weights": "abc"},
    "boolean-weights": {"weights": [True, False]},
    "quoted-weights": {"weights": ["0.5", "0.5"]},
    "huge-point": {"point": 1e300},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MEASURES))
def test_malformed_measure_is_input_error(files, tmp_path, name):
    mu = tmp_path / f"{name}.json"
    mu.write_text(json.dumps(MALFORMED_MEASURES[name]))
    proc = run_cli("power", str(files / "c2.json"), str(mu), "--n", "1")
    _assert_input_error(proc)
    assert len(proc.stderr) < 120


MALFORMED_MANIFESTS = {
    "csv-number": {"csv": 5, "timeline": {"kind": "uniform_grid", "N": 4}},
    "csv-list": {"csv": ["grid4.csv"], "timeline": {"kind": "uniform_grid", "N": 4}},
    "fractional-N": {"csv": "grid4.csv", "timeline": {"kind": "uniform_grid", "N": 4.5}},
    "boolean-N": {"csv": "grid1.csv", "timeline": {"kind": "uniform_grid", "N": True}},
    "boolean-tick": {"csv": "grid2.csv", "timeline": {"kind": "rationals", "ticks": [True, "1/2"]}},
    "boolean-sample": {"csv": "grid2.csv", "timeline": {"kind": "samples", "ticks": [True, 0.5]}},
    "infinite-tick": {"csv": "grid2.csv", "timeline": {"kind": "rationals", "ticks": [math.inf]}},
    "csv-with-nul": {"csv": "grid2\u0000.csv", "timeline": {"kind": "uniform_grid", "N": 2}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_input_error(files, tmp_path, name):
    c2 = str(files / "c2.json")
    for n in ("1", "2", "4"):
        csv = tmp_path / f"grid{n}.csv"
        assert run_cli("levy-root", c2, str(files / "mu.json"), "--N", n, "-o", str(csv)).returncode == 0
    manifest = tmp_path / f"{name}.json"
    manifest.write_text(json.dumps(MALFORMED_MANIFESTS[name]))
    _assert_input_error(run_cli("levy-validate", c2, str(manifest)))


def _c2_path(files, tmp_path):
    csv = tmp_path / "c2_path.csv"
    assert run_cli("levy-root", str(files / "c2.json"), str(files / "mu.json"), "--N", "2", "-o", str(csv)).returncode == 0
    return csv


MISUSED_COMMANDS = {
    "unwritable-output": lambda f, t: ["verify", f / "c2.json", "-o", t / "missing" / "out.json"],
    "unwritable-manifest": lambda f, t: [
        "levy-root", f / "c2.json", f / "mu.json", "--N", "2", "-o", t / "p.csv", "--manifest", t / "missing" / "p.json",
    ],
    "two-timelines": lambda f, t: ["levy-exp", f / "c2.json", f / "d1.json", "--r", "1", "--samples", "0.5", "--rationals", "1/3"],
    # an empty flag is a flag given, not the default grid
    "empty-samples": lambda f, t: ["levy-exp", f / "c2.json", f / "d1.json", "--r", "1", "--samples", ""],
    "empty-rationals": lambda f, t: ["levy-exp", f / "c2.json", f / "d1.json", "--r", "1", "--rationals", ""],
    # a path checked on a model other than the one it was built on
    "path-from-other-model": lambda f, t: ["levy-validate", f / "j2.json", _c2_path(f, t)],
    "unknown-flag": lambda f, t: ["verify", f / "c2.json", "--no-such-flag"],
    "missing-argument": lambda f, t: ["exp", f / "c2.json", f / "mu.json"],
    # the path is not built, so nothing reaches standard output
    "manifest-without-output": lambda f, t: ["levy-root", f / "c2.json", f / "mu.json", "--N", "2", "--manifest", t / "p.json"],
    "uncertified-model": lambda f, t: ["power", f / "broken.json", f / "mu.json", "--n", "2"],
    "K-list-without-values": lambda f, t: ["bernoulli", f / "c2.json", f / "mu.json", "--r", "1", "--K-list", ","],
    "K-list-not-integers": lambda f, t: ["bernoulli", f / "c2.json", f / "mu.json", "--r", "1", "--K-list", "a,b"],
    "zero-threads": lambda f, t: ["verify", f / "c2.json", "--threads", "0"],
}


@pytest.mark.parametrize("name", sorted(MISUSED_COMMANDS))
def test_misused_command_is_input_error(files, tmp_path, name):
    proc = run_cli(*map(str, MISUSED_COMMANDS[name](files, tmp_path)))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_uncertified_model_names_the_failing_axioms(files):
    proc = run_cli("power", str(files / "broken.json"), str(files / "mu.json"), "--n", "2")
    assert proc.stderr == "error: model fails semigroup axioms: commutativity, neutral_element\n"


def test_levy_exp_reports_the_rate_it_was_given(files):
    base = ["levy-exp", str(files / "c2.json"), str(files / "mu.json")]
    for r in ("-1", "inf"):
        proc = run_cli(*base, "--r", r)
        assert proc.returncode == 2
        assert proc.stderr == f"error: rate must be finite and non-negative, got {float(r)}\n"


def test_timeline_over_budget_is_refused_at_once(files):
    # N + 1 ticks past 20,000 are refused before a tick is built
    for n in (str(10**12), "20000"):
        for verb in (["levy-root", str(files / "mu.json")], ["compare-paths", str(files / "mu.json"), str(files / "quarter.json")]):
            proc = run_cli(verb[0], str(files / "c2.json"), *verb[1:], "--N", n, timeout=30)
            assert proc.returncode == 2
            assert proc.stderr == f"error: {int(n) + 1} ticks exceed the budget of 20000 ticks per timeline\n"


@pytest.fixture(params=[
    "z8",
    "c3",
    pytest.param("capped", marks=pytest.mark.xfail(
        reason="levy-validate holds every pair to --tol alone, while each marginal of the series may sit "
               "--tol from its exponential: worst_division reads 2.5e-9 at (1.0, 16) on capped addition")),
])
def default_exp_path(request, files, tmp_path):
    """A levy-exp path at the default --tol, with its manifest: (model, manifest)."""
    where = files if request.param == "capped" else GOLDEN
    model, manifest = str(where / f"{request.param}.json"), tmp_path / "p.json"
    proc = run_cli(
        "levy-exp", model, str(where / f"{request.param}_mu.json"), "--r", "0.5", "--N", "16",
        "-o", str(tmp_path / "p.csv"), "--manifest", str(manifest),
    )
    assert proc.returncode == 0, proc.stderr
    return model, str(manifest)


def test_levy_exp_path_passes_validation_at_the_default_tol(default_exp_path):
    proc = run_cli("levy-validate", *default_exp_path)
    assert proc.returncode == 0, proc.stdout


def test_eval_needs_one_free_variable(files):
    proc = run_cli("eval", str(files / "c2.json"), str(files / "mu.json"), "--formula", "add(x, y) = zero")
    _assert_input_error(proc)
    assert "exactly one free variable" in proc.stderr


def test_verify_table_over_budget_is_input_error(tmp_path):
    # no m**3 graph is built for a table, but m**3 is still held to the budget
    i = np.arange(465)
    table = ((i[:, None] + i[None, :]) % 465).tolist()
    model = tmp_path / "z465.json"
    model.write_text(json.dumps({
        "universe": 465,
        "functions": {"add": {"arity": 2, "table": table}},
        "semigroup": {"function": "add"},
    }))
    proc = run_cli("verify", str(model))
    _assert_input_error(proc)
    assert "465**3" in proc.stderr


def test_out_of_range_numbers_are_input_errors(files, tmp_path):
    c2 = str(files / "c2.json")
    # an infinite r_max never ends the Poisson terms; past 700 exp(-r) underflows
    for r_max in ("inf", "nan", "800", "0"):
        _assert_input_error(run_cli("fit-lk", str(files / "j2.json"), str(files / "quarter.json"), "--r-max", r_max))
    _assert_input_error(run_cli("extract-jump", c2, str(files / "lam.json"), "--r", "inf", "--K", "10"))
    csv = tmp_path / "path.csv"
    assert run_cli("levy-root", c2, str(files / "mu.json"), "--N", "4", "-o", str(csv)).returncode == 0
    concentration = ["concentration", c2, str(files / "d1.json"), str(files / "lam.json"), "--r", "1", "--K", "2"]
    for bad in ("nan", "inf", "-1"):
        _assert_input_error(run_cli("levy-validate", c2, str(csv), "--tol", bad))
        _assert_input_error(run_cli(*concentration, "--eps", bad))
    # an infinite tolerance cuts the series after a few terms and certifies any root
    mu = str(files / "mu.json")
    _assert_input_error(run_cli("exp", c2, mu, "--r", "3", "--tol", "inf"))
    _assert_input_error(run_cli("root", c2, mu, "--n", "2", "--tol", "inf"))
    levy = ["levy-exp", c2, mu, "--r", "1", "--tol", "inf", "-o", str(tmp_path / "p.csv")]
    _assert_input_error(run_cli(*levy, "--manifest", str(tmp_path / "p.json")))
    # restart draws need a non-negative seed
    _assert_input_error(run_cli("root", c2, mu, "--n", "2", "--seed", "-1"))
    _assert_input_error(run_cli("divisible", c2, mu, "--n-max", "2", "--seed", "-1"))
    _assert_input_error(run_cli("fit-lk", str(files / "j2.json"), str(files / "quarter.json"), "--seed", "-1"))
    # K-factor overflows: exp(r) / (1 + r/K)^K past the float range, 1 + K/r infinite, K past the float range
    _assert_input_error(run_cli("concentration", c2, mu, mu, "--r", "800", "--K", "1"))
    d0 = tmp_path / "d0.json"
    d0.write_text(json.dumps({"point": 0}))
    _assert_input_error(run_cli("extract-jump", c2, str(d0), "--r", "5e-324", "--K", "1"))
    _assert_input_error(run_cli("lambda", c2, mu, "--r", "1", "--K", "1" + "0" * 400))


def test_levy_validate_rejects_malformed_csv(files, tmp_path):
    csv = tmp_path / "path.csv"
    run_cli("levy-root", str(files / "c2.json"), str(files / "mu.json"), "--N", "8", "-o", str(csv))
    lines = csv.read_text().splitlines()
    head = [line for line in lines if line.startswith(("#", "t,"))]
    rows = [line for line in lines if line and not line.startswith(("#", "t,"))]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join(head + rows[3:] + rows[:3]) + "\n")
    _assert_input_error(run_cli("levy-validate", str(files / "c2.json"), str(shuffled)))
    nan_row = tmp_path / "nan.csv"
    nan_row.write_text("\n".join(head + rows[:4] + ["0.5,nan,nan"] + rows[5:]) + "\n")
    _assert_input_error(run_cli("levy-validate", str(files / "c2.json"), str(nan_row)))


def test_bad_timeline_arguments_are_input_errors(files, tmp_path):
    base = ["levy-exp", str(files / "c2.json"), str(files / "d1.json"), "--r", "1"]
    _assert_input_error(run_cli(*base, "--rationals", "1/2,abc"))
    _assert_input_error(run_cli(*base, "--samples", "0.5,abc"))
    # rational ticks whose floats coincide, which a path CSV cannot keep apart
    for ticks in ("1e-400,1/2", "1/3,6004799503160661/18014398509481984"):
        levy = [*base, "--rationals", ticks, "-o", str(tmp_path / "p.csv"), "--manifest", str(tmp_path / "p.json")]
        _assert_input_error(run_cli(*levy))
    # Fraction would build 10**100000000 before any range check
    _assert_input_error(run_cli(*base, "--rationals", "1e-100000000", timeout=10))
    csv = tmp_path / "grid.csv"
    manifest = tmp_path / "grid.json"
    proc = run_cli(*base, "--N", "4", "-o", str(csv), "--manifest", str(manifest))
    assert proc.returncode == 0
    for timeline in ({"kind": "uniform_grid"}, {"kind": "rationals"}, {"kind": "samples", "ticks": 3}):
        manifest.write_text(json.dumps({"csv": "grid.csv", "timeline": timeline}))
        _assert_input_error(run_cli("levy-validate", str(files / "c2.json"), str(manifest)))


def test_manifest_ticks_must_match_csv_ticks(files, tmp_path):
    csv = tmp_path / "thirds.csv"
    manifest = tmp_path / "thirds.json"
    proc = run_cli(
        "levy-exp", str(files / "c2.json"), str(files / "d1.json"), "--r", "1",
        "--rationals", "1/3,2/3", "-o", str(csv), "--manifest", str(manifest),
    )
    assert proc.returncode == 0
    assert run_cli("levy-validate", str(files / "c2.json"), str(manifest)).returncode == 0
    # same tick count as the CSV, different ticks
    manifest.write_text(json.dumps({"csv": "thirds.csv", "timeline": {"kind": "rationals", "ticks": ["1/4", "3/4"]}}))
    _assert_input_error(run_cli("levy-validate", str(files / "c2.json"), str(manifest)))


def test_compare_paths(files):
    proc = run_cli("compare-paths", str(files / "c2.json"), str(files / "mu.json"), str(files / "quarter.json"), "--N", "8")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["max_tv"] > 0


def test_outputs_byte_identical_across_threads(files, tmp_path):
    runs = [
        ["verify", str(files / "c2.json")],
        ["exp", str(files / "c2.json"), str(files / "d1.json"), "--r", "1", "--tol", "1e-9"],
        ["root", str(files / "j2.json"), str(files / "quarter.json"), "--n", "2", "--seed", "11"],
        ["bernoulli", str(files / "c2.json"), str(files / "d1.json"), "--r", "1", "--K-list", "16,64,256"],
        ["levy-exp", str(files / "c2.json"), str(files / "d1.json"), "--r", "1", "--N", "8"],
        ["divisible", str(files / "j2.json"), str(files / "quarter.json"), "--n-max", "3", "--seed", "3"],
    ]
    for argv in runs:
        outputs = set()
        for threads in ("1", "4"):
            proc = run_cli(*argv, "--threads", threads)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv[0]
