import json
import math
import subprocess
import sys

import numpy as np
import pytest

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


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "finconv", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
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
    return d


def test_every_subcommand_has_help_with_defaults():
    for name in SUBCOMMANDS:
        proc = run_cli(name, "--help")
        assert proc.returncode == 0, name
        assert "--threads" in proc.stdout
        assert "-o" in proc.stdout
        assert "default" in proc.stdout


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


def test_levy_exp_and_validate(files, tmp_path):
    csv = tmp_path / "epath.csv"
    proc = run_cli(
        "levy-exp", str(files / "c2.json"), str(files / "d1.json"),
        "--r", "1", "--tol", "1e-9", "--N", "16", "-o", str(csv),
    )
    assert proc.returncode == 0
    check = run_cli("levy-validate", str(files / "c2.json"), str(csv), "--tol", "3e-9")
    assert check.returncode == 0
    strict = run_cli("levy-validate", str(files / "c2.json"), str(csv), "--tol", "1e-15")
    assert strict.returncode == 1


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
    # entries beyond int64 must not overflow the table conversion
    "huge-entry": _add_with(table=[[0, 10**23], [1, 0]]),
    "huge-float-entry": _add_with(table=[[0, 1e300], [1, 0]]),
    # 1000**4 cells: the dense table must be refused before it is allocated
    "relation-over-budget": {"universe": 1000, "relations": {"r": {"arity": 4, "tuples": []}}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_malformed_model_is_input_error(tmp_path, name):
    model = tmp_path / f"{name}.json"
    model.write_text(json.dumps(MALFORMED_MODELS[name]))
    _assert_input_error(run_cli("verify", str(model)))


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
    # a path checked on a model other than the one it was built on
    "path-from-other-model": lambda f, t: ["levy-validate", f / "j2.json", _c2_path(f, t)],
}


@pytest.mark.parametrize("name", sorted(MISUSED_COMMANDS))
def test_misused_command_is_input_error(files, tmp_path, name):
    proc = run_cli(*map(str, MISUSED_COMMANDS[name](files, tmp_path)))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr.splitlines()[-1]


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
