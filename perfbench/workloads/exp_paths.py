"""exp-paths: Levy paths at m = 256, each carried through the file boundary.

levy_from_exponential runs over a uniform grid, exported to CSV and re-read
with float ticks, and over a rational timeline, exported with a manifest so
its ticks stay exact, at r = 1, 20 and 200, on Z256 and on the relabelled
Z16 x J16, which is neither a group nor a semilattice, and at r = 1 on the
grid on the relabelled chain J256. levy_from_root adds N = 64 on Z256 and
Z16 x J16, and on J256 from the 64-th root that semilattice_root_oracle
takes of the chain's measure. The conv_exp series loop, the m^2 bincount
kernel and the tick-pair scan of validate_levy dominate. A transform backend
(characters on Z256, the zeta transform on J256) would speed up those paths
and leave the mixed ones unchanged; the trace shows the split because spans
carry the structure's kind.

The divisibility certificate of the flip on C2 (the point mass at the
non-zero element, which has no square root) rides along: its input is the
same for every seed up to relabelling, so the root search it runs costs
about the same every time. Root searches on seeded targets do not: their
descent length is chaotic in the target (see perfbench/NOTES.md).

The seed draws the measures, the relabellings and the rational ticks.
Rational ticks come in pairs t, 1 - t so that the sum of the rates, and with
it the series work, does not depend on the seed. There are 17 tasks, so the
median task is one task, one of the two r = 20 grid paths of similar cost.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles
from finconv import catalog, divisibility, fileio, levy
from workloads import outcome
from workloads._files import load_certified, load_measures, model_doc, write_json, write_measure

M = 256
RATES = (1.0, 20.0, 200.0)
CHAIN_RATE = 1.0
GRID_N = 16
ROOT_N = 64
EXP_TOL = 1e-9
# Convolution contracts total variation, so an increment X(s) * X(t) against
# X(s + t) is off by at most 3 EXP_TOL, and an n-fold power of X(s) against
# X(n s) by (n + 1) EXP_TOL, with n <= GRID_N on these timelines.
EXP_VALIDATE_TOL = (GRID_N + 1) * EXP_TOL
ROOT_VALIDATE_TOL = 1e-12
# the chain root's weights each carry rounding, which the N-th power scales
# by N, on each of the M weights
CHAIN_END_TOL = M * ROOT_N * float(np.finfo(float).eps)
RATIONAL_PAIRS = 4
DENOMINATORS = (3, 4, 5, 6, 8, 10, 12)
FLIP_RESIDUAL = 0.5  # nu^2(1) = 2p(1 - p) <= 1/2 on C2, so every square is 1/2 from the flip
FLIP_BOUND_SLACK = 1e-6  # acceptance criterion 7's slack on the flip's lower bound


def _rational_ticks(rng) -> list[Fraction]:
    chosen = {Fraction(1, 2)}
    while len(chosen) < 1 + 2 * RATIONAL_PAIRS:
        b = int(rng.choice(DENOMINATORS))
        f = Fraction(int(rng.integers(1, b)), b)
        chosen |= {f, 1 - f}
    return sorted(chosen | {Fraction(0), Fraction(1)})


def _self_check(nu: np.ndarray) -> None:
    t = oracles.cyclic_table(nu.size)
    if oracles.tv(oracles.fft_exp(nu, 1.0), oracles.series_exp(t, nu, 1.0, 40)) > 1e-12:
        raise oracles.OracleError("FFT exponential disagrees with the direct series on Z256")
    if oracles.tv(oracles.fft_power(nu, 3), oracles.power(t, nu, 3)) > 1e-12:
        raise oracles.OracleError("FFT power disagrees with repeated convolution on Z256")


def build(seed: int, out: Path):
    rng = np.random.default_rng(seed)
    C, J = oracles.cyclic_table, oracles.chain_table
    tables = {
        "Z256": C(M),
        "Z16xJ16": oracles.relabel_table(oracles.product_table(C(16), J(16)), rng.permutation(M)),
        "J256": oracles.relabel_table(J(M), rng.permutation(M)),
        "C2": oracles.relabel_table(C(2), rng.permutation(2)),
    }
    models, measures, tasks, expected = {}, {}, [], {}

    def add_model(sid: str, weights) -> np.ndarray:
        structure = catalog.from_add_table(tables[sid])
        models[sid] = f"models/{sid}.json"
        write_json(out / models[sid], model_doc(structure))
        measures[sid] = f"measures/{sid}.json"
        return np.array(write_measure(out / measures[sid], structure, weights))

    rational = _rational_ticks(rng)
    timelines = {
        "grid": ({"kind": "uniform_grid", "N": GRID_N}, [Fraction(k, GRID_N) for k in range(GRID_N + 1)], "csv"),
        "rationals": ({"kind": "rationals", "ticks": [str(f) for f in rational]}, rational, "manifest"),
    }
    root_pairs = oracles.pair_counts([Fraction(k, ROOT_N) for k in range(ROOT_N + 1)])

    def add_exp(sid: str, tname: str, r: float, oracle: dict) -> None:
        doc, ticks, via = timelines[tname]
        tid = f"exp-{sid}-{tname}-r{r:g}"
        tasks.append({"id": tid, "kind": "exp", "structure": sid, "r": r, "timeline": doc, "via": via,
                      "tol": EXP_VALIDATE_TOL})
        expected[tid] = {"pairs": oracles.pair_counts(ticks), **oracle}

    for sid in ("Z256", "Z16xJ16"):
        nu = add_model(sid, rng.dirichlet(np.ones(M)))
        oracle = {"oracle": None}
        if sid == "Z256":
            _self_check(nu)
            oracle = {"oracle": "fft", "nu": nu.tolist()}
        for tname in timelines:
            for r in RATES:
                add_exp(sid, tname, r, oracle)
        tid = f"root-{sid}-N{ROOT_N}"
        tasks.append({"id": tid, "kind": "root", "structure": sid, "via": "manifest", "tol": ROOT_VALIDATE_TOL})
        expected[tid] = {"pairs": root_pairs, **oracle}

    # the chain's measure is both the jump of its exponential path and the
    # target whose 64-th root starts its root path
    t = tables["J256"]
    nu = add_model("J256", rng.dirichlet(np.ones(M)))
    if oracles.tv(oracles.chain_exp(t, nu, 1.0), oracles.series_exp(t, nu, 1.0, 40)) > 1e-12:
        raise oracles.OracleError("the cumulative exponential on J256 disagrees with the direct series")
    add_exp("J256", "grid", CHAIN_RATE, {"oracle": "chain", "nu": nu.tolist(), "table": t.tolist()})
    tid = f"chain-root-J256-N{ROOT_N}"
    tasks.append({"id": tid, "kind": "chain-root", "structure": "J256", "via": "manifest", "tol": ROOT_VALIDATE_TOL})
    expected[tid] = {"pairs": root_pairs, "oracle": None, "table": t.tolist(), "target": nu.tolist()}

    t = tables["C2"]
    flip = np.zeros(2)
    flip[1 - oracles.neutral(t)] = 1.0
    add_model("C2", flip)
    tasks.append({"id": "flip-C2", "kind": "flip", "structure": "C2"})
    expected["flip-C2"] = {"table": t.tolist(), "target": flip.tolist()}
    return {"models": models, "measures": measures, "tasks": tasks}, expected


def setup(plan: dict, out: Path):
    structs = load_certified(out, plan["models"])
    (out / "paths").mkdir(exist_ok=True)
    timelines = {}
    for task in plan["tasks"]:
        doc = task.get("timeline")
        if doc and doc["kind"] == "uniform_grid":
            timelines[task["id"]] = levy.make_timeline("uniform_grid", doc["N"])
        elif doc:
            timelines[task["id"]] = levy.make_timeline("rationals", [Fraction(t) for t in doc["ticks"]])
    return SimpleNamespace(out=out, structs=structs, measures=load_measures(out, plan["measures"], structs),
                           timelines=timelines)


def run(ctx, task: dict) -> dict:
    s, mu = ctx.structs[task["structure"]], ctx.measures[task["structure"]]
    kind = task["kind"]
    if kind == "flip":
        return {"report": divisibility.is_infinitely_divisible(mu, 2)}
    root = None
    if kind == "exp":
        path = levy.levy_from_exponential(mu, task["r"], ctx.timelines[task["id"]], EXP_TOL)
    elif kind == "root":
        path = levy.levy_from_root(mu, ROOT_N)
    else:
        root = divisibility.semilattice_root_oracle(mu, ROOT_N)
        path = levy.levy_from_root(root, ROOT_N)
    csv = ctx.out / "paths" / f"{task['id']}.csv"
    csv.write_text(levy.export_path(path))
    if task["via"] == "manifest":
        manifest = csv.with_suffix(".json")
        manifest.write_text(fileio.canonical_json(fileio.path_manifest(path, csv.name)))
        loaded = fileio.load_path(manifest, s)
    else:
        loaded = fileio.load_path(csv, s)
    return {"path": path, "loaded": loaded, "report": levy.validate_levy(loaded, task["tol"]), "root": root}


def _check_flip(report, want: dict) -> dict:
    t, target = np.array(want["table"]), np.array(want["target"])
    cert = report.certificates.get(2)
    if cert is None or report.divisible or report.first_failing != 2:
        return outcome("wrong", "flip-C2: the report does not name order 2 as failing")
    residual = oracles.tv(oracles.power(t, cert.best_root.weights, 2), target)
    if cert.verdict == divisibility.VERDICT_EXACT or residual < FLIP_RESIDUAL - 1e-9:
        return outcome("wrong", f"flip-C2: claims a square root that cannot exist (residual {residual:.3g})")
    bound = cert.lower_bound
    if bound is not None and bound > FLIP_RESIDUAL + 1e-9:
        return outcome("wrong", f"flip-C2: lower bound {bound:.3g} exceeds the true minimum {FLIP_RESIDUAL}")
    if cert.verdict != divisibility.VERDICT_INFEASIBLE or bound is None or bound < FLIP_RESIDUAL - FLIP_BOUND_SLACK:
        return outcome("miss", f"flip-C2: verdict {cert.verdict}, lower bound {bound}")
    return outcome("ok")


def check(ctx, task: dict, output: dict, want: dict) -> dict:
    if task["kind"] == "flip":
        return _check_flip(output["report"], want)
    path, loaded, report = output["path"], output["loaded"], output["report"]
    tid = task["id"]
    ticks = path.timeline.ticks
    if task["via"] == "csv":
        ticks = tuple(float(t) for t in ticks)
    if loaded.timeline.ticks != ticks or any(
        a.weights.tobytes() != b.weights.tobytes() for a, b in zip(path.marginals, loaded.marginals)
    ):
        return outcome("wrong", f"{tid}: the path does not round-trip bit-exactly through its files")
    if not report.passed:
        return outcome("wrong", f"{tid}: validate_levy fails: increment {report.worst_increment:.3g}, "
                                f"division {report.worst_division:.3g}, tol {report.tol:.3g}")
    checked = [report.increments_checked, report.divisions_checked]
    if checked != list(want["pairs"]):
        return outcome("wrong", f"{tid}: validation checked {checked} pairs, the timeline has {want['pairs']}")
    if output["root"] is not None:
        t, target = np.array(want["table"]), np.array(want["target"])
        if oracles.tv(output["root"].weights, oracles.chain_root(t, target, ROOT_N)) > 1e-12:
            return outcome("wrong", f"{tid}: semilattice_root_oracle disagrees with the cumulative root")
        if oracles.tv(path.marginals[-1].weights, target) > CHAIN_END_TOL:
            return outcome("wrong", f"{tid}: the root path does not end at its target")
    if want["oracle"] is not None:
        nu = np.array(want["nu"])
        for k, (t, mu) in enumerate(zip(path.timeline.ticks, path.marginals)):
            if task["kind"] == "root":
                ref, bound = oracles.fft_power(nu, k), ROOT_VALIDATE_TOL
            elif want["oracle"] == "fft":
                ref, bound = oracles.fft_exp(nu, float(t) * task["r"]), EXP_TOL + 1e-12
            else:
                ref, bound = oracles.chain_exp(np.array(want["table"]), nu, float(t) * task["r"]), EXP_TOL + 1e-12
            err = oracles.tv(mu.weights, ref)
            if err > bound:
                return outcome("wrong", f"{tid}: marginal at t={t} is {err:.3g} from the transform oracle")
    return outcome("ok")
