"""certify: `finconv verify` on model files, run in-process through cli.main.

The m^3 graph in `structures` and JSON loading in `fileio` dominate, and
this workload sets the peak memory. Table, formula and relation models
drive `verify_semigroup` down different branches, so a gain on one branch
that costs another shows. The seed draws the relabelling of every model and
the stray tuples of the non-functional relations; sizes are fixed so that
the work per pass does not depend on the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracles
from finconv import catalog, cli, structures
from workloads import outcome
from workloads._files import model_doc, table_model, write_json

C, J, P = oracles.cyclic_table, oracles.chain_table, oracles.product_table
TABLES = {
    "Z400": lambda: C(400),
    "J200": lambda: J(200),
    "Z12xJ16": lambda: P(C(12), J(16)),
    "Z16xZ16": lambda: P(C(16), C(16)),
}
POSETS = (96, 48)
RELATIONS = {"Z128": lambda: C(128), "Z4xJ8": lambda: P(C(4), J(8))}
NON_FUNCTIONAL = (48, 32)
LEFT_PROJECTION = 64


def _self_check() -> None:
    """The scanning oracle and the by-construction oracle must agree."""
    rng = np.random.default_rng(0)
    for t in (C(7), J(5), oracles.relabel_table(P(C(3), J(4)), rng.permutation(12))):
        if oracles.certificate(oracles.graph_of(t)) != oracles.monoid_certificate(t):
            raise oracles.OracleError("certificate scan disagrees with a known monoid")
    i = np.arange(5)
    scan = oracles.certificate(oracles.graph_of(np.broadcast_to(i[:, None], (5, 5))))
    holds = [a["holds"] for a in scan["axioms"]]
    if holds != [True, False, True, False] or scan["axioms"][1]["counterexample"] != [0, 1, 0]:
        raise oracles.OracleError("certificate scan misjudges the left projection")


def build(seed: int, out: Path):
    _self_check()
    rng = np.random.default_rng([seed, 3])
    tasks, expected = [], {}

    def add(name: str, doc: dict, want: dict) -> None:
        write_json(out / "models" / f"{name}.json", doc)
        tasks.append({"id": name, "model": f"models/{name}.json", "output": f"certs/{name}.json"})
        expected[name] = want

    for name, make in TABLES.items():
        t = make()
        t = oracles.relabel_table(t, rng.permutation(len(t)))
        add(f"table-{name}", table_model(t), oracles.monoid_certificate(t))

    for m in POSETS:
        perm = rng.permutation(m)
        doc = model_doc(catalog.chain_poset(m))
        doc["relations"]["leq"]["tuples"] = [[int(perm[x]), int(perm[y])] for x, y in doc["relations"]["leq"]["tuples"]]
        add(f"formula-J{m}", doc, oracles.monoid_certificate(oracles.relabel_table(oracles.chain_table(m), perm)))

    for name, make in RELATIONS.items():
        t = make()
        t = oracles.relabel_table(t, rng.permutation(len(t)))
        s = catalog.from_add_table(t)
        structures.verify_semigroup(s)
        add(f"relation-{name}", model_doc(catalog.relation_model(s)), oracles.monoid_certificate(t))

    for m in NON_FUNCTIONAL:
        t = oracles.relabel_table(oracles.cyclic_table(m), rng.permutation(m))
        s = catalog.from_add_table(t)
        structures.verify_semigroup(s)
        doc = model_doc(catalog.relation_model(s))
        x, y = (int(v) for v in rng.integers(0, m, size=2))
        z = int((t[x, y] + 1 + rng.integers(0, m - 1)) % m)  # any sum but the true one
        doc["relations"]["theta"]["tuples"].append([x, y, z])
        g = oracles.graph_of(t)
        g[x, y, z] = True
        add(f"nonfunctional-Z{m}", doc, oracles.certificate(g))

    i = np.arange(LEFT_PROJECTION)
    left = np.broadcast_to(i[:, None], (LEFT_PROJECTION, LEFT_PROJECTION))
    add(f"left-projection-{LEFT_PROJECTION}", table_model(left), oracles.certificate(oracles.graph_of(left)))
    return {"tasks": tasks}, expected


def setup(plan: dict, out: Path):
    (out / "certs").mkdir(exist_ok=True)
    return out


def run(out: Path, task: dict):
    target = out / task["output"]
    code = cli.main(["verify", str(out / task["model"]), "-o", str(target)])
    return code, target.read_text()


def check(out: Path, task: dict, output, want: dict) -> dict:
    code, text = output
    got = json.loads(text)
    if got != want:
        diff = [k for k in want if got.get(k) != want[k]]
        return outcome("wrong", f"{task['id']}: certificate differs in {diff}")
    if code != (0 if want["passed"] else 1):
        return outcome("wrong", f"{task['id']}: exit code {code}")
    return outcome("ok")
