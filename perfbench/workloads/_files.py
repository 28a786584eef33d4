"""Fixture files: writing models and measures, and loading them back."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from finconv import catalog, fileio, measures, structures


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fileio.canonical_json(doc))


def model_doc(s) -> dict:
    """A structure in the model file format that `fileio.load_model` reads."""
    doc: dict = {"universe": s.size}
    if s.functions:
        doc["functions"] = {
            name: {"arity": f.arity, "table": np.asarray(f.table).tolist()}
            for name, f in s.functions.items()
        }
    if s.relations:
        doc["relations"] = {
            name: {"arity": r.arity, "tuples": [list(t) for t in r.tuples()]}
            for name, r in s.relations.items()
        }
    if s.constants:
        doc["constants"] = dict(s.constants)
    if s.semigroup_spec:
        doc["semigroup"] = dict(s.semigroup_spec)
    return doc


def table_model(table: np.ndarray) -> dict:
    return model_doc(catalog.from_add_table(table))


def write_measure(path: Path, s, weights) -> list[float]:
    """Write a measure file; returns the weights as finconv normalizes them."""
    doc = fileio.measure_to_dict(measures.measure(s, weights))
    write_json(path, doc)
    return doc["weights"]


def load_certified(out: Path, files: dict[str, str]) -> dict:
    """Load and certify each model; a model that fails is a broken fixture."""
    loaded = {}
    for sid, rel in files.items():
        s = fileio.load_model(out / rel)
        if not structures.verify_semigroup(s).passed:
            raise RuntimeError(f"fixture model {rel} is not a commutative monoid")
        loaded[sid] = s
    return loaded


def load_measures(out: Path, files: dict[str, str], structs: dict) -> dict:
    """One measure per structure, given as {structure id: file}."""
    return {sid: fileio.load_measure(out / rel, structs[sid]) for sid, rel in files.items()}
