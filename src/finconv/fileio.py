"""JSON/CSV interchange for models, measures, certificates, and paths.

Every input file goes through one reader: `_read` turns an unreadable file
or bytes that are not UTF-8 into ModelError("cannot read ..."), and levy's
`_decode_json` turns any failure of json.loads into "... is not valid JSON".

The certificate, concentration and validation reports are written as their
fields plus "passed" by one writer, `report_to_dict`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .divisibility import (
    DivisibilityReport,
    LevyKhintchineFit,
    RootCertificate,
)
from .errors import ModelError
from .levy import (
    RATIONALS,
    SAMPLES,
    UNIFORM_GRID,
    LevyPath,
    Timeline,
    _decode_json,
    _json_array,
    _read_generator,
    make_timeline,
    parse_path_csv,
    same_ticks,
)
from .measures import Measure, dirac, measure
from .structures import (
    FiniteStructure, FunctionSymbol, RelationSymbol, as_integer, element_of, symbol_arity,
)


def _read(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read {what}: {exc}") from exc


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, two-space indent, final newline;
    an array (a path generator's weights) is written as its list."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_json_array) + "\n"


# --- models -----------------------------------------------------------------

def _section(doc: dict, key: str) -> dict:
    value = doc.get(key) or {}
    if not isinstance(value, dict):
        raise ModelError(f"{key!r} must be an object keyed by symbol name")
    return value


def structure_from_dict(doc: dict) -> FiniteStructure:
    universe = doc.get("universe")
    names: dict[str, int] | None = None
    if isinstance(universe, list):
        size = len(universe)
        names = {str(n): i for i, n in enumerate(universe)}
        if len(names) != size:
            raise ModelError("universe names are not distinct")
    else:
        size = as_integer(universe, '"universe", unless a list of names,')
    if size < 1:  # before any symbol's table is sized by it
        raise ModelError("universe must have at least one element")

    def resolve_nested(node, depth):
        if depth == 0:
            return element_of(node, names)
        if not isinstance(node, list) or len(node) != size:
            raise ModelError(f"function table must nest lists of length {size} to depth {depth}")
        return [resolve_nested(child, depth - 1) for child in node]

    def field(spec, sym, key):
        if not isinstance(spec, dict) or key not in spec:
            raise ModelError(f"symbol {sym!r} needs a {key!r} field")
        return spec[key]

    functions = {}
    for sym, spec in _section(doc, "functions").items():
        arity = symbol_arity(field(spec, sym, "arity"), f"arity of {sym!r}")
        if arity < 1:  # resolve_nested would never reach depth 0
            raise ModelError(f"function {sym!r}: arity must be at least 1")
        table = resolve_nested(field(spec, sym, "table"), arity)
        try:
            functions[sym] = FunctionSymbol(arity, table)  # its one int64 copy of the table
        except OverflowError as exc:
            raise ModelError(f"function {sym!r}: table entry outside the universe") from exc
    relations = {}
    for sym, spec in _section(doc, "relations").items():
        arity = symbol_arity(field(spec, sym, "arity"), f"arity of {sym!r}")
        rows = field(spec, sym, "tuples")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ModelError(f"tuples of {sym!r} must be a list of lists")
        relations[sym] = RelationSymbol.from_tuples(arity, [[element_of(v, names) for v in row] for row in rows], size)
    constants = {sym: element_of(v, names) for sym, v in _section(doc, "constants").items()}
    semigroup = doc.get("semigroup")
    if semigroup is not None and not isinstance(semigroup, dict):
        raise ModelError('"semigroup" must be an object')
    return FiniteStructure(
        size,
        functions=functions,
        relations=relations,
        constants=constants,
        element_names=names,
        semigroup=semigroup,
    )


def load_model(path) -> FiniteStructure:
    doc = _decode_json(_read(path, "model file"), "model file", ModelError)
    if not isinstance(doc, dict):
        raise ModelError("model file must hold a JSON object")
    return structure_from_dict(doc)


# --- measures ---------------------------------------------------------------

def measure_from_dict(doc: dict, structure: FiniteStructure) -> Measure:
    if not isinstance(doc, dict):
        raise ModelError("measure file must hold a JSON object")
    if "point" in doc:
        return dirac(structure, structure.element_index(doc["point"]))
    if "weights" in doc:
        weights = doc["weights"]
        if not isinstance(weights, list) or not all(type(w) in (int, float) for w in weights):
            raise ModelError('"weights" must be a list of numbers')
        return measure(structure, weights)
    raise ModelError('measure file needs "weights" or "point"')


def load_measure(path, structure: FiniteStructure) -> Measure:
    return measure_from_dict(_decode_json(_read(path, "measure file"), "measure file", ModelError), structure)


def measure_to_dict(mu: Measure) -> dict:
    return {"weights": [float(w) for w in mu.weights]}


def measure_to_csv(mu: Measure) -> str:
    names = {}
    if mu.structure.element_names:
        names = {i: n for n, i in mu.structure.element_names.items()}
    lines = ["element,weight"]
    for i, w in enumerate(mu.weights):
        lines.append(f"{names.get(i, i)},{format(float(w), '.17g')}")
    return "\n".join(lines) + "\n"


# --- certificates and reports -------------------------------------------------

def report_to_dict(report) -> dict:
    """A report's fields plus "passed"; a table becomes its list here, as
    json's default hook writes the Z400 certificate some 18% slower."""
    doc = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in dataclasses.asdict(report).items()}
    return {**doc, "passed": report.passed}


def root_certificate_to_dict(cert: RootCertificate) -> dict:
    return {
        "n": cert.order,
        "residual": float(cert.residual),
        "verdict": cert.verdict,
        "best_root": measure_to_dict(cert.best_root),
        "lower_bound": None if cert.lower_bound is None else float(cert.lower_bound),
        "all_roots_found": [measure_to_dict(m) for m in cert.all_roots_found],
        "seed": cert.seed,
    }


def divisibility_report_to_dict(report: DivisibilityReport) -> dict:
    return {
        "n_max": report.n_max,
        "divisible": report.divisible,
        "first_failing": report.first_failing,
        "certificates": {
            str(n): root_certificate_to_dict(c) for n, c in report.certificates.items()
        },
    }


def fit_to_dict(fit: LevyKhintchineFit) -> dict:
    return {
        "r": float(fit.rate),
        "jump": measure_to_dict(fit.jump),
        "residual": float(fit.residual),
    }


# --- timelines and path manifests ----------------------------------------------

def timeline_to_dict(timeline: Timeline) -> dict:
    if timeline.kind == UNIFORM_GRID:
        return {"kind": UNIFORM_GRID, "N": len(timeline.ticks) - 1}
    if timeline.kind == RATIONALS:
        return {"kind": RATIONALS, "ticks": [str(t) for t in timeline.ticks]}
    return {"kind": SAMPLES, "ticks": [float(t) for t in timeline.ticks]}


def timeline_from_dict(doc: dict) -> Timeline:
    if not isinstance(doc, dict):
        raise ModelError("timeline must be a JSON object")
    kind = doc.get("kind")
    if kind not in (UNIFORM_GRID, RATIONALS, SAMPLES):
        raise ModelError(f"unknown timeline kind {kind!r}")
    key = "N" if kind == UNIFORM_GRID else "ticks"
    if key not in doc:
        raise ModelError(f"{kind} timeline needs a {key!r} field")
    if key == "ticks" and not isinstance(doc[key], list):
        raise ModelError(f"{kind} timeline ticks must be a list")
    if key == "N":
        return make_timeline(kind, as_integer(doc[key], "grid size N"))
    return make_timeline(kind, doc[key])


def path_manifest(path: LevyPath, csv_relpath: str) -> dict:
    return {
        "generator": path.generator,
        "timeline": timeline_to_dict(path.timeline),
        "csv": csv_relpath,
    }


def load_path(path, structure: FiniteStructure) -> LevyPath:
    """Load a path from an export CSV, or from a manifest JSON pointing at one."""
    p = Path(path)
    text = _read(p, "path file")
    if p.suffix.lower() != ".json":
        return parse_path_csv(text, structure)
    doc = _decode_json(text, "manifest", ModelError)
    csv = doc.get("csv") if isinstance(doc, dict) else None
    if not isinstance(csv, str) or "\0" in csv or "timeline" not in doc:
        raise ModelError('manifest needs a "csv" path string and a "timeline" field')
    csv_file = (p.parent / csv).resolve()  # relative to the manifest's directory, as cli writes it
    loaded = parse_path_csv(_read(csv_file, f"path CSV {csv_file}"), structure)
    timeline = timeline_from_dict(doc["timeline"])
    if not same_ticks(timeline, loaded.timeline):
        raise ModelError("manifest timeline does not match the CSV ticks")
    return LevyPath(timeline, loaded.marginals, _read_generator(doc.get("generator")) or loaded.generator)
