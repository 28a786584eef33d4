"""Processes on timelines: grids of convolution powers and sampled exponentials.

A path assigns one measure per tick of a timeline with endpoints 0 and 1.
Root-generated paths put the k-th power of a root at tick k/N; exponential
paths put the exponential at rate t*r at tick t. Validation checks the
start at the point mass, the increment law X(s+t) = X(s) * X(t) over every
tick pair whose sum is a tick, and marginal divisibility where both t and
t/n are ticks.

A path's marginals come from one shared power chain: the exponentials at
every tick from one Poisson series (conv_exps), the root powers from one
set of squares (conv_powers), and likewise the powers of each marginal
that the divisibility check needs. Each marginal is still bit-identical to
its single-tick conv_exp or conv_power call (see the measures module), so
sharing changes the cost, not the numbers.

Validation lists the tick pairs through the timeline, which matches exact
ticks as integer numerators over their common denominator, and evaluates
the increments of one right factor X(t) together, as one stack of left
factors (measures._products_raw, with the bits its contract states). The
scan keeps only the worst pair so far, so its memory grows with the ticks,
not with the pairs, and every report is the one the per-pair scan gives.
A timeline holds at most MAX_TICKS ticks, so that the T^2 / 4 pairs it
lists stay within EVAL_BUDGET.

A generator holds its jump measure's weights as that measure's read-only
array, 8 bytes a weight, and is written as the list of those floats.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, MeasureError, StructureMismatchError, TimelineError
from .measures import (
    SUM_TOL,
    Measure,
    _check_pair,
    _check_rate,
    _normalised,
    _powers_raw,
    _products_raw,
    _tv_raw,
    conv_exps,
    conv_powers,
    dirac,
    tv_distance,
)
from .structures import EVAL_BUDGET, certificate_of, same_structure

TICK_MATCH_TOL = 1e-12  # absolute slack when matching real-valued ticks
MAX_TICKS = math.isqrt(4 * EVAL_BUDGET)  # validation visits about T^2 / 4 tick pairs

UNIFORM_GRID = "uniform_grid"
RATIONALS = "rationals"
SAMPLES = "samples"


def _check_tick_count(count: int) -> None:
    if count > MAX_TICKS:
        raise BudgetExceededError(f"{count} ticks exceed the budget of {MAX_TICKS} ticks per timeline")


@dataclass(frozen=True)
class Timeline:
    """Sorted ticks in [0, 1] including both endpoints.

    Ticks are exact fractions for uniform grids and rational timelines,
    floats for sampled ones; tick sums and multiples are matched exactly in
    the rational case and within TICK_MATCH_TOL in the sampled case.

    Matching works on keys: an exact value scaled by the ticks' common
    denominator, so that every tick's key is an integer numerator and the
    tick pairs a path's validation checks need integer sums and quotients
    only; a sampled value is its own key. A key is looked up by bisection,
    within slack 0 for exact keys and TICK_MATCH_TOL for sampled ones.
    """

    kind: str
    ticks: tuple

    def __post_init__(self):
        _check_tick_count(len(self.ticks))

    @cached_property
    def _scale(self) -> int:  # exact kinds only
        return math.lcm(*(Fraction(t).denominator for t in self.ticks))

    @cached_property
    def _keys(self) -> tuple:
        if self.kind == SAMPLES:
            return self.ticks
        return tuple(int(t * self._scale) for t in self.ticks)

    def _key(self, value):
        if self.kind == SAMPLES:
            return float(value)
        try:
            return Fraction(value) * self._scale
        except (ValueError, OverflowError):  # nan and infinities are no tick
            return None

    def _find(self, key) -> int | None:
        slack = TICK_MATCH_TOL if self.kind == SAMPLES else 0
        i = bisect_left(self._keys, key - slack)
        if i < len(self._keys) and abs(self._keys[i] - key) <= slack:
            return i
        return None

    def _quotient(self, a, b) -> int | None:
        if b <= 0:
            return None
        if self.kind == SAMPLES:
            if a / b == math.inf:
                return None
            n = round(a / b)
            return n if n >= 2 and abs(a - n * b) <= TICK_MATCH_TOL else None
        n, rest = divmod(a, b)
        return n if n >= 2 and rest == 0 else None

    def locate(self, value) -> int | None:
        """Index of the tick equal to value, or None."""
        key = self._key(value)
        return None if key is None else self._find(key)

    def ratio(self, t, u) -> int | None:
        """t / u as an integer n >= 2, or None: exactly on an exact timeline;
        within TICK_MATCH_TOL on a sampled one, None where t / u overflows
        a float."""
        a, b = self._key(t), self._key(u)
        return None if a is None or b is None else self._quotient(a, b)

    def increments(self):
        """The tick sums a path's validation checks, one right term at a
        time: for each j in increasing order, j and its pairs (i, k) with
        i <= j and t_i + t_j = t_k, i increasing."""
        keys = self._keys
        for j, b in enumerate(keys):
            pairs = [(i, k) for i in range(j + 1) if (k := self._find(keys[i] + b)) is not None]
            if pairs:
                yield j, pairs

    def divisions(self):
        """The tick multiples a path's validation checks, one divisor at a
        time: for each i in increasing order, i and its pairs (j, n) with
        j > i and t_j = n t_i for an integer n >= 2, j increasing."""
        keys = self._keys
        for i, b in enumerate(keys):
            pairs = [(j, n) for j in range(i + 1, len(keys)) if (n := self._quotient(keys[j], b)) is not None]
            if pairs:
                yield i, pairs

    def __len__(self):
        return len(self.ticks)


def _parsed(convert, value, what: str):
    """The one reading of a timeline's numbers: a number or its text, never a boolean."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return convert(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise TimelineError(f"{what} {value!r} is not a number")


def make_timeline(kind: str, params) -> Timeline:
    """Build a timeline: uniform_grid(N), rationals(list), or samples(list).

    N (an integer, or an integral float) and the ticks may be given as text.
    N + 1, or the number of ticks given, is held to MAX_TICKS before any
    tick is built.
    """
    if kind == UNIFORM_GRID:
        size = _parsed(Fraction, params, "grid size")
        if size.denominator != 1 or size < 1:
            raise TimelineError(f"uniform grid needs an integer N >= 1, got {params!r}")
        n = int(size)
        _check_tick_count(n + 1)
        return Timeline(UNIFORM_GRID, tuple(Fraction(k, n) for k in range(n + 1)))
    if kind in (RATIONALS, SAMPLES):
        params = list(params)
        _check_tick_count(len(params))
    if kind == RATIONALS:
        ticks = {Fraction(0), Fraction(1)}
        for p in params:
            f = _parsed(Fraction, p, "tick")
            if not 0 <= f <= 1:
                raise TimelineError(f"tick {p} outside [0, 1]")
            ticks.add(f)
        return Timeline(RATIONALS, tuple(sorted(ticks)))
    if kind == SAMPLES:
        values = [_parsed(float, p, "tick") for p in params]
        if not values:
            raise TimelineError("empty sample list")
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise TimelineError(f"tick {v} outside [0, 1]")
        return Timeline(SAMPLES, tuple(sorted(set(values) | {0.0, 1.0})))
    raise TimelineError(f"unknown timeline kind {kind!r}")


@dataclass(frozen=True)
class LevyValidationReport:
    tol: float
    start_error: float
    worst_increment: float
    increment_at: tuple | None
    increments_checked: int
    worst_division: float
    division_at: tuple | None
    divisions_checked: int

    @property
    def passed(self) -> bool:
        return (
            self.start_error <= self.tol
            and self.worst_increment <= self.tol
            and self.worst_division <= self.tol
        )


@dataclass(frozen=True)
class LevyPath:
    """Marginals on a timeline, and the generator that made them.

    generator["weights"] is the jump measure's read-only float array when
    levy_from_root or levy_from_exponential built the path, or a path file
    held the weights as a list of floats, as export_path writes them; a
    hand-written file's other value, a list of integers say, stays the list
    it decoded to. Compare generators with np.array_equal on that field.
    """

    timeline: Timeline
    marginals: tuple[Measure, ...]
    generator: dict

    @property
    def structure(self):
        return self.marginals[0].structure


def levy_from_root(nu: Measure, n_steps: int) -> LevyPath:
    """Path on the uniform grid with the k-th power of nu at tick k/N.

    Every marginal is computed by binary exponentiation over one shared
    set of squares, and is bit-identical to conv_power(nu, k).
    """
    timeline = make_timeline(UNIFORM_GRID, n_steps)
    n_steps = len(timeline) - 1
    marginals = conv_powers(nu, range(n_steps + 1))
    generator = {
        "kind": "root",
        "N": n_steps,
        "weights": nu.weights,
        "structure": nu.structure.fingerprint,
    }
    return LevyPath(timeline, tuple(marginals), generator)


def levy_from_exponential(nu: Measure, r: float, timeline: Timeline, tol: float) -> LevyPath:
    """Path with the exponential at rate t*r at tick t; exact point mass at t=0.

    Each marginal is bit-identical to conv_exp(nu, t*r, tol).
    """
    _check_rate(float(r))
    marginals = conv_exps(nu, [float(t) * float(r) for t in timeline.ticks], tol)
    generator = {
        "kind": "exponential",
        "r": float(r),
        "tol": float(tol),
        "weights": nu.weights,
        "structure": nu.structure.fingerprint,
    }
    return LevyPath(timeline, tuple(marginals), generator)


def validate_levy(path: LevyPath, tol: float) -> LevyValidationReport:
    """Check start, increment law, and marginal divisibility over the ticks.

    The increments are taken per right factor X(t), all its left factors
    X(s) in one stack, and the powers per marginal from one chain of
    squares; each value is tv_distance(X(s + t), convolve(X(s), X(t))) or
    tv_distance(conv_power(X(s), n), X(n s)), to the bits the measures
    module's contract states. The worst violation is kept as it is found,
    the first in lexicographic order among equals, so reports are
    deterministic, and memory stays in proportion to the ticks, not to the
    pairs.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise MeasureError(f"tolerance must be finite and non-negative, got {tol}")
    for mu in path.marginals:
        _check_pair(path.marginals[0], mu)
    ticks = path.timeline.ticks
    cert = certificate_of(path.structure)
    start_error = tv_distance(path.marginals[0], dirac(path.structure, cert.zero))
    weights = np.array([mu.weights for mu in path.marginals])

    inc_worst, increments_checked = None, 0  # inc_worst: (-value, i, j)
    for j, pairs in path.timeline.increments():
        left, sums = map(list, zip(*pairs))
        raw = _products_raw(cert, weights[left], weights[j])
        for i, target, product in zip(left, weights[sums], raw):
            v = _tv_raw(target, _normalised(product))
            if v > 0 and (inc_worst is None or (-v, i, j) < inc_worst):
                inc_worst = (-v, i, j)
        increments_checked += len(pairs)

    div_worst, div_at, divisions_checked = 0.0, None, 0
    for i, pairs in path.timeline.divisions():
        powers = _powers_raw(cert, weights[i], [n for _, n in pairs])
        for (j, n), power in zip(pairs, powers):
            v = _tv_raw(_normalised(power), weights[j])
            if v > div_worst:
                div_worst, div_at = v, (float(ticks[j]), n)
        divisions_checked += len(pairs)

    return LevyValidationReport(
        tol=float(tol),
        start_error=start_error,
        worst_increment=0.0 if inc_worst is None else -inc_worst[0],
        increment_at=None if inc_worst is None else (float(ticks[inc_worst[1]]), float(ticks[inc_worst[2]])),
        increments_checked=increments_checked,
        worst_division=div_worst,
        division_at=div_at,
        divisions_checked=divisions_checked,
    )


def restrict_path(path: LevyPath, timeline: Timeline) -> LevyPath:
    """The same process seen on a sub-timeline of the original ticks."""
    picked = []
    for t in timeline.ticks:
        k = path.timeline.locate(t)
        if k is None:
            raise TimelineError(f"tick {t} is not a tick of the original path")
        picked.append(path.marginals[k])
    return LevyPath(timeline, tuple(picked), dict(path.generator))


def same_ticks(a: Timeline, b: Timeline) -> bool:
    """Equal tick counts, and ticks pairwise equal within TICK_MATCH_TOL."""
    return len(a) == len(b) and all(
        abs(float(s) - float(t)) <= TICK_MATCH_TOL for s, t in zip(a.ticks, b.ticks)
    )


def compare_paths(a: LevyPath, b: LevyPath) -> tuple[float, float | None]:
    """Largest tick-wise total variation between two paths on equal timelines."""
    if not same_structure(a.structure, b.structure):
        raise StructureMismatchError("paths live on different structures")
    if not same_ticks(a.timeline, b.timeline):
        raise TimelineError("paths have different timelines")
    worst, at = 0.0, None
    for k, t in enumerate(a.timeline.ticks):
        v = tv_distance(a.marginals[k], b.marginals[k])
        if v > worst:
            worst, at = v, float(t)
    return worst, at


# --- CSV interchange --------------------------------------------------------

def _decode_json(text: str, what: str, error: type[Exception]):
    """The one decoding of JSON input, for the path CSV's generator line and
    for every file the fileio module reads: a failure of json.loads raises
    error("{what} is not valid JSON: ..."), an integer past the digit limit
    of int() and nesting past the Python stack included."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} is not valid JSON: nested too deeply to decode") from exc
    except ValueError as exc:  # int() refuses a literal past sys.get_int_max_str_digits()
        raise error(f"{what} is not valid JSON: an integer has too many digits") from exc


def _json_array(value) -> list:
    """json's writer for the arrays a generator holds: the list of their
    floats, so a weight array prints as the list of its weights did."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _read_generator(doc):
    """A decoded generator with its weights, when a list of floats as
    export_path writes them, back in a read-only array; other values stay
    as decoded, to be rewritten as read."""
    weights = doc.get("weights") if isinstance(doc, dict) else None
    if isinstance(weights, list) and all(type(w) is float for w in weights):
        array = np.array(weights)
        array.setflags(write=False)
        doc = {**doc, "weights": array}
    return doc


def export_path(path: LevyPath) -> str:
    """CSV with one row per tick, weights at 17 significant digits."""
    m = path.structure.size
    lines = [
        "# generator: " + json.dumps(path.generator, sort_keys=True, default=_json_array),
        f"# structure: size={m} fingerprint={path.structure.fingerprint}",
        "t," + ",".join(f"w_{i}" for i in range(m)),
    ]
    for t, mu in zip(path.timeline.ticks, path.marginals):
        row = [format(float(t), ".17g")] + [format(float(w), ".17g") for w in mu.weights]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_path_csv(text: str, structure) -> LevyPath:
    """Rebuild a path from export_path output; weights round-trip bit-exactly.

    Ticks must be finite, strictly increasing from 0 to 1, and each row a
    finite, non-negative weight vector summing to 1 within SUM_TOL;
    anything else raises TimelineError, since validating a path relies on
    both. A structure line naming another size or fingerprint than the
    given structure's raises StructureMismatchError.
    """
    generator: dict = {}
    ticks: list[float] = []
    rows: list[Measure] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("generator:"):
                decoded = _decode_json(body[len("generator:"):], "path CSV generator line", TimelineError)
                generator = _read_generator(decoded)
            elif body.startswith("structure:"):
                found = dict(f.split("=", 1) for f in body.split() if "=" in f)
                if found != {"size": str(structure.size), "fingerprint": structure.fingerprint}:
                    raise StructureMismatchError(
                        f"path was written on structure {found.get('fingerprint', '?')[:12]}, "
                        f"not on the model's {structure.fingerprint[:12]}"
                    )
            continue
        if line.startswith("t,"):
            continue
        cells = line.split(",")
        if len(cells) != structure.size + 1:
            raise TimelineError(
                f"row has {len(cells) - 1} weights, structure has {structure.size} elements"
            )
        t = _parsed(float, cells[0], "tick")
        if not 0.0 <= t <= 1.0:
            raise TimelineError(f"tick {cells[0]} outside [0, 1]")
        if ticks and t <= ticks[-1]:
            raise TimelineError(f"tick {cells[0]} does not follow {ticks[-1]!r}; ticks must increase")
        try:
            w = np.array([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise TimelineError(f"row at tick {cells[0]} has a weight that is not a number") from exc
        if not (np.isfinite(w).all() and (w >= 0).all()):
            raise TimelineError(f"row at tick {cells[0]} has a negative or non-finite weight")
        total = math.fsum(w.tolist())
        if not (1 - SUM_TOL <= total <= 1 + SUM_TOL):
            raise TimelineError(f"row at tick {cells[0]} sums to {total}, not 1 within {SUM_TOL}")
        ticks.append(t)
        # exported weights are already normalized; keep their exact bits
        rows.append(Measure(w, structure))
    if not rows:
        raise TimelineError("no data rows in path CSV")
    if ticks[0] != 0.0 or ticks[-1] != 1.0:
        raise TimelineError(f"path CSV ticks run from {ticks[0]!r} to {ticks[-1]!r}, not from 0 to 1")
    timeline = Timeline(SAMPLES, tuple(ticks))
    return LevyPath(timeline, tuple(rows), generator)
