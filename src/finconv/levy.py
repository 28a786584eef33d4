"""Processes on timelines: grids of convolution powers and sampled exponentials.

A path assigns one measure per tick of a timeline with endpoints 0 and 1.
Root-generated paths put the k-th power of a root at tick k/N; exponential
paths put the exponential at rate t*r at tick t. Validation checks the
start at the point mass, the increment law X(s+t) = X(s) * X(t) over every
tick pair whose sum is a tick, and marginal divisibility where both t and
t/n are ticks.

A path's marginals come from one shared computation: the exponentials at
every tick from one conv_exps call (one forward semicharacter transform on
a Clifford monoid, one Poisson series elsewhere), the root powers from one
set of squares (conv_powers), and likewise the powers of each marginal
that the divisibility check needs. Each marginal is still bit-identical to
its single-tick conv_exp or conv_power call (see the measures module), so
sharing changes the cost, not the numbers.

Validation lists the tick pairs through the timeline, which matches exact
ticks as integer numerators over their common denominator, and evaluates
the increments of one right factor X(t) together, as one stack of left
factors (measures._products_raw, the convolution kernel, never the
transform that may have built the path). A timeline holds at most
MAX_TICKS ticks, so that the T^2 / 4 pairs it lists stay within
EVAL_BUDGET.

The worst-pair rule (_worst): a path report names the largest gap above
0 and, among equal gaps, the smallest key, tick indices (i, j) or k. Gaps
are scored a stack at a time by the measures module's stack rules
(_normalised, _tv_raw), with the bits of scoring each pair alone, and
only the worst so far is kept, so memory grows with the ticks, not the
pairs.

A generator holds its jump measure's weights as that measure's read-only
array, 8 bytes a weight, and is written as the list of those floats.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, StructureMismatchError, TimelineError
from .measures import (
    Measure,
    _check_number,
    _check_pair,
    _check_unit_sum,
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
    """The one reading of a timeline's numbers: a number or its text, never a
    boolean. A text's decimal exponent is held to the digit limit of int()
    before conversion, as Fraction builds 10**exponent before any range check."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python 3.10.7 added the limit
    if isinstance(value, str) and limit:
        try:
            exponent = abs(int(value.lower().partition("e")[2]))
        except ValueError:  # no exponent that either converter reads
            exponent = 0
        if exponent > limit:
            raise TimelineError(f"{what} {value!r} has a decimal exponent past {limit}")
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
        given = {Fraction(0): 0, Fraction(1): 1}  # each tick and its text
        for p in params:
            f = _parsed(Fraction, p, "tick")
            if not 0 <= f <= 1:
                raise TimelineError(f"tick {p} outside [0, 1]")
            given.setdefault(f, p)
        ticks = sorted(given)
        for s, t in zip(ticks, ticks[1:]):
            if float(s) == float(t):  # a path file writes each tick as its float
                raise TimelineError(f"ticks {given[s]} and {given[t]} are the same float {float(s)!r}")
        return Timeline(RATIONALS, tuple(ticks))
    if kind == SAMPLES:
        values = [_parsed(float, p, "tick") for p in params]
        if not values:
            raise TimelineError("empty sample list")
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise TimelineError(f"tick {v} outside [0, 1]")
        return Timeline(SAMPLES, tuple(sorted({0.0, 1.0} | set(values))))  # a given -0.0 is the tick 0.0
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
    r = _check_number(r, "rate")
    marginals = conv_exps(nu, [float(t) * r for t in timeline.ticks], tol)
    generator = {
        "kind": "exponential",
        "r": r,
        "tol": float(tol),
        "weights": nu.weights,
        "structure": nu.structure.fingerprint,
    }
    return LevyPath(timeline, tuple(marginals), generator)


def _worst(scored) -> tuple[float, object, int]:
    """The module's worst-pair rule over (gap, key) items: (gap, key or None, items scored)."""
    worst, at, count = 0.0, None, 0
    for gap, key in scored:
        count += 1
        if gap > worst or (gap == worst > 0 and key < at):
            worst, at = gap, key
    return worst, at, count


def validate_levy(path: LevyPath, tol: float) -> LevyValidationReport:
    """Check start, increment law, and marginal divisibility over the ticks.

    The increments are taken per right factor X(t), all its left factors
    X(s) in one stack, and the powers per marginal from one chain of
    squares; each value is tv_distance(X(s + t), convolve(X(s), X(t))) or
    tv_distance(conv_power(X(s), n), X(n s)), to the bits the measures
    module's bits rule states; worst pairs follow the module's worst-pair rule.
    """
    tol = _check_number(tol, "tolerance")
    for mu in path.marginals:
        _check_pair(path.marginals[0], mu)
    ticks = path.timeline.ticks
    cert = certificate_of(path.structure)
    start_error = tv_distance(path.marginals[0], dirac(path.structure, cert.zero))
    weights = np.array([mu.weights for mu in path.marginals])

    def increments():
        for j, pairs in path.timeline.increments():
            left = [i for i, _ in pairs]
            products = _products_raw(cert, weights[left], weights[j])
            gaps = _tv_raw(weights[[k for _, k in pairs]], _normalised(products))
            yield from zip(gaps, ((i, j) for i in left))

    def divisions():
        for i, pairs in path.timeline.divisions():
            powers = np.array(_powers_raw(cert, weights[i], [n for _, n in pairs]))
            gaps = _tv_raw(weights[[j for j, _ in pairs]], _normalised(powers))
            yield from zip(gaps, ((i, j, n) for j, n in pairs))

    worst_increment, inc, increments_checked = _worst(increments())
    worst_division, div, divisions_checked = _worst(divisions())
    return LevyValidationReport(
        tol=float(tol),
        start_error=start_error,
        worst_increment=worst_increment,
        increment_at=None if inc is None else (float(ticks[inc[0]]), float(ticks[inc[1]])),
        increments_checked=increments_checked,
        worst_division=worst_division,
        division_at=None if div is None else (float(ticks[div[1]]), div[2]),
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
    """Largest tick-wise total variation between two paths on equal timelines, at
    its tick by the module's worst-pair rule."""
    if not same_structure(a.structure, b.structure):
        raise StructureMismatchError("paths live on different structures")
    if not same_ticks(a.timeline, b.timeline):
        raise TimelineError("paths have different timelines")
    worst, k, _ = _worst((tv_distance(x, y), k) for k, (x, y) in enumerate(zip(a.marginals, b.marginals)))
    return worst, None if k is None else float(a.timeline.ticks[k])


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
    row = ",".join(["%.17g"] * (m + 1))  # the bytes of format(x, ".17g") for each float
    lines.extend(row % (float(t), *mu.weights.tolist()) for t, mu in zip(path.timeline.ticks, path.marginals))
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
        _check_unit_sum(w.tolist(), TimelineError, f"row at tick {cells[0]} sums")
        ticks.append(t)
        # exported weights are already normalized; keep their exact bits
        rows.append(Measure(w, structure))
    if not rows:
        raise TimelineError("no data rows in path CSV")
    if ticks[0] != 0.0 or ticks[-1] != 1.0:
        raise TimelineError(f"path CSV ticks run from {ticks[0]!r} to {ticks[-1]!r}, not from 0 to 1")
    timeline = Timeline(SAMPLES, tuple(ticks))
    return LevyPath(timeline, tuple(rows), generator)
