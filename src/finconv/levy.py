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
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import MeasureError, StructureMismatchError, TimelineError
from .measures import SUM_TOL, Measure, conv_exps, conv_powers, convolve, dirac, tv_distance
from .structures import certificate_of, same_structure

TICK_MATCH_TOL = 1e-12  # absolute slack when matching real-valued ticks

UNIFORM_GRID = "uniform_grid"
RATIONALS = "rationals"
SAMPLES = "samples"


@dataclass(frozen=True)
class Timeline:
    """Sorted ticks in [0, 1] including both endpoints.

    Ticks are exact fractions for uniform grids and rational timelines,
    floats for sampled ones; tick sums are matched exactly in the rational
    case and within an absolute tolerance in the sampled case.
    """

    kind: str
    ticks: tuple

    @cached_property
    def _positions(self) -> dict:
        return {t: i for i, t in enumerate(self.ticks)}

    def locate(self, value) -> int | None:
        """Index of the tick equal to value, or None."""
        if self.kind == SAMPLES:
            i = bisect_left(self.ticks, float(value) - TICK_MATCH_TOL)
            if i < len(self.ticks) and abs(self.ticks[i] - float(value)) <= TICK_MATCH_TOL:
                return i
            return None
        return self._positions.get(value)

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
    """
    if kind == UNIFORM_GRID:
        size = _parsed(Fraction, params, "grid size")
        if size.denominator != 1 or size < 1:
            raise TimelineError(f"uniform grid needs an integer N >= 1, got {params!r}")
        n = int(size)
        return Timeline(UNIFORM_GRID, tuple(Fraction(k, n) for k in range(n + 1)))
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
        "weights": [float(w) for w in nu.weights],
        "structure": nu.structure.fingerprint,
    }
    return LevyPath(timeline, tuple(marginals), generator)


def levy_from_exponential(nu: Measure, r: float, timeline: Timeline, tol: float) -> LevyPath:
    """Path with the exponential at rate t*r at tick t; exact point mass at t=0.

    Each marginal is bit-identical to conv_exp(nu, t*r, tol).
    """
    marginals = conv_exps(nu, [float(t) * float(r) for t in timeline.ticks], tol)
    generator = {
        "kind": "exponential",
        "r": float(r),
        "tol": float(tol),
        "weights": [float(w) for w in nu.weights],
        "structure": nu.structure.fingerprint,
    }
    return LevyPath(timeline, tuple(marginals), generator)


def _tick_ratio(t, u, kind) -> int | None:
    """t / u as an integer >= 2, or None."""
    if kind == SAMPLES:
        if u <= 0:
            return None
        ratio = t / u
        n = round(ratio)
        if n >= 2 and abs(t - n * u) <= TICK_MATCH_TOL:
            return int(n)
        return None
    if u == 0:
        return None
    ratio = t / u
    if ratio.denominator == 1 and ratio.numerator >= 2:
        return int(ratio)
    return None


def validate_levy(path: LevyPath, tol: float) -> LevyValidationReport:
    """Check start, increment law, and marginal divisibility over the ticks.

    Scans pairs in increasing lexicographic order and keeps the first
    occurrence of the worst violation, so reports are deterministic.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise MeasureError(f"tolerance must be finite and non-negative, got {tol}")
    ticks = path.timeline.ticks
    marg = path.marginals
    zero = certificate_of(path.structure).zero
    start_error = tv_distance(marg[0], dirac(path.structure, zero))

    worst_inc, inc_at, inc_checked = 0.0, None, 0
    for i in range(len(ticks)):
        for j in range(i, len(ticks)):
            k = path.timeline.locate(ticks[i] + ticks[j])
            if k is None:
                continue
            inc_checked += 1
            v = tv_distance(marg[k], convolve(marg[i], marg[j]))
            if v > worst_inc:
                worst_inc, inc_at = v, (float(ticks[i]), float(ticks[j]))

    worst_div, div_at, div_checked = 0.0, None, 0
    for i in range(len(ticks)):
        ratios = [(j, _tick_ratio(ticks[j], ticks[i], path.timeline.kind)) for j in range(i + 1, len(ticks))]
        ratios = [(j, n) for j, n in ratios if n is not None]
        powers = conv_powers(marg[i], [n for _, n in ratios])
        for (j, n), powered in zip(ratios, powers):
            div_checked += 1
            v = tv_distance(powered, marg[j])
            if v > worst_div:
                worst_div, div_at = v, (float(ticks[j]), n)

    return LevyValidationReport(
        tol=float(tol),
        start_error=start_error,
        worst_increment=worst_inc,
        increment_at=inc_at,
        increments_checked=inc_checked,
        worst_division=worst_div,
        division_at=div_at,
        divisions_checked=div_checked,
    )


def restrict_path(path: LevyPath, timeline: Timeline) -> LevyPath:
    """The same process seen on a sub-timeline of the original ticks."""
    picked = []
    for t in timeline.ticks:
        k = path.timeline.locate(t if path.timeline.kind != SAMPLES else float(t))
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

def export_path(path: LevyPath) -> str:
    """CSV with one row per tick, weights at 17 significant digits."""
    m = path.structure.size
    lines = [
        "# generator: " + json.dumps(path.generator, sort_keys=True),
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
                try:
                    generator = json.loads(body[len("generator:"):])
                except json.JSONDecodeError as exc:
                    raise TimelineError(f"path CSV generator line is not valid JSON: {exc}") from exc
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
