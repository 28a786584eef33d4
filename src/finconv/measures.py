"""Probabilities on a finite structure and their convolution algebra.

A measure is a non-negative weight vector over the universe summing to 1.
The convolution of two measures pushes the product measure through the
certified semigroup sum: (mu * nu)(z) = sum over x + y = z of mu(x) nu(y).
From it come powers, the Poisson-weighted exponential series, and total
variation as the metric on the simplex.

Each public operation fetches the structure's certificate once, through
structures.certificate_of, and the private kernels below take that frozen
certificate: the addition table, its size and the neutral element all
come from it.

Summation discipline: scalar reductions use math.fsum (exactly rounded);
the long vector accumulations in mixtures and the exponential series use
compensated addition; the bilinear convolution kernel accumulates in C
through np.bincount in a fixed order, whose worst-case error m^2 * eps
stays far inside every tolerance asserted at desk scale.

Shared power chains: the series for many rates stores one chain of
powers mu^(0*), mu^(1*), ..., as long as the largest rate needs, and
powers for many exponents reuse one set of squares mu^(2^j). Each rate
sums its own Poisson weights over the head of the chain with the
compensated accumulator that mixtures use, and each exponent multiplies
its squares in the same bit order, so every result has the bits of its
single call; the kernels are deterministic, and a shared intermediate is
the same array a separate call would have built. The stored chain costs
O(L * m) memory for the L = r + O(sqrt(r)) terms of the largest rate r:
869 terms at r = 700 and 293 at r = 200, for tol 1e-9.

Measure stacks: the convolution kernel, and the powers built on it, take
either one vector (m,) or a stack (B, m) of independent rows, as the
solver's grid scan does. A stack is one bincount in which row b's sums
land in bins b*m + table[x, y]; bincount adds its inputs in order, so each
row adds the same products in the same order as the single call on that
row and keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeasureError, StructureMismatchError
from .structures import FiniteStructure, SemigroupCertificate, certificate_of, same_structure

SUM_TOL = 1e-9  # accepted deviation of input weights from total mass 1
_CLAMP = 1e-9  # most negative weight an internal result may carry before renormalizing
_SERIES_MAX_RATE = 700  # above it exp(-r) underflows; conv_exp switches to squaring


@dataclass(frozen=True)
class Measure:
    """An immutable probability vector over a structure's universe."""

    weights: np.ndarray
    structure: FiniteStructure

    def __post_init__(self):
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def __repr__(self):
        w = ", ".join(f"{v:.6g}" for v in self.weights)
        return f"Measure([{w}])"


def _check_pair(mu: Measure, nu: Measure) -> None:
    if not same_structure(mu.structure, nu.structure):
        raise StructureMismatchError("measures live on different structures")


def measure(structure: FiniteStructure, weights) -> Measure:
    """Validate a weight vector and renormalize it onto the simplex."""
    try:
        w = np.array(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MeasureError(f"weights must be numbers: {exc}") from exc
    if w.shape != (structure.size,):
        raise MeasureError(f"expected {structure.size} weights, got shape {w.shape}")
    if (w < 0).any():
        worst = float(w.min())
        if worst < -SUM_TOL:
            raise MeasureError(f"negative weight {worst}")
        w = np.maximum(w, 0.0)
    total = math.fsum(w.tolist())
    if not (1 - SUM_TOL <= total <= 1 + SUM_TOL):
        raise MeasureError(f"weights sum to {total}, not 1 within {SUM_TOL}")
    return Measure(w / total, structure)


def _from_raw(structure: FiniteStructure, w: np.ndarray) -> Measure:
    """Wrap an internally computed vector, absorbing float fuzz."""
    low = float(w.min())
    if low < 0.0:
        if low < -_CLAMP:
            raise MeasureError(f"internal weight {low} below the clamp tolerance")
        w = np.maximum(w, 0.0)
    total = math.fsum(w.tolist())
    return Measure(w / total, structure)


def dirac(structure: FiniteStructure, a: int) -> Measure:
    """Point mass at element a."""
    a = int(a)
    if not 0 <= a < structure.size:
        raise MeasureError(f"element index {a} outside universe of size {structure.size}")
    w = np.zeros(structure.size)
    w[a] = 1.0
    return Measure(w, structure)


def uniform(structure: FiniteStructure) -> Measure:
    return Measure(np.full(structure.size, 1.0 / structure.size), structure)


def _compensated_accumulate(vectors, coeffs, size: int) -> np.ndarray:
    """Sum of coeff_i * vec_i with per-coordinate compensation, over as many
    terms as the shorter of the two sequences holds."""
    acc = np.zeros(size)
    comp = np.zeros(size)
    for c, v in zip(coeffs, vectors):
        term = c * v - comp
        t = acc + term
        comp = (t - acc) - term
        acc = t
    return acc


def mix(coeffs, measures: list[Measure]) -> Measure:
    """Convex combination of measures on a shared structure."""
    if len(coeffs) != len(measures):
        raise MeasureError(f"{len(coeffs)} coefficients for {len(measures)} measures")
    if not measures:
        raise MeasureError("empty mixture")
    first = measures[0]
    for m in measures[1:]:
        _check_pair(first, m)
    cs = [float(c) for c in coeffs]
    if any(c < 0 for c in cs):
        raise MeasureError("negative mixture coefficient")
    total = math.fsum(cs)
    if not (1 - SUM_TOL <= total <= 1 + SUM_TOL):
        raise MeasureError(f"mixture coefficients sum to {total}, not 1 within {SUM_TOL}")
    w = _compensated_accumulate((m.weights for m in measures), cs, first.size)
    return _from_raw(first.structure, w)


# --- raw kernels (shared with the solver) --------------------------------

def _convolve_raw(cert: SemigroupCertificate, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for one vector (m,) or row by row for a stack (B, m)."""
    flat = cert.add_table.ravel()
    m = a.shape[-1]
    if a.ndim == 1:
        return np.bincount(flat, weights=np.multiply.outer(a, b).ravel(), minlength=m)
    rows = a.shape[0]
    idx = (np.arange(rows) * m)[:, None] + flat[None, :]
    outer = a[:, :, None] * b[:, None, :]
    return np.bincount(idx.ravel(), weights=outer.ravel(), minlength=rows * m).reshape(rows, m)


def _powers_raw(cert: SemigroupCertificate, a: np.ndarray, ns) -> list[np.ndarray]:
    """a^(n*) for each n by binary exponentiation over one set of squares.

    The squares a^(2^j) are built as far as the largest exponent needs.
    Each power multiplies the squares of its set bits from the lowest up,
    and a partial product, fixed by the low bits it covers, is computed
    once and shared by every exponent with those low bits. A stack a of
    shape (B, m) gets the powers of every row at once.
    """
    squares = [a]
    partial: dict[int, np.ndarray] = {}  # low bits -> product of their squares
    out = []
    for n in ns:
        if n == 0:
            unit = np.zeros_like(a)
            unit[..., cert.zero] = 1.0
            out.append(unit)
            continue
        result = None
        j = 0
        while True:
            bit = 1 << j
            if n & bit:
                if result is None:
                    result = squares[j]
                else:
                    low = n & (2 * bit - 1)
                    if low not in partial:
                        partial[low] = _convolve_raw(cert, result, squares[j])
                    result = partial[low]
            if n >> (j + 1) == 0:
                break
            j += 1
            if j == len(squares):
                squares.append(_convolve_raw(cert, squares[-1], squares[-1]))
        out.append(result)
    return out


def _correlate_raw(cert: SemigroupCertificate, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    # out[y] = sum_x c[x] * g[table[x, y]]
    return (c[:, None] * g[cert.add_table]).sum(axis=0)


def _tv_raw(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * math.fsum(np.abs(a - b).tolist())


# --- public operations ----------------------------------------------------

def convolve(mu: Measure, nu: Measure) -> Measure:
    """Law of the sum of independent draws from mu and nu."""
    _check_pair(mu, nu)
    out = _convolve_raw(certificate_of(mu.structure), mu.weights, nu.weights)
    return _from_raw(mu.structure, out)


def translate(mu: Measure, a: int) -> Measure:
    """Convolution with the point mass at a, via a single table column."""
    table = certificate_of(mu.structure).add_table
    a = int(a)
    if not 0 <= a < mu.size:
        raise MeasureError(f"element index {a} outside universe of size {mu.size}")
    out = np.bincount(table[:, a], weights=mu.weights, minlength=mu.size)
    return _from_raw(mu.structure, out)


def conv_power(mu: Measure, n: int) -> Measure:
    """n-fold self-convolution by binary exponentiation; n = 0 is the point mass at 0."""
    return conv_powers(mu, [n])[0]


def conv_powers(mu: Measure, ns) -> list[Measure]:
    """conv_power(mu, n) for each n in order, sharing one chain of squares."""
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise MeasureError("convolution power requires n >= 0")
    cert = certificate_of(mu.structure)
    todo = sorted({n for n in ns if n != 1})
    powers = {1: mu}
    for n, w in zip(todo, _powers_raw(cert, mu.weights, todo)):
        powers[n] = _from_raw(mu.structure, w)
    return [powers[n] for n in ns]


def _poisson_terms(r: float, tol: float) -> list[float]:
    """Poisson(r) weights p_0, ..., p_N of the terms the series keeps.

    Terms are kept until the remaining Poisson(r) mass, bounded by the
    geometric majorant p_(N+1) / (1 - r/(N+2)), drops below tol/2; since
    each power is a probability, the dropped total-variation mass is at
    most half of that, and the closing renormalization at most doubles it.
    """
    p = math.exp(-r)
    terms = [p]
    n = 0
    while True:
        p_next = p * r / (n + 1)
        if n + 2 > r and p_next / (1.0 - r / (n + 2)) < tol / 2:
            return terms
        p = p_next
        n += 1
        terms.append(p)


def _series_raw(cert: SemigroupCertificate, w, rates, tol) -> list[np.ndarray]:
    """Poisson-weighted power series for each rate, one vector per rate.

    The chain w^(0*), w^(1*), ... is built once, as long as the longest
    list of Poisson terms (_poisson_terms) needs. Each rate then sums its
    own terms over the head of the chain with _compensated_accumulate, the
    same loop a single rate runs, so it keeps the bits of its single call.
    """
    terms = [_poisson_terms(float(r), tol) for r in rates]
    m = w.shape[0]
    chain = [np.zeros(m)]
    chain[0][cert.zero] = 1.0
    for _ in range(max(map(len, terms), default=1) - 1):
        chain.append(_convolve_raw(cert, chain[-1], w))
    return [_compensated_accumulate(chain, p, m) for p in terms]


def _squaring_raw(cert: SemigroupCertificate, w, r, tol) -> np.ndarray:
    halvings = max(0, math.ceil(math.log2(r / 0.25))) if r > 0.25 else 0
    inner_tol = tol / (2.0 ** (halvings + 1))
    acc = _series_raw(cert, w, [r / 2.0**halvings], inner_tol)[0]
    acc = acc / math.fsum(acc.tolist())
    for _ in range(halvings):
        acc = _convolve_raw(cert, acc, acc)
    return acc


def conv_exp(mu: Measure, r: float, tol: float) -> Measure:
    """Exponential of the measure under convolution, within tol in total variation.

    The rate picks the scheme. Up to 700 the Poisson-weighted series is
    summed directly, which carries a certifiable truncation bound. Above
    700, where exp(-r) underflows, r is halved until small, the series runs
    there, and the result is squared back up; each squaring doubles the
    inherited error, so the inner tolerance is scaled down accordingly.
    """
    return conv_exps(mu, [r], tol)[0]


def conv_exps(mu: Measure, rates, tol: float) -> list[Measure]:
    """conv_exp(mu, r, tol) for each rate in order, from one shared chain.

    Every rate up to 700 sums its series over one stored chain of powers
    (_series_raw); rate 0 keeps only the chain's first element, the point
    mass at 0. A larger rate runs the squaring scheme on its own.
    """
    rates = [float(r) for r in rates]
    for r in rates:
        if not math.isfinite(r) or r < 0:
            raise MeasureError(f"rate must be finite and non-negative, got {r}")
    if not (math.isfinite(tol) and tol > 0):
        raise MeasureError(f"tolerance must be finite and positive, got {tol}")
    cert = certificate_of(mu.structure)
    rows = iter(_series_raw(cert, mu.weights, [r for r in rates if r <= _SERIES_MAX_RATE], tol))
    out = []
    for r in rates:
        raw = next(rows) if r <= _SERIES_MAX_RATE else _squaring_raw(cert, mu.weights, r, tol)
        out.append(_from_raw(mu.structure, raw))
    return out


def tv_distance(mu: Measure, nu: Measure) -> float:
    """Half the L1 distance; equals the largest discrepancy over event sets."""
    _check_pair(mu, nu)
    return min(1.0, _tv_raw(mu.weights, nu.weights))


def measure_of_event(mu: Measure, event: np.ndarray) -> float:
    """Total mass of an event given as a boolean vector over the universe."""
    ev = np.asarray(event, dtype=bool)
    if ev.shape != (mu.size,):
        raise MeasureError(f"event has shape {ev.shape}, expected ({mu.size},)")
    return math.fsum(mu.weights[ev].tolist())
