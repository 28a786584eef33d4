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

Bits contract: the series chain (_series_raw) and validation's products
(_products_raw) multiply by a measure's right-multiplication operator
op[x, z] = sum of w(y) over x + y = z (_right_operator), built with one
bincount, so that a step is an (m,) by (m, m) product rather than an m^2
scatter. On a group each cell of op holds a single w(y), and the product
adds a[x] * w(y) over x in the order the bincount does, so the bits are
the kernel's. Where one row sends several y to the same sum (chains,
products with a chain) op adds those weights before multiplying, which
moves a result by at most m * eps in total variation: the series accepts
that, while _products_raw takes the operator on a group only, so that
validation reports keep the kernel's bits on every monoid.

Shared power chains: the series for many rates stores one chain of
powers mu^(0*), mu^(1*), ..., as long as the largest rate needs. Powers
for many exponents, and conv_exp's squarings at large rates, share one
set of squares mu^(2^j) and one memo of products keyed by low exponent
bits (_powers_raw); every 32nd square is renormalised against the drift
of its mass, so exponents below 2^32 and rates up to 2^29 keep their
bits. Each rate sums its own Poisson weights over the head of the chain
with the compensated accumulator that mixtures use, and each exponent
multiplies its squares in the same bit order, so every result has the
bits of its single call; the kernels are deterministic, and a shared
intermediate is the same array a separate call would have built. The
stored chain costs O(L * m) memory for the L = r + O(sqrt(r)) terms of
the largest rate r, plus m^2 for op: for tol 1e-9, 869 terms at r = 700
and 293 at r = 200.

Measure stacks: the convolution kernel, and the powers built on it, take
either one vector (m,) or a stack (B, m) of independent rows, as the
solver's grid scan does. A stack is one bincount in which row b's sums
land in bins b*m + table[x, y]; bincount adds its inputs in order, so each
row adds the same products in the same order as the single call on that
row and keeps its bits.
"""

from __future__ import annotations

import math
import operator
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


def _check_rate(r) -> None:
    """The one rule for a rate: finite and non-negative."""
    if not (math.isfinite(r) and r >= 0):
        raise MeasureError(f"rate must be finite and non-negative, got {r}")


def measure(structure: FiniteStructure, weights) -> Measure:
    """Validate a weight vector and renormalize it onto the simplex."""
    try:
        w = np.array(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MeasureError(f"weights must be numbers: {exc}") from exc
    if w.shape != (structure.size,):
        raise MeasureError(f"expected {structure.size} weights, got shape {w.shape}")
    negative = w[w < -SUM_TOL]
    if negative.size:
        raise MeasureError(f"negative weight {float(negative.min())}")
    total = math.fsum(w.tolist())
    if not (1 - SUM_TOL <= total <= 1 + SUM_TOL):
        raise MeasureError(f"weights sum to {total}, not 1 within {SUM_TOL}")
    return _from_raw(structure, w)


def _normalised(w: np.ndarray) -> np.ndarray:
    """A vector over its exactly rounded total, float fuzz below 0 clamped:
    the weights _from_raw wraps."""
    low = float(w.min())
    if low < 0.0:
        if low < -_CLAMP:
            raise MeasureError(f"internal weight {low} below the clamp tolerance")
        w = np.maximum(w, 0.0)
    return w / math.fsum(w.tolist())


def _from_raw(structure: FiniteStructure, w: np.ndarray) -> Measure:
    """Wrap a vector, absorbing float fuzz."""
    return Measure(_normalised(w), structure)


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
    flat = cert._flat
    m = a.shape[-1]
    if a.ndim == 1:
        return np.bincount(flat, weights=np.multiply.outer(a, b).ravel(), minlength=m)
    rows = a.shape[0]
    idx = (np.arange(rows) * m)[:, None] + flat[None, :]
    outer = a[:, :, None] * b[:, None, :]
    return np.bincount(idx.ravel(), weights=outer.ravel(), minlength=rows * m).reshape(rows, m)


def _powers_raw(cert: SemigroupCertificate, a: np.ndarray, ns) -> list[np.ndarray]:
    """a^(n*) for each n, by binary exponentiation over one set of squares.

    Each exponent walks its bits from the lowest up, and the product of the
    squares a^(2^j) of its low set bits is memoised under those bits: the
    unit under 0, a lone square under its bit, else the shorter prefix's
    product times the next square. Squares go up to the top bit, and a
    stack a (B, m) is powered row by row. Every 32nd square is renormalised
    per row, as squaring squares the mass's rounding drift, (1 + a few
    ulp)^(2^j), which overflows past j ~ 62; exponents < 2^32 keep their bits.
    """
    squares, products, out = [a], {}, []  # products: low bits -> product of their squares
    for n in map(operator.index, ns):
        if n == 0 and 0 not in products:  # the unit, built on demand: descent steps call this
            products[0] = np.zeros(a.shape)
            products[0][..., cert.zero] = 1.0
        low = 0
        for j in range(n.bit_length()):
            if j == len(squares):
                sq = _convolve_raw(cert, squares[-1], squares[-1])
                squares.append(sq / sq.sum(axis=-1, keepdims=True) if j % 32 == 0 else sq)
            if n >> j & 1:
                prefix = low | 1 << j
                if prefix not in products:
                    products[prefix] = _convolve_raw(cert, products[low], squares[j]) if low else squares[j]
                low = prefix
        out.append(products[low])
    return out


def _right_operator(cert: SemigroupCertificate, w: np.ndarray) -> np.ndarray:
    """The (m, m) matrix of right multiplication by w: op[x, z] is the sum of
    w[y] over x + y = z, so a * w is einsum("x,xz->z", a, op)."""
    m = w.shape[0]
    idx = np.arange(m)[:, None] * m + cert.add_table
    return np.bincount(idx.ravel(), weights=np.tile(w, m), minlength=m * m).reshape(m, m)


def _products_raw(cert: SemigroupCertificate, stack: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of the stack (B, m) times w, with the bits of _convolve_raw
    on that row (the module's bits contract): one product with w's operator
    on a group, elsewhere one _convolve_raw call per row (the stacked
    bincount is slower per row at m = 256)."""
    if cert.is_group:
        return np.einsum("ix,xz->iz", stack, _right_operator(cert, w))
    return np.array([_convolve_raw(cert, a, w) for a in stack])


def _correlate_raw(cert: SemigroupCertificate, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    # out[y] = sum_x c[x] * g[table[x, y]]
    return (c[:, None] * g[cert.add_table]).sum(axis=0)


def _tv_raw(a: np.ndarray, b: np.ndarray) -> float:
    """tv_distance on two weight vectors."""
    return min(1.0, 0.5 * math.fsum(np.abs(a - b).tolist()))


# --- public operations ----------------------------------------------------

def convolve(mu: Measure, nu: Measure) -> Measure:
    """Law of the sum of independent draws from mu and nu."""
    _check_pair(mu, nu)
    out = _convolve_raw(certificate_of(mu.structure), mu.weights, nu.weights)
    return _from_raw(mu.structure, out)


def translate(mu: Measure, a: int) -> Measure:
    """Convolution with the point mass at a."""
    return convolve(mu, dirac(mu.structure, a))


def conv_power(mu: Measure, n: int) -> Measure:
    """n-fold self-convolution by binary exponentiation; n = 0 is the point mass at 0."""
    return conv_powers(mu, [n])[0]


def conv_powers(mu: Measure, ns) -> list[Measure]:
    """conv_power(mu, n) for each n in order, sharing one chain of squares."""
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise MeasureError("convolution power requires n >= 0")
    raw = _powers_raw(certificate_of(mu.structure), mu.weights, ns)
    return [mu if n == 1 else _from_raw(mu.structure, w) for n, w in zip(ns, raw)]


def _poisson_terms(r: float, tol: float) -> list[float]:
    """Poisson(r) weights p_0, ..., p_N of the terms the series keeps.

    Terms are kept until the remaining Poisson(r) mass, bounded by the
    geometric majorant p_(N+1) / (1 - r/(N+2)), drops below tol/2; since
    each power is a probability, the dropped total-variation mass is at
    most half of that, and the closing renormalization at most doubles it.
    They also stop at a weight that underflows to 0.0, the only stop when
    tol/2 does too; while tol/2 > 0 the majorant rule fires first.
    """
    p = math.exp(-r)
    terms = [p]
    n = 0
    while True:
        p_next = p * r / (n + 1)
        if p_next == 0.0 or (n + 2 > r and p_next / (1.0 - r / (n + 2)) < tol / 2):
            return terms
        p = p_next
        n += 1
        terms.append(p)


def _series_raw(cert: SemigroupCertificate, w, rates, tol) -> list[np.ndarray]:
    """Poisson-weighted power series for each rate, one vector per rate.

    The chain w^(0*), w^(1*), ... is built once, as long as the longest
    list of Poisson terms (_poisson_terms) needs, each power from the last
    by one product with w's operator (_right_operator), built once per
    call, whose bits the module's bits contract states. Each rate then sums
    its own terms over the head of the chain with _compensated_accumulate,
    the same loop a single rate runs, so it keeps the bits of its single
    call.
    """
    terms = [_poisson_terms(float(r), tol) for r in rates]
    m = w.shape[0]
    chain = [np.zeros(m)]
    chain[0][cert.zero] = 1.0
    op = _right_operator(cert, w)
    for _ in range(max(map(len, terms), default=1) - 1):
        chain.append(np.einsum("x,xz->z", chain[-1], op))
    return [_compensated_accumulate(chain, p, m) for p in terms]


def _squaring_raw(cert: SemigroupCertificate, w, r, tol) -> np.ndarray:
    """exp at rate r > 1/4 as the 2^h-th power (_powers_raw) of exp at r / 2^h in (1/8, 1/4],
    whose series runs at tol / 2^(h+1) as each squaring doubles the error; ldexp never overflows."""
    halvings = math.ceil(math.log2(r) + 2)
    acc = _series_raw(cert, w, [math.ldexp(r, -halvings)], math.ldexp(tol, -halvings - 1))[0]
    return _powers_raw(cert, _normalised(acc), [1 << halvings])[0]


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
        _check_rate(r)
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
    return _tv_raw(mu.weights, nu.weights)


def measure_of_event(mu: Measure, event: np.ndarray) -> float:
    """Total mass of an event given as a boolean vector over the universe."""
    ev = np.asarray(event, dtype=bool)
    if ev.shape != (mu.size,):
        raise MeasureError(f"event has shape {ev.shape}, expected ({mu.size},)")
    return math.fsum(mu.weights[ev].tolist())
