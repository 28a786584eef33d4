"""Probabilities on a finite structure and their convolution algebra.

A measure is a non-negative weight vector over the universe summing to 1.
The convolution of two measures pushes the product measure through the
certified semigroup sum: (mu * nu)(z) = sum over x + y = z of mu(x) nu(y).
From it come powers, exponentials, and total variation as the metric on
the simplex.

Each public operation fetches the structure's certificate once, through
structures.certificate_of, and the private kernels below take that frozen
certificate: the addition table, its size and the neutral element all
come from it.

One rule reads every rate, tolerance, eps and mixture coefficient a caller
passes, here and in divisibility and levy: _check_number; another reads
every power, root order, count of factors and solver count: _check_count.

Summation discipline: scalar reductions use math.fsum (exactly rounded);
the long vector accumulations in mixtures and the exponential series use
compensated addition; the bilinear convolution kernel accumulates in C in a
fixed order, whose worst-case error m^2 * eps stays far inside every
tolerance asserted at desk scale.

One kernel, one bits rule: every product goes through _products_raw, a
stack (B, m) of left factors times one right factor w (a single product
is a one-row stack). On a group it is the stack's product with the gather
of w through the left-division table, whose cells each hold one weight;
elsewhere one np.bincount per row over the flattened table. Both add
a[x] w(y) over x in the same order, so every row has the bits of the
bincount on it alone. _normalised and _tv_raw likewise give each row of
a stack the bits of the vector call. Powers for many exponents share one
set of squares mu^(2^j) and one memo of products keyed by low exponent
bits (_powers_raw), formed level by level: the products that need the
square of bit j, and the next square, go as one stack by it. Each
exponent multiplies its squares in the same bit order, so it has the bits
of its single call. Every 32nd square is renormalised against the drift
of its mass, so exponents below 2^32 and rates up to 2^29 keep their bits.
validate_levy takes its products and powers from these kernels and never
from the transform, so it judges a path built through the transform by
an independent computation.

Exponentials: on a Clifford monoid, a union of groups (groups, chains,
their products and relabellings: every monoid the catalog builds), conv_exp
goes through the semicharacter transform (transform.py), built on first use
and cached on the certificate: per call, one forward transform of the jump
measure, one pointwise exp(r(w_hat - 1)) over the stack of nonzero rates,
and one stacked inverse transform. Its error is rounding alone, at every
rate; tol bounds the series' truncation. Other monoids, such as capped
addition min(x + y, k), which is no union of groups, keep the Poisson
series (_series_raw) up to rate 700 and the squaring scheme above it
(_squaring_raw). Every rate of conv_exps keeps the bits of its single
conv_exp call: its row of the stack reads only the forward transform, and
the stacked inverse keeps each row's bits; or it sums its own Poisson
weights with the compensated accumulator over the head of one stored chain
of powers mu^(0*), mu^(1*), ..., as long as the largest rate needs.

The series' chain is the one exception to the bits rule: it multiplies by
the jump measure's right-multiplication operator op[x, z] = sum of w(y)
over x + y = z, built once per call, so that a step is an (m,) by (m, m)
product rather than an m^2 scatter. Where one row sends several y to the
same sum (chains, products with a chain) op adds those weights first,
which moves a result by at most m * eps in total variation; on a group
each cell holds one weight, with the kernel's bits. The chain costs
O(L * m) memory for the L = r + O(sqrt(r)) terms of the largest rate r,
plus m^2 for op: for tol 1e-9, 869 terms at r = 700 and 293 at r = 200.
"""

from __future__ import annotations

import math
import operator
import reprlib
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


def _check_number(value, what: str, positive: bool = False) -> float:
    """float(value), which must be finite and at least 0 (above 0 where positive)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x, value = math.nan, reprlib.repr(value)
    if not (math.isfinite(x) and (x > 0 if positive else x >= 0)):
        raise MeasureError(f"{what} must be finite and {'positive' if positive else 'non-negative'}, got {value}")
    return x


def _check_count(value, what: str, least: int) -> int:
    """operator.index(value), an integer that must be at least `least`."""
    try:
        n = operator.index(value)
    except TypeError:
        n, value = None, reprlib.repr(value)
    if n is None or n < least:
        bound = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer of at least {least}")
        raise MeasureError(f"{what} must be {bound}, got {value}")
    return n


def _check_unit_sum(values: list[float], error: type[Exception], what: str) -> None:
    """The one rule for a total of input weights: 1 within SUM_TOL. No caller
    passes a weight below -SUM_TOL, so a sum that overflows is past it."""
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if not (1 - SUM_TOL <= total <= 1 + SUM_TOL):
        raise error(f"{what} to {total}, not 1 within {SUM_TOL}")


def measure(structure: FiniteStructure, weights) -> Measure:
    """Validate a weight vector and renormalize it onto the simplex."""
    try:
        w = np.array(weights, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeasureError(f"weights must be numbers: {exc}") from exc
    if w.shape != (structure.size,):
        raise MeasureError(f"expected {structure.size} weights, got shape {w.shape}")
    negative = w[w < -SUM_TOL]
    if negative.size:
        raise MeasureError(f"negative weight {float(negative.min())}")
    _check_unit_sum(w.tolist(), MeasureError, "weights sum")
    return _from_raw(structure, w)


def _normalised(w: np.ndarray) -> np.ndarray:
    """A vector (m,), or each row of a stack (B, m), over its exactly
    rounded total: the weights _from_raw wraps. A row with a weight below 0
    has that float fuzz clamped to 0, and is refused below -_CLAMP; other
    rows keep their bits."""
    rows = np.atleast_2d(w)
    low = rows.min(axis=1)
    if (low < 0.0).any():
        refused = low[low < -_CLAMP]
        if refused.size:
            raise MeasureError(f"internal weight {float(refused[0])} below the clamp tolerance")
        rows = np.where((low < 0.0)[:, None], np.maximum(rows, 0.0), rows)
    totals = np.array([math.fsum(row) for row in rows.tolist()])
    return (rows / totals[:, None]).reshape(w.shape)


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
    cs = [_check_number(c, "mixture coefficient") for c in coeffs]
    _check_unit_sum(cs, MeasureError, "mixture coefficients sum")
    w = _compensated_accumulate((m.weights for m in measures), cs, first.size)
    return _from_raw(first.structure, w)


# --- raw kernels (shared with the solver) --------------------------------

def _powers_raw(cert: SemigroupCertificate, a: np.ndarray, ns) -> list[np.ndarray]:
    """a^(n*) for each n, by binary exponentiation over one set of squares.

    Each exponent is the product of the squares a^(2^j) of its set bits,
    taken from the lowest up and memoised under the low bits multiplied so
    far, its prefixes: the unit under 0, a lone square under its bit, else
    the shorter prefix's product times the next square. Each level j is one
    _products_raw stack by a^(2^j): every prefix that an exponent extends by
    bit j, then a^(2^j) itself while a higher square is needed, so each
    square is the right factor of one stack, and each row keeps the bits of
    its own kernel call. Squares go up to the largest exponent's top bit,
    and every 32nd is renormalised, as squaring squares the mass's rounding
    drift, (1 + a few ulp)^(2^j), which overflows past j ~ 62; exponents
    < 2^32 keep their bits.
    """
    ns = list(ns)  # Python ints: a public count passes _check_count first
    products = {1: a}  # prefix bits -> product of their squares
    if 0 in ns:  # the unit, built on demand: descent steps call this
        products[0] = np.zeros(a.shape)
        products[0][cert.zero] = 1.0
    top = max(ns, default=0).bit_length()
    for j in range(top):
        bit = 1 << j
        lows = sorted({n & (bit - 1) for n in ns if n & bit and n & (bit - 1)})
        if j + 1 < top:
            lows.append(bit)  # the next square, a^(2^j + 2^j)
        if lows:
            stack = _products_raw(cert, np.array([products[low] for low in lows]), products[bit])
            products.update(zip([low + bit for low in lows], stack))
            if (j + 1) % 32 == 0 and j + 1 < top:
                products[bit << 1] = stack[-1] / stack[-1].sum()
    return [products[n] for n in ns]


def _products_raw(cert: SemigroupCertificate, stack: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row of the stack (B, m) times w: the module's one kernel. On a
    group, one product of the stack with the gather of w through the
    left-division table; elsewhere one bincount per row."""
    if cert.is_group:
        return np.einsum("ix,xz->iz", stack, w[cert._ldiv])
    m = w.shape[0]
    return np.array([np.bincount(cert._flat, weights=np.multiply.outer(a, w).ravel(), minlength=m) for a in stack])


def _correlate_raw(cert: SemigroupCertificate, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    # out[y] = sum_x c[x] * g[table[x, y]]
    return (c[:, None] * g[cert.add_table]).sum(axis=0)


def _tv_raw(a: np.ndarray, b: np.ndarray) -> list[float]:
    """tv_distance for each row pair of two vectors (m,) or stacks (B, m):
    half the exactly rounded L1 distance of the pair, at most 1."""
    return [min(1.0, 0.5 * math.fsum(row)) for row in np.abs(np.atleast_2d(a - b)).tolist()]


# --- public operations ----------------------------------------------------

def convolve(mu: Measure, nu: Measure) -> Measure:
    """Law of the sum of independent draws from mu and nu."""
    _check_pair(mu, nu)
    out = _products_raw(certificate_of(mu.structure), mu.weights[None], nu.weights)[0]
    return _from_raw(mu.structure, out)


def translate(mu: Measure, a: int) -> Measure:
    """Convolution with the point mass at a."""
    return convolve(mu, dirac(mu.structure, a))


def conv_power(mu: Measure, n: int) -> Measure:
    """n-fold self-convolution by binary exponentiation; n = 0 is the point mass at 0."""
    return conv_powers(mu, [n])[0]


def conv_powers(mu: Measure, ns) -> list[Measure]:
    """conv_power(mu, n) for each n in order, sharing one chain of squares."""
    ns = [_check_count(n, "convolution power", 0) for n in ns]
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
    by one product with w's right-multiplication operator op, built once
    per call: the exception to the module's bits rule. Each rate then sums
    its own terms over the head of the chain with _compensated_accumulate,
    the same loop a single rate runs, so it keeps the bits of its single
    call.
    """
    terms = [_poisson_terms(float(r), tol) for r in rates]
    m = w.shape[0]
    chain = [np.zeros(m)]
    chain[0][cert.zero] = 1.0
    cells = np.arange(m)[:, None] * m + cert.add_table  # op[x, z] sums w[y] over x + y = z
    op = np.bincount(cells.ravel(), weights=np.tile(w, m), minlength=m * m).reshape(m, m)
    for _ in range(max(map(len, terms), default=1) - 1):
        chain.append(np.einsum("x,xz->z", chain[-1], op))
    return [_compensated_accumulate(chain, p, m) for p in terms]


def _squaring_raw(cert: SemigroupCertificate, w, r, tol) -> np.ndarray:
    """exp at rate r > 1/4 as the 2^h-th power (_powers_raw) of exp at r / 2^h in (1/8, 1/4],
    whose series runs at tol / 2^(h+1) as each squaring doubles the error; ldexp never overflows."""
    halvings = math.ceil(math.log2(r) + 2)
    acc = _series_raw(cert, w, [math.ldexp(r, -halvings)], math.ldexp(tol, -halvings - 1))[0]
    return _powers_raw(cert, _normalised(acc), [1 << halvings])[0]


def _transform_exps_raw(cert: SemigroupCertificate, w: np.ndarray, rates) -> list[np.ndarray]:
    """exp(r(w - delta_0)) for each rate on a Clifford monoid: one forward
    semicharacter transform of w, exp(r(w_hat - 1)) over the stack of nonzero
    rates, one stacked inverse; rate 0 is the point mass at 0 exactly.

    A semicharacter that is 1 on the whole support of w has w_hat = 1, and
    keeps the value 1 at every rate, so that the largest rates reach their
    limit: it is found on the transform of the support's indicator, whose
    real part reaches the support's size there and stays more than the
    transform's margin below it elsewhere. Rounding never lifts the real
    part of w_hat - 1 above 0, and an exponent below -746, where exp
    underflows to 0, is cut there, so no rate overflows.
    """
    sc = cert.semicharacters
    support = w > 0
    hat, support_hat = sc.forward(np.stack([w, support.astype(np.float64)]))
    z = hat - 1.0
    z[support_hat.real > np.count_nonzero(support) - sc.margin] = 0.0
    decay = np.minimum(z.real, 0.0)
    turn = np.clip(z.imag, -1.0, 1.0)  # |w_hat| <= 1, so r * turn stays finite
    rates = np.array(rates, dtype=np.float64)
    out = np.zeros((rates.size, w.shape[0]))
    out[:, cert.zero] = 1.0  # the rows of rate 0
    r = rates[rates != 0, None]
    with np.errstate(over="ignore"):  # a subnormal rate cuts at -inf: no cut
        cut = -746.0 / r
    out[rates != 0] = sc.inverse(np.exp(r * np.maximum(decay, cut) + 1j * (r * turn)))
    return list(out)


def _exps_raw(cert: SemigroupCertificate, w: np.ndarray, rates, tol) -> list[np.ndarray]:
    """The exponentials conv_exps normalises, one per rate: through the
    transform on a Clifford monoid (_transform_exps_raw); elsewhere every
    rate up to 700 sums its series over one stored chain of powers
    (_series_raw), and a larger rate runs the squaring scheme on its own."""
    if cert.semicharacters is not None:
        return _transform_exps_raw(cert, w, rates)
    rows = iter(_series_raw(cert, w, [r for r in rates if r <= _SERIES_MAX_RATE], tol))
    return [next(rows) if r <= _SERIES_MAX_RATE else _squaring_raw(cert, w, r, tol) for r in rates]


def conv_exp(mu: Measure, r: float, tol: float) -> Measure:
    """Exponential exp(r(mu - delta_0)) under convolution, within tol in
    total variation; rate 0 gives the point mass at 0 exactly.

    On a Clifford monoid it is taken through the semicharacter transform,
    exactly up to rounding at every rate. Elsewhere the rate picks the
    scheme. Up to 700 the Poisson-weighted series is summed directly, which
    carries a certifiable truncation bound. Above 700, where exp(-r)
    underflows, r is halved until small, the series runs there, and the
    result is squared back up; each squaring doubles the inherited error,
    so the inner tolerance is scaled down accordingly.
    """
    return conv_exps(mu, [r], tol)[0]


def conv_exps(mu: Measure, rates, tol: float) -> list[Measure]:
    """conv_exp(mu, r, tol) for each rate in order, each with the bits of
    its single call.

    On a Clifford monoid the rates share one forward transform of mu, one
    pointwise function over the stack of rates and one stacked inverse;
    elsewhere the rates up to 700 share one chain of powers (_exps_raw).
    """
    rates = [_check_number(r, "rate") for r in rates]
    tol = _check_number(tol, "tolerance", positive=True)
    raws = _exps_raw(certificate_of(mu.structure), mu.weights, rates, tol)
    return [_from_raw(mu.structure, raw) for raw in raws]


def tv_distance(mu: Measure, nu: Measure) -> float:
    """Half the L1 distance; equals the largest discrepancy over event sets."""
    _check_pair(mu, nu)
    return _tv_raw(mu.weights, nu.weights)[0]


def measure_of_event(mu: Measure, event: np.ndarray) -> float:
    """Total mass of an event given as a boolean vector over the universe."""
    ev = np.asarray(event, dtype=bool)
    if ev.shape != (mu.size,):
        raise MeasureError(f"event has shape {ev.shape}, expected ({mu.size},)")
    return math.fsum(mu.weights[ev].tolist())
