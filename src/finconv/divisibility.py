"""Approximate infinite divisibility and its certificates.

n-th convolution roots are found by multi-start exponentiated-gradient
descent on the probability simplex, minimizing the squared L2 residual of
the root's n-th power against the target (total variation is what gets
certified; the two are equivalent on a fixed finite space and L2 has a
smooth gradient). Chains under join admit an analytic root through the
cumulative function, kept as an independent oracle.

A root search reports a lower_bound only where one is certified: for even
n on a Clifford monoid (a union of groups, transform.py), by the real
semicharacters. Such a chi takes the values 0 and +-1, so nu_hat(chi) is
real and nu_hat(chi)^n >= 0 for every nu; and |chi| <= 1 gives
|nu_hat^n(chi) - t_hat(chi)| <= 2 TV(nu^n, t). Every candidate root
therefore leaves a residual of at least half of -t_hat(chi), the
two-torsion obstruction (the inequality behind Diaconis's upper-bound
lemma, IMS LN 11, 1988, ch. 3). The bound holds up to the transform's
rounding, and exactly on C2, whose FFT of size 2 is exact. It is None for
odd n, off Clifford monoids, and where no real chi has t_hat(chi) < 0;
obstructions that only complex semicharacters see (Z3's delta_1 at
n = 3, Z8's delta_2 at n = 4) end local_minimum_only.

The remaining operations realize the compound-Bernoulli approximation of
the exponential, the extraction of its jump measure, the concentration
conditions, and a grid-plus-descent fit of a target by an exponential.

Roots and fits share one descent driver, _descents. Its objective(w)
returns the value, the TV residual and a gradient thunk; the descent calls
only the thunk of a point it accepted, which reuses that evaluation's work
(the (n-1)-th power of a root, the exponential of a fit) without a cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConcentrationError, MeasureError, FinconvError
from .measures import (
    _SERIES_MAX_RATE,
    Measure,
    _check_pair,
    _check_rate,
    _correlate_raw,
    _exps_raw,
    _from_raw,
    _normalised,
    _powers_raw,
    _products_raw,
    conv_exp,
    conv_power,
    dirac,
    mix,
    tv_distance,
    uniform,
)
from .structures import SemigroupCertificate, certificate_of

VERDICT_EXACT = "exact_within_tol"
VERDICT_LOCAL = "local_minimum_only"
VERDICT_INFEASIBLE = "infeasible_lower_bound"

DISTINCT_ROOT_TV = 1e-4
FIT_R_MAX = 4.0  # largest rate fit_levy_khintchine searches unless told otherwise

# exponentiated-gradient step rule: Armijo backtracking, geometric regrowth
STEP_INIT = 1.0
STEP_GROWTH = 1.3
STEP_SHRINK = 0.5
ARMIJO = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the simplex descent; the step rule is fixed by the module
    constants STEP_INIT, STEP_GROWTH, STEP_SHRINK and ARMIJO. A root whose
    certified lower_bound reaches 100 * tol_residual is declared
    infeasible."""

    seed: int = 0
    restarts: int = 16
    max_iters: int = 5000
    tol_residual: float = 1e-9

    def __post_init__(self):
        if self.seed < 0:
            raise MeasureError(f"seed must be non-negative, got {self.seed}")
        if self.restarts < 1:
            raise MeasureError("restarts must be at least 1")
        if self.max_iters < 1:
            raise MeasureError("max_iters must be at least 1")
        if not (math.isfinite(self.tol_residual) and self.tol_residual > 0):
            raise MeasureError(f"tol_residual must be finite and positive, got {self.tol_residual}")


@dataclass(frozen=True)
class RootCertificate:
    """Outcome of an n-th root search, residual recomputed at issue time."""

    target: Measure
    order: int
    best_root: Measure
    residual: float
    verdict: str
    lower_bound: float | None
    all_roots_found: tuple[Measure, ...]
    seed: int


@dataclass(frozen=True)
class DivisibilityReport:
    target: Measure
    n_max: int
    certificates: dict[int, RootCertificate]
    divisible: bool
    first_failing: int | None


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    value: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class ConcentrationReport:
    conditions: tuple[ConditionCheck, ConditionCheck, ConditionCheck]

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.conditions)


@dataclass(frozen=True)
class LevyKhintchineFit:
    rate: float
    jump: Measure
    residual: float


# --- gradient and descent -------------------------------------------------

def power_gradient(nu: Measure, n: int, target: Measure) -> np.ndarray:
    """Gradient of half the squared L2 distance of nu's n-th power to target.

    The derivative of the power map in direction h is n * (previous power
    convolved with h), so the gradient correlates the (n-1)-th power with
    the residual through the addition table, as the root descent does.
    """
    if n < 1:
        raise MeasureError("gradient needs n >= 1; the 0-th power is constant")
    _check_pair(nu, target)
    return _power_objective(certificate_of(nu.structure), target.weights, n)(nu.weights)[2]()


def _residuals(d: np.ndarray) -> tuple[float, float]:
    """Half the squared L2 norm and the TV norm of a difference of measures."""
    return 0.5 * float(np.dot(d, d)), 0.5 * math.fsum(np.abs(d).tolist())


def _exp_grad_minimize(objective, init, max_iters: int, tol_stop: float):
    """One descent run; returns (best residual, best point).

    objective(w) -> (objective value, tv residual, gradient thunk). Only the
    thunk of a point the run moves to is called, so the objective may keep
    what the gradient needs from its own evaluation. The raw start point is
    scored before any smoothing so exact fixed points (point masses, the
    target itself) are kept verbatim.
    """
    w = np.array(init, dtype=np.float64)
    obj, tv, grad = objective(w)
    best_tv, best_w = tv, w.copy()
    if tv <= tol_stop:
        return best_tv, best_w
    if (w <= 0).any():
        # multiplicative updates cannot leave a face; nudge inside
        w = np.maximum(w, 1e-8 / w.size)
        w = w / w.sum()
        obj, tv, grad = objective(w)
        if tv < best_tv:
            best_tv, best_w = tv, w.copy()
    step = STEP_INIT
    g = grad()
    stall = 0
    marker = best_tv
    for _ in range(max_iters):
        mean_g = float(np.dot(w, g))
        descent = float(np.dot(w, (g - mean_g) ** 2))
        if descent <= 1e-30:
            break
        while step >= 1e-18:
            u = -step * g
            u -= u.max()
            w_try = w * np.exp(u)
            w_try /= w_try.sum()
            obj_try, tv_try, grad_try = objective(w_try)
            if obj_try <= obj - ARMIJO * step * descent:
                break
            step *= STEP_SHRINK
        else:
            break  # no step size was accepted
        w, obj, grad = w_try, obj_try, grad_try
        if tv_try < best_tv:
            best_tv, best_w = tv_try, w_try.copy()
        if tv_try <= tol_stop:
            break
        # runs pinned to a flat valley never recover; cut them off
        if best_tv < marker - 1e-12:
            marker = best_tv
            stall = 0
        else:
            stall += 1
            if stall >= 500:
                break
        g = grad()
        step *= STEP_GROWTH
    return best_tv, best_w


def _descents(objective, starts, max_iters: int, tol_stop: float):
    """One descent from every start, as (residual, start index, point) sorted
    best first; equal residuals go to the earlier start, and the distinct
    start indices keep the sort from comparing points."""
    runs = [_exp_grad_minimize(objective, start, max_iters, tol_stop) for start in starts]
    return sorted((tv, idx, w) for idx, (tv, w) in enumerate(runs))


def _power_objective(cert: SemigroupCertificate, target_w: np.ndarray, n: int):
    def objective(w):
        # w^n as w^(n-1) * w, so the gradient thunk reuses w^(n-1) and d
        prev = _powers_raw(cert, w, [n - 1])[0]
        d = _products_raw(cert, prev[None], w)[0] - target_w
        return (*_residuals(d), lambda: n * _correlate_raw(cert, prev, d))

    return objective


# --- root search ------------------------------------------------------------

def _two_torsion_bound(cert: SemigroupCertificate, target_w: np.ndarray, n: int) -> float | None:
    """Half the largest -t_hat(chi) over the real semicharacters chi, a lower
    bound on TV(nu^n, t) for every nu when n is even (module docstring);
    None for odd n, off Clifford monoids, or when it is not positive."""
    if n % 2:
        return None
    sc = cert.semicharacters
    if sc is None:
        return None
    bound = -0.5 * float(sc.forward(target_w[None, :])[0].real[sc.real].min())
    return bound if bound > 0 else None


def nth_root(target: Measure, n: int, cfg: SolverConfig | None = None) -> RootCertificate:
    """Search the simplex for an n-th convolution root of the target.

    Runs cfg.restarts descents: from the target itself, the point mass at
    0, uniform, one anchored start per element, then seeded Dirichlet
    draws. The winner is the lexicographic minimum of (residual, restart
    index), so results are deterministic for a fixed seed. lower_bound is
    the two-torsion bound (_two_torsion_bound), certified up to the
    transform's rounding, or None where none is known; a lower_bound of at
    least 100 * tol_residual gives VERDICT_INFEASIBLE.
    """
    cfg = cfg or SolverConfig()
    if n < 1:
        raise MeasureError("root order must be at least 1")
    s = target.structure
    cert = certificate_of(s)
    m = target.size

    rng = np.random.default_rng(cfg.seed)
    flat_start = uniform(s).weights
    inits = [target.weights, dirac(s, cert.zero).weights, flat_start]
    # anchored starts: the gradient through a high power is blind to mass at
    # low chain elements until it dominates, so seed one basin per element
    inits += list(0.3 * flat_start + 0.7 * np.eye(m))
    while len(inits) < cfg.restarts:
        inits.append(rng.dirichlet(np.ones(m)))
    inits = inits[: cfg.restarts]

    runs = _descents(_power_objective(cert, target.weights, n), inits, cfg.max_iters, cfg.tol_residual)

    kept: list[Measure] = []
    for tv, _, w in runs:
        if tv > runs[0][0] + cfg.tol_residual:
            break
        candidate = _from_raw(s, w)
        if all(tv_distance(candidate, other) >= DISTINCT_ROOT_TV for other in kept):
            kept.append(candidate)
    best_root = kept[0]
    residual = tv_distance(conv_power(best_root, n), target)

    lower = _two_torsion_bound(cert, target.weights, n)
    if residual <= cfg.tol_residual:
        verdict = VERDICT_EXACT
    elif lower is not None and lower >= 100 * cfg.tol_residual:
        verdict = VERDICT_INFEASIBLE
    else:
        verdict = VERDICT_LOCAL
    return RootCertificate(
        target=target,
        order=n,
        best_root=best_root,
        residual=residual,
        verdict=verdict,
        lower_bound=lower,
        all_roots_found=tuple(kept),
        seed=cfg.seed,
    )


def semilattice_root_oracle(target: Measure, n: int) -> Measure:
    """Analytic n-th root on a chain under join: the cumulative function of
    the n-th power is the n-th power of the cumulative function, so the
    root's cumulative is the real n-th root."""
    if n < 1:
        raise MeasureError("root order must be at least 1")
    table = certificate_of(target.structure).add_table
    m = target.size
    i = np.arange(m)
    idempotent = (table[i, i] == i).all()
    selective = ((table == i[:, None]) | (table == i[None, :])).all()
    if not (idempotent and selective):
        raise FinconvError("structure is not a chain join-semilattice")
    if n == 1:
        return target
    below = (table == i[:, None]).sum(axis=1)  # rank in the chain order
    order = np.argsort(below, kind="stable")
    cdf = np.cumsum(target.weights[order])
    root_cdf = np.power(np.maximum(cdf, 0.0), 1.0 / n)
    sorted_w = np.maximum(np.diff(root_cdf, prepend=0.0), 0.0)
    w = np.empty(m)
    w[order] = sorted_w
    return _from_raw(target.structure, w)


def is_infinitely_divisible(target: Measure, n_max: int, cfg: SolverConfig | None = None) -> DivisibilityReport:
    """Certify n-th roots for every n up to n_max; honest three-way verdicts."""
    cfg = cfg or SolverConfig()
    if n_max < 2:
        raise MeasureError("n_max must be at least 2")
    certificates = {n: nth_root(target, n, cfg) for n in range(2, n_max + 1)}
    failing = [n for n in sorted(certificates) if certificates[n].verdict != VERDICT_EXACT]
    return DivisibilityReport(
        target=target,
        n_max=n_max,
        certificates=certificates,
        divisible=not failing,
        first_failing=failing[0] if failing else None,
    )


# --- compound-Bernoulli approximation of the exponential --------------------

def _rate_per_factor(r: float, K: int) -> float:
    """q = r/K, the rate each of K factors carries, for K >= 1 and a rate r."""
    if K < 1:
        raise MeasureError("K must be a positive integer")
    _check_rate(r)
    try:
        return r / K
    except OverflowError as exc:  # an int past the float range
        raise MeasureError(f"K has {len(str(K))} digits, past the float range") from exc


def lambda_for(mu: Measure, r: float, K: int) -> Measure:
    """The K-th approximate root (1 + r/K)^(-1) (point mass at 0 + (r/K) mu)."""
    q = _rate_per_factor(r, K)
    zero = certificate_of(mu.structure).zero
    return mix([1.0 / (1.0 + q), q / (1.0 + q)], [dirac(mu.structure, zero), mu])


def exp_approx_error(mu: Measure, r: float, K: int, tol: float) -> float:
    """Total variation between the K-fold power of the approximate root and
    the exponential computed to tolerance tol."""
    lam = lambda_for(mu, r, K)
    return tv_distance(conv_power(lam, K), conv_exp(mu, r, tol))


def extract_jump(lam: Measure, r: float, K: int) -> Measure:
    """Invert the approximate-root map: recover nu with lambda_for(nu, r, K) = lam.

    Requires lam to put mass at least (1 + r/K)^(-1) at the neutral element
    (up to 1e-12 slack). Off-zero weights scale by (1 + K/r); the weight at
    zero is recovered as the complement, which avoids a subtraction that
    would amplify rounding by K/r.
    """
    if not (math.isfinite(r) and r > 0):
        raise MeasureError(f"rate must be finite and positive, got {r}")
    q = _rate_per_factor(r, K)
    scale = 1.0 + K / r
    if scale == math.inf:  # inf * 0 would turn the weights at 0 into nan
        raise MeasureError(f"rate {r} is too small for K = {K}: the jump weights' scale 1 + K/r overflows")
    zero = certificate_of(lam.structure).zero
    required = 1.0 / (1.0 + q)
    deficit = required - float(lam.weights[zero])
    if deficit > 1e-12:
        raise ConcentrationError(deficit)
    w = scale * lam.weights
    w[zero] = 0.0
    w[zero] = max(0.0, 1.0 - math.fsum(w.tolist()))
    return _from_raw(lam.structure, w)


def check_concentration(mu: Measure, lam: Measure, r: float, K: int, eps: float) -> ConcentrationReport:
    """Check the three concentration conditions; failures are reported, not
    raised. A ratio exp(r) / (1 + r/K)^K past the float range is refused."""
    q = _rate_per_factor(r, K)
    if not (math.isfinite(eps) and eps >= 0):
        raise MeasureError(f"eps must be finite and non-negative, got {eps}")
    try:
        ratio = math.exp(r - K * math.log1p(q))
    except OverflowError as exc:
        raise MeasureError(f"the ratio exp(r) / (1 + r/K)^K overflows a float at r = {r}, K = {K}") from exc
    scalar = ConditionCheck("exp_ratio_near_one", abs(ratio - 1.0), float(eps), abs(ratio - 1.0) <= eps)
    event_err = tv_distance(mu, conv_power(lam, K))
    events = ConditionCheck("event_error_within_inverse_K", event_err, 1.0 / K, event_err <= 1.0 / K)
    zero = certificate_of(lam.structure).zero
    required = 1.0 / (1.0 + q)
    mass = float(lam.weights[zero])
    mass_ok = ConditionCheck("mass_at_zero", mass, required, mass >= required - 1e-12)
    return ConcentrationReport((scalar, events, mass_ok))


# --- exponential fitting -----------------------------------------------------

def _exp_objective(cert: SemigroupCertificate, target_w, r, tol_exp):
    def objective(w):
        e = _normalised(_exps_raw(cert, w, [r], tol_exp)[0])
        d = e - target_w
        return (*_residuals(d), lambda: r * _correlate_raw(cert, e, d))

    return objective


def _rate_grid(r_max: float) -> list[float]:
    """The coarse rates of the fit: 0, and 32 even and 32 geometric steps to r_max."""
    linear = np.linspace(0.0, r_max, 32)
    geometric = np.geomspace(max(r_max * 1e-3, 1e-12), r_max, 32)
    return sorted(set([0.0] + linear.tolist() + geometric.tolist()))


def fit_levy_khintchine(
    target: Measure, cfg: SolverConfig | None = None, r_max: float = FIT_R_MAX
) -> LevyKhintchineFit:
    """Best exponential approximation of the target: rate on a refined grid
    over [0, r_max], jump measure by simplex descent at each rate.

    The fit reports what it found; it never claims the exponential
    representation exists. The (rate, jump) pair is generally not
    identifiable even for exact fits, so only the residual is canonical.
    """
    cfg = cfg or SolverConfig()
    if not (math.isfinite(r_max) and 0 < r_max <= _SERIES_MAX_RATE):
        raise MeasureError(f"r_max must be finite and in (0, {_SERIES_MAX_RATE}], got {r_max}")
    s = target.structure
    cert = certificate_of(s)
    m = target.size
    tol_exp = cfg.tol_residual / 10.0
    rng = np.random.default_rng(cfg.seed)
    uni = uniform(s).weights.copy()

    def solve_at(r, inits, iters):
        tv, _, w = _descents(_exp_objective(cert, target.weights, r, tol_exp), inits, iters, cfg.tol_residual)[0]
        return tv, w

    best_tv, best_r, best_w = math.inf, 0.0, uni
    warm = uni
    coarse = _rate_grid(r_max)
    for r in coarse:
        tv, w = solve_at(r, [warm, uni], max(60, cfg.max_iters // 50))
        warm = w
        if tv < best_tv:
            best_tv, best_r, best_w = tv, r, w
        if best_tv <= cfg.tol_residual:
            break

    if best_tv > cfg.tol_residual:
        half = 2.0 * r_max / max(len(coarse) - 1, 1)
        for _ in range(3):
            lo, hi = max(0.0, best_r - half), min(r_max, best_r + half)
            for r in np.linspace(lo, hi, 17):
                tv, w = solve_at(float(r), [best_w, uni], max(200, cfg.max_iters // 8))
                if tv < best_tv:
                    best_tv, best_r, best_w = tv, float(r), w
            half /= 4.0
            if best_tv <= cfg.tol_residual:
                break

    if best_tv > cfg.tol_residual:
        polish = [best_w, uni, target.weights.copy()]
        while len(polish) < max(4, cfg.restarts // 2):
            polish.append(rng.dirichlet(np.ones(m)))
        tv, w = solve_at(best_r, polish, cfg.max_iters)
        if tv < best_tv:
            best_tv, best_w = tv, w

    jump = _from_raw(s, best_w)
    residual = tv_distance(conv_exp(jump, best_r, tol_exp), target)
    return LevyKhintchineFit(rate=best_r, jump=jump, residual=residual)
