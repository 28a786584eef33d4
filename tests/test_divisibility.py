import math
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv as fc
from finconv import catalog, divisibility, fileio
from finconv.errors import ConcentrationError, FinconvError, MeasureError
from finconv.structures import certificate_of
from helpers import (
    capped_addition,
    catalog_monoid,
    certified,
    conditioned_chain_root,
    fd_tangent_gradient,
    interior_measure,
    random_measure,
    random_semigroup,
)

GOLDEN = Path(__file__).parent / "golden"


def power_objective(target, n):
    def j(w):
        mu = fc.Measure(np.array(w), target.structure)
        d = fc.conv_power(mu, n).weights - target.weights
        return 0.5 * float(np.dot(d, d))

    return j


# --- power_gradient ------------------------------------------------------------

def test_gradient_order_one_is_residual(c2):
    nu = fc.measure(c2, [0.3, 0.7])
    target = fc.measure(c2, [0.6, 0.4])
    g = fc.power_gradient(nu, 1, target)
    assert g == pytest.approx(nu.weights - target.weights, abs=1e-15)


def test_gradient_rejects_order_zero(c2):
    with pytest.raises(MeasureError):
        fc.power_gradient(fc.dirac(c2, 0), 0, fc.dirac(c2, 0))


def test_gradient_matches_finite_differences_spec_case(c2):
    nu = fc.measure(c2, [0.5, 0.5])
    target = fc.dirac(c2, 0)
    g = fc.power_gradient(nu, 2, target)
    tangent = g - g.mean()
    fd = fd_tangent_gradient(power_objective(target, 2), nu.weights.copy())
    assert np.linalg.norm(fd - tangent) <= 1e-5 * max(np.linalg.norm(tangent), 1e-12)


def test_gradient_matches_finite_differences_random():
    rng = np.random.default_rng(77)
    for _ in range(100):
        s = random_semigroup(rng, max_m=8)
        nu = interior_measure(s, rng)
        target = random_measure(s, rng)
        n = int(rng.integers(1, 7))
        g = fc.power_gradient(nu, n, target)
        tangent = g - g.mean()
        fd = fd_tangent_gradient(power_objective(target, n), nu.weights.copy())
        scale = max(np.linalg.norm(tangent), 1e-8)
        assert np.linalg.norm(fd - tangent) <= 1e-5 * scale


def test_gradient_gives_descent_direction(j2):
    nu = fc.measure(j2, [1.0 - 1e-6, 1e-6])  # near the point mass at the bottom
    target = fc.dirac(j2, 1)
    g = fc.power_gradient(nu, 3, target)
    direction = -(g - g.mean())
    j = power_objective(target, 3)
    base = j(nu.weights)
    for eta in (1e-9, 1e-8, 1e-7):
        stepped = nu.weights + eta * direction
        assert (stepped >= 0).all()
        assert j(stepped) < base


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_power_objective_gradient_does_no_power_work(monkeypatch, j3, n):
    # the thunk reuses the (n-1)-th power and the residual of its evaluation
    calls = []

    def counted(name, kernel):
        def wrapped(*args):
            calls.append(name)
            return kernel(*args)

        return wrapped

    for name in ("_products_raw", "_powers_raw"):
        monkeypatch.setattr(divisibility, name, counted(name, getattr(divisibility, name)))
    objective = divisibility._power_objective(certificate_of(j3), np.array([0.2, 0.3, 0.5]), n)
    _, _, grad = objective(np.array([0.5, 0.25, 0.25]))
    assert calls
    calls.clear()
    grad()
    assert calls == []


# --- nth_root --------------------------------------------------------------------

def test_root_of_point_mass(c2):
    for n in (1, 2, 5):
        cert = fc.nth_root(fc.dirac(c2, 0), n)
        assert cert.residual <= 1e-12
        assert cert.verdict == "exact_within_tol"
        assert cert.best_root.weights == pytest.approx([1.0, 0.0], abs=1e-12)


def test_root_on_chain_matches_cdf_root(j2):
    target = fc.measure(j2, [0.25, 0.75])
    cert = fc.nth_root(target, 2)
    assert cert.residual <= 1e-9
    assert cert.best_root.weights == pytest.approx([0.5, 0.5], abs=1e-6)


def test_root_infeasible_on_two_torsion(c2):
    cert = fc.nth_root(fc.dirac(c2, 1), 2)
    assert cert.verdict == "infeasible_lower_bound"
    assert cert.lower_bound >= 0.5 - 1e-6
    assert cert.residual >= 0.5 - 1e-9


# Cubes conv_power(measure(J3, rng.dirichlet(ones(3))), 3), rng = default_rng(0),
# that the descent leaves above tol: each has a root by construction, so a
# residual the search reached must not pass for a lower bound.
@pytest.mark.parametrize("draw", [10, 19, 20, 26])
def test_cube_is_never_declared_infeasible(j3, draw):
    rng = np.random.default_rng(0)
    weights = [rng.dirichlet(np.ones(3)) for _ in range(draw + 1)][draw]
    target = fc.conv_power(fc.measure(j3, weights), 3)
    assert fc.nth_root(target, 3).verdict != "infeasible_lower_bound"


@st.composite
def root_targets(draw):
    """A catalog monoid with at most 32 elements, a dense or sparse target
    on it, and an even order."""
    kind = draw(st.sampled_from(["cyclic", "group", "chain", "product"]))
    a = draw(st.integers(1, 32 if kind in ("cyclic", "chain") else 8))
    b = draw(st.integers(1, max(1, 32 // a))) if kind in ("group", "product") else 0
    s = catalog_monoid(kind, a, b, draw(st.integers(-1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    w = rng.dirichlet(np.ones(s.size))
    if draw(st.booleans()):
        w[rng.random(s.size) < 0.8] = 0.0  # near point masses, where the obstructions are largest
        w[int(rng.integers(s.size))] += 1.0
        w /= w.sum()
    return fc.measure(s, w), draw(st.sampled_from([2, 4, 6])), rng


@settings(max_examples=40, deadline=None)
@given(root_targets())
def test_two_torsion_bound_is_sound(case):
    """No candidate's n-th power comes closer to the target than lower_bound:
    50 Dirichlet draws and the returned root."""
    target, n, rng = case
    cert = fc.nth_root(target, n, fc.SolverConfig(restarts=4, max_iters=200))
    if cert.lower_bound is None:
        return
    assert cert.lower_bound > 0
    candidates = [fc.measure(target.structure, w) for w in rng.dirichlet(np.ones(target.size), size=50)]
    for nu in candidates + [cert.best_root]:
        assert fc.tv_distance(fc.conv_power(nu, n), target) >= cert.lower_bound - 1e-15


@pytest.mark.parametrize("m", [4, 8])
def test_point_mass_of_a_generator_has_no_square_root(m):
    """Z4 and Z8 delta_1: chi(x) = (-1)^x has chi_hat = -1, so every square
    stays 1/2 away."""
    s = catalog_monoid("cyclic", m, 0, -1)
    cert = fc.nth_root(fc.dirac(s, 1), 2)
    assert cert.verdict == "infeasible_lower_bound"
    assert cert.lower_bound == 0.5
    assert cert.residual >= 0.5 - 1e-9


def test_lower_bound_is_none_off_clifford_monoids():
    """Capped addition min(x + y, 2) is no union of groups: no bound, so no
    infeasible verdict, whatever the target."""
    s = capped_addition(2)
    rng = np.random.default_rng(9)
    targets = [fc.dirac(s, 1), fc.dirac(s, 2)] + [fc.measure(s, w) for w in rng.dirichlet(np.ones(3), size=3)]
    for target, n in iproduct(targets, (2, 3, 4)):
        cert = fc.nth_root(target, n)
        assert cert.lower_bound is None
        assert cert.verdict != "infeasible_lower_bound"


@pytest.mark.parametrize("m,point,n", [(3, 1, 3), (8, 2, 4)])
def test_obstructions_no_real_semicharacter_sees_get_no_bound(m, point, n):
    """Z3 delta_1 at n = 3 (an odd order) and Z8 delta_2 at n = 4 (every
    real chi is 1 there) have no root, but only complex semicharacters see
    it: the bound is unknown, and the verdict stays local_minimum_only."""
    cert = fc.nth_root(fc.dirac(catalog_monoid("cyclic", m, 0, -1), point), n)
    assert cert.lower_bound is None
    assert cert.verdict == "local_minimum_only"


def test_root_certificate_residual_recomputed():
    rng = np.random.default_rng(50)
    s = random_semigroup(rng, max_m=6)
    target = random_measure(s, rng)
    cert = fc.nth_root(target, 3)
    again = fc.tv_distance(fc.conv_power(cert.best_root, cert.order), cert.target)
    assert abs(again - cert.residual) <= 1e-12
    assert cert.all_roots_found[0].weights.tolist() == cert.best_root.weights.tolist()
    for a, b in iproduct(cert.all_roots_found, repeat=2):
        if a is not b:
            assert fc.tv_distance(a, b) >= 1e-4


def test_root_non_uniqueness_reported(c2):
    # on the two-element group both point masses square to the neutral mass
    cert = fc.nth_root(fc.dirac(c2, 0), 2)
    assert cert.residual <= 1e-12
    assert len(cert.all_roots_found) >= 2
    found = [tuple(np.round(r.weights, 6)) for r in cert.all_roots_found]
    assert (1.0, 0.0) in found
    assert any(abs(w1 - 1.0) <= 1e-6 for _, w1 in found)


# --- semilattice oracle ------------------------------------------------------------

def test_oracle_examples(j2, j3):
    out = fc.semilattice_root_oracle(fc.measure(j2, [0.25, 0.75]), 2)
    assert out.weights == pytest.approx([0.5, 0.5], abs=1e-15)
    target = fc.measure(j2, [0.7, 0.3])
    assert fc.semilattice_root_oracle(target, 1).weights.tolist() == target.weights.tolist()
    root3 = fc.semilattice_root_oracle(fc.measure(j3, [0.04, 0.32, 0.64]), 2)
    assert root3.weights == pytest.approx([0.2, 0.4, 0.4], abs=1e-12)
    # verify by enumerating all nine pairs
    m = 3
    square = np.zeros(m)
    for x in range(m):
        for y in range(m):
            square[max(x, y)] += root3.weights[x] * root3.weights[y]
    assert square == pytest.approx([0.04, 0.32, 0.64], abs=1e-12)


def test_oracle_rejects_groups(c2):
    with pytest.raises(FinconvError):
        fc.semilattice_root_oracle(fc.measure(c2, [0.5, 0.5]), 2)


def test_oracle_handles_relabeled_chains():
    rng = np.random.default_rng(52)
    base = certified(catalog.chain_semilattice(5))
    s = certified(catalog.relabeled(base, rng.permutation(5)))
    root = fc.measure(s, rng.dirichlet(np.ones(5)))
    target = fc.conv_power(root, 3)
    recovered = fc.semilattice_root_oracle(target, 3)
    assert fc.tv_distance(fc.conv_power(recovered, 3), target) <= 1e-12


def test_solver_agrees_with_oracle_on_chains():
    cases = [(2, 2, 0.3), (3, 3, 0.3), (5, 8, 0.55), (8, 8, 0.55), (8, 16, 0.65)]
    for m, n, bottom in cases:
        chain = certified(catalog.chain_semilattice(m))
        rng = np.random.default_rng(100 + m * 17 + n)
        target = fc.conv_power(conditioned_chain_root(chain, rng, bottom), n)
        cert = fc.nth_root(target, n)
        oracle = fc.semilattice_root_oracle(target, n)
        oracle_residual = fc.tv_distance(fc.conv_power(oracle, n), target)
        assert oracle_residual <= 1e-12
        assert cert.residual <= oracle_residual + 1e-6
        assert fc.tv_distance(cert.best_root, oracle) <= 1e-6


# --- divisibility report -------------------------------------------------------------

def test_chain_targets_divisible(j3):
    rng = np.random.default_rng(7)
    target = fc.conv_power(conditioned_chain_root(j3, rng, 0.5), 4)
    report = fc.is_infinitely_divisible(target, 16)
    assert report.divisible
    assert report.first_failing is None
    assert set(report.certificates) == set(range(2, 17))


def test_two_torsion_not_divisible(c2):
    report = fc.is_infinitely_divisible(fc.dirac(c2, 1), 2)
    assert not report.divisible
    assert report.first_failing == 2
    assert report.certificates[2].lower_bound >= 0.5 - 1e-6


def test_exponentials_divisible(z8):
    rng = np.random.default_rng(42)
    mu = random_measure(z8, rng)
    target = fc.conv_exp(mu, 1.0, 1e-9)
    report = fc.is_infinitely_divisible(target, 8, fc.SolverConfig(tol_residual=3e-9))
    assert report.divisible
    for n, cert in report.certificates.items():
        assert cert.residual <= (n + 1) * 1e-9


# --- approximate roots of the exponential ----------------------------------------------

def test_lambda_formula(c2):
    d1 = fc.dirac(c2, 1)
    lam = fc.lambda_for(d1, 1.0, 10)
    assert lam.weights == pytest.approx([10 / 11, 1 / 11], abs=1e-15)
    assert fc.lambda_for(d1, 0.0, 7).weights.tolist() == [1.0, 0.0]
    # mass at zero meets the concentration floor, with equality when mu misses 0
    assert lam.weights[0] >= 1 / (1 + 0.1) - 1e-15
    assert lam.weights[0] == pytest.approx(1 / 1.1, abs=1e-15)
    with pytest.raises(MeasureError):
        fc.lambda_for(d1, 1.0, 0)


def test_exp_approx_error_examples(z8):
    rng = np.random.default_rng(42)
    mu = random_measure(z8, rng)
    for K in (4, 64, 1024):
        assert fc.exp_approx_error(mu, 0.0, K, 1e-9) == 0.0
    errors = {2**j: fc.exp_approx_error(mu, 1.0, 2**j, 1e-9) for j in range(6, 13)}
    for j in range(6, 12):
        assert errors[2 ** (j + 1)] <= 0.6 * errors[2**j]
    for r in (0.5, 1.0, 2.0):
        assert fc.exp_approx_error(mu, r, 2**14, 1e-9) <= 1e-3


def test_exp_approx_error_monotone(z8):
    rng = np.random.default_rng(42)
    mu = random_measure(z8, rng)
    for r in (0.5, 1.0, 2.0):
        errs = [fc.exp_approx_error(mu, r, 2**j, 1e-9) for j in range(6, 13)]
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= 1.05 * prev


def test_continuity_modulus(z8, j3):
    rng = np.random.default_rng(53)
    for s in (z8, j3):
        mu = random_measure(s, rng)
        for r in (0.5, 1.0, 2.0):
            for K in (256, 1024, 4096):
                for L in (1, K // 64, K // 16):
                    if L < 1 or r * L / K > 0.1:
                        continue
                    lam = fc.lambda_for(mu, r, K)
                    gap = fc.tv_distance(fc.conv_power(lam, K + L), fc.conv_power(lam, K))
                    assert gap <= 2 * r * L / K + 1e-9


def test_extract_jump_examples(c2):
    lam = fc.measure(c2, [10 / 11, 1 / 11])
    out = fc.extract_jump(lam, 1.0, 10)
    assert out.weights == pytest.approx([0.0, 1.0], abs=1e-12)
    d0 = fc.dirac(c2, 0)
    assert fc.extract_jump(d0, 2.0, 5).weights.tolist() == [1.0, 0.0]
    with pytest.raises(ConcentrationError) as err:
        fc.extract_jump(fc.measure(c2, [0.5, 0.5]), 1.0, 10)
    assert err.value.deficit > 0


def test_jump_round_trips():
    rng = np.random.default_rng(54)
    for _ in range(100):
        s = random_semigroup(rng, max_m=12)
        mu = random_measure(s, rng)
        r = float(rng.uniform(0.25, 2.0))
        K = int(rng.integers(1, 4097))
        lam = fc.lambda_for(mu, r, K)
        assert fc.tv_distance(fc.extract_jump(lam, r, K), mu) <= 1e-12
        again = fc.lambda_for(fc.extract_jump(lam, r, K), r, K)
        assert fc.tv_distance(again, lam) <= 1e-12


def test_round_trip_from_arbitrary_concentrated_measure():
    # identity on the whole precondition domain, not just constructed roots
    rng = np.random.default_rng(55)
    for _ in range(60):
        s = random_semigroup(rng, max_m=10)
        zero = s.certificate.zero
        r = float(rng.uniform(0.25, 2.0))
        K = int(rng.integers(1, 1025))
        floor = 1.0 / (1.0 + r / K)
        w = rng.dirichlet(np.ones(s.size)) * (1.0 - floor)
        w[zero] += floor
        lam = fc.measure(s, w)
        rebuilt = fc.lambda_for(fc.extract_jump(lam, r, K), r, K)
        assert fc.tv_distance(rebuilt, lam) <= 1e-12


def test_concentration_checks(c2):
    d1 = fc.dirac(c2, 1)
    target = fc.conv_exp(d1, 1.0, 1e-12)
    K = 2**12
    report = fc.check_concentration(target, fc.lambda_for(d1, 1.0, K), 1.0, K, 1e-3)
    assert report.passed
    small = fc.check_concentration(target, fc.lambda_for(d1, 1.0, 2), 1.0, 2, 1e-3)
    scalar = small.conditions[0]
    assert not scalar.holds
    assert scalar.value == pytest.approx(abs(math.e / 2.25 - 1.0), abs=1e-12)
    no_mass = fc.check_concentration(target, fc.dirac(c2, 1), 1.0, K, 1e-3)
    assert not no_mass.conditions[2].holds


# --- exponential fitting ---------------------------------------------------------------

def test_fit_point_mass(j2):
    fit = fc.fit_levy_khintchine(fc.dirac(j2, 0))
    assert fit.rate == 0.0
    assert fit.residual <= 1e-12


def test_fit_uniform_on_chain(j2):
    fit = fc.fit_levy_khintchine(fc.measure(j2, [0.5, 0.5]))
    assert fit.residual <= 1e-9
    # every exact representation satisfies rate * jump(top) = log 2
    assert fit.rate * fit.jump.weights[1] == pytest.approx(math.log(2), abs=1e-6)


def test_fit_recovers_exponential_on_group(c2):
    target = fc.measure(c2, [math.exp(-1) * math.cosh(1), math.exp(-1) * math.sinh(1)])
    fit = fc.fit_levy_khintchine(target)
    assert fit.residual <= 1e-6
    character = fit.jump.weights[0] - fit.jump.weights[1]
    assert fit.rate * (1 - character) == pytest.approx(2.0, abs=1e-5)


def test_fit_reports_the_residual_it_minimised():
    """On the fit_lk_j2 golden's inputs, the residual printed is the
    objective's at the returned (rate, jump), which the search ranked by."""
    s = fileio.load_model(GOLDEN / "j2.json")
    fc.verify_semigroup(s)
    target = fileio.load_measure(GOLDEN / "j2_quarter.json", s)
    cfg = fc.SolverConfig()
    fit = fc.fit_levy_khintchine(target)
    objective = divisibility._exp_objective(certificate_of(s), target.weights, fit.rate, cfg.tol_residual / 10)
    assert fit.residual <= cfg.tol_residual
    assert abs(fit.residual - objective(fit.jump.weights)[1]) <= 1e-24


def test_fit_deterministic(j2):
    target = fc.measure(j2, [0.35, 0.65])
    a = fc.fit_levy_khintchine(target, fc.SolverConfig(seed=5))
    b = fc.fit_levy_khintchine(target, fc.SolverConfig(seed=5))
    assert a.rate == b.rate
    assert a.jump.weights.tobytes() == b.jump.weights.tobytes()


def test_solver_config_validation():
    with pytest.raises(MeasureError):
        fc.SolverConfig(restarts=0)
    with pytest.raises(MeasureError):
        fc.SolverConfig(tol_residual=0.0)
    with pytest.raises(MeasureError):
        fc.SolverConfig(seed=-1)
