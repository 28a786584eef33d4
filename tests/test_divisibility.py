import math
from itertools import product as iproduct

import numpy as np
import pytest

import finconv as fc
from finconv import catalog, divisibility
from finconv.errors import ConcentrationError, FinconvError, MeasureError
from finconv.structures import certificate_of
from helpers import (
    certified,
    conditioned_chain_root,
    fd_tangent_gradient,
    interior_measure,
    random_measure,
    random_semigroup,
)


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

    for name in ("_convolve_raw", "_powers_raw"):
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
