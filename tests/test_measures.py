import math
import sys
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finconv as fc
from finconv import catalog
from finconv.errors import MeasureError, NotCertifiedError, StructureMismatchError
from finconv.measures import SUM_TOL, _series_raw, _squaring_raw
from finconv.structures import certificate_of
from helpers import (
    certified,
    cyclic_exp_oracle,
    direct_series_exp,
    iterative_power,
    random_formula,
    random_measure,
    random_semigroup,
)


# --- constructors -------------------------------------------------------------

def test_measure_rejects_non_numeric_weights(c2):
    for bad in ("abc", [{"a": 1}, 0.5], ["x", "y"]):
        with pytest.raises(MeasureError, match="weights must be numbers"):
            fc.measure(c2, bad)


def test_dirac_basic(c2):
    assert fc.dirac(c2, 0).weights.tolist() == [1.0, 0.0]
    with pytest.raises(MeasureError):
        fc.dirac(c2, 2)


def test_dirac_event_indicator():
    rng = np.random.default_rng(21)
    for _ in range(100):
        s = random_semigroup(rng, max_m=6)
        f = random_formula(rng, s)
        event = fc.definable_set(s, f, "x")
        a = int(rng.integers(s.size))
        expected = 1.0 if event[a] else 0.0
        assert fc.measure_of_event(fc.dirac(s, a), event) == expected


def test_measure_validation(c2):
    with pytest.raises(MeasureError):
        fc.measure(c2, [0.7, -0.3])
    with pytest.raises(MeasureError):
        fc.measure(c2, [0.7, 0.2])
    mu = fc.measure(c2, [0.5 + 2e-10, 0.5])
    assert math.fsum(mu.weights.tolist()) == pytest.approx(1.0, abs=1e-15)


def former_measure(weights):
    """measure()'s weights, or its error message, as it clamped and divided
    on its own before it returned through the normaliser internal results use."""
    w = np.array(weights, dtype=np.float64)
    if (w < 0).any():
        worst = float(w.min())
        if worst < -SUM_TOL:
            return f"negative weight {worst}"
        w = np.maximum(w, 0.0)
    total = math.fsum(w.tolist())
    if not (1 - SUM_TOL <= total <= 1 + SUM_TOL):
        return f"weights sum to {total}, not 1 within {SUM_TOL}"
    return (w / total).tobytes()


def measure_outcome(s, weights):
    try:
        return fc.measure(s, weights).weights.tobytes()
    except MeasureError as exc:
        return str(exc)


SPECIAL_WEIGHTS = [0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1 + 1e-9, 2e-10, -0.5, math.nan, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SPECIAL_WEIGHTS) | st.floats(0, 1), min_size=4, max_size=4))
def test_measure_keeps_its_former_bits_and_messages(weights):
    # two readings differ by design: a NaN no longer hides a negative weight
    # from the negativity check, and a weight in [-SUM_TOL, 0) is now summed
    # before the normaliser clamps it (the test below)
    assume(not (any(math.isnan(w) for w in weights) and any(w < 0 for w in weights)))
    s = catalog.cyclic_group(4)
    assert measure_outcome(s, weights) == former_measure(weights)


def test_measure_clamps_fuzz_to_its_former_bits(c2):
    rng = np.random.default_rng(16)
    s = catalog.cyclic_group(5)
    for _ in range(200):
        w = rng.dirichlet(np.ones(5))
        k, fuzz = rng.integers(5), rng.uniform(0, SUM_TOL / 4)
        w[(k + 1) % 5] += w[k] + fuzz  # moves w[k]'s mass, so the sum stays 1
        w[k] = -fuzz
        outcome = measure_outcome(s, w)
        assert isinstance(outcome, bytes) and outcome == former_measure(w)
    for weights in ([-SUM_TOL, 1.0], [1.0, -0.0], [0.5 + SUM_TOL / 2, 0.5 - SUM_TOL / 4]):
        assert measure_outcome(c2, weights) == former_measure(weights)
    # a negative weight is reported even where a NaN sits beside it
    assert measure_outcome(c2, [math.nan, -1.0]) == "negative weight -1.0"


def test_mix_examples(c2):
    d0, d1 = fc.dirac(c2, 0), fc.dirac(c2, 1)
    assert fc.mix([0.5, 0.5], [d0, d1]).weights.tolist() == [0.5, 0.5]
    mu = fc.measure(c2, [0.25, 0.75])
    assert fc.mix([1.0], [mu]).weights.tolist() == mu.weights.tolist()
    assert fc.mix([0.3, 0.7], [d0, d1]).weights.tolist() == pytest.approx([0.3, 0.7], abs=1e-15)


def test_mix_errors(c2, j2):
    d0 = fc.dirac(c2, 0)
    with pytest.raises(MeasureError):
        fc.mix([0.5, 0.5], [d0])
    with pytest.raises(StructureMismatchError):
        fc.mix([0.5, 0.5], [d0, fc.dirac(j2, 0)])
    with pytest.raises(MeasureError):
        fc.mix([1.5, -0.5], [d0, d0])


# --- convolution ----------------------------------------------------------------

def test_convolve_point_masses(c2):
    out = fc.convolve(fc.dirac(c2, 1), fc.dirac(c2, 1))
    assert out.weights.tolist() == [1.0, 0.0]


def test_convolve_neutral_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        s = random_semigroup(rng, max_m=12)
        mu = random_measure(s, rng)
        out = fc.convolve(mu, fc.dirac(s, s.certificate.zero))
        assert np.abs(out.weights - mu.weights).max() <= 1e-15


def test_convolve_square_on_chain(j2):
    mu = fc.measure(j2, [0.4, 0.6])
    out = fc.convolve(mu, mu)
    assert out.weights == pytest.approx([0.16, 0.84], abs=1e-15)


def test_convolve_matches_integral_over_translates():
    # (mu * nu)(E) equals the nu-average of mu over the preimages of E
    # under translation, which is how the product is defined on events
    rng = np.random.default_rng(29)
    for _ in range(50):
        s = random_semigroup(rng, max_m=10)
        table = s.certificate.add_table
        mu, nu = random_measure(s, rng), random_measure(s, rng)
        event = rng.random(s.size) < 0.5
        direct = fc.measure_of_event(fc.convolve(mu, nu), event)
        averaged = math.fsum(
            float(nu.weights[y]) * fc.measure_of_event(mu, event[table[:, y]])
            for y in range(s.size)
        )
        assert direct == pytest.approx(averaged, abs=1e-12)


def test_convolve_requires_certificate():
    s = catalog.cyclic_group(3)  # not yet verified
    mu = fc.measure(s, [0.2, 0.3, 0.5])
    with pytest.raises(NotCertifiedError):
        fc.convolve(mu, mu)
    broken = catalog.from_add_table([[0, 0], [1, 1]])  # a failing certificate is not installed
    assert not fc.verify_semigroup(broken).passed
    nu = fc.measure(broken, [0.5, 0.5])
    with pytest.raises(NotCertifiedError):
        fc.convolve(nu, nu)


def test_convolve_structure_mismatch(c2, j2):
    with pytest.raises(StructureMismatchError):
        fc.convolve(fc.dirac(c2, 0), fc.dirac(j2, 0))


def test_convolve_rejects_same_symbols_with_another_semigroup():
    # equal universes and symbol tables, but one adds by xor and one by max
    functions = {
        "add": fc.FunctionSymbol(2, np.array([[0, 1], [1, 0]])),
        "other": fc.FunctionSymbol(2, np.array([[0, 1], [1, 1]])),
    }
    by_xor = certified(fc.FiniteStructure(2, functions, semigroup={"function": "add"}))
    by_max = certified(fc.FiniteStructure(2, functions, semigroup={"function": "other"}))
    a, b = fc.dirac(by_xor, 1), fc.dirac(by_max, 1)
    with pytest.raises(StructureMismatchError):
        fc.convolve(a, b)
    with pytest.raises(StructureMismatchError):
        fc.convolve(b, a)


def test_translate(c2, j2):
    mu = fc.measure(c2, [0.3, 0.7])
    assert fc.translate(mu, 1).weights == pytest.approx([0.7, 0.3], abs=1e-15)
    assert fc.translate(mu, 0).weights.tolist() == mu.weights.tolist()
    rng = np.random.default_rng(8)
    for _ in range(10):
        nu = random_measure(j2, rng)
        assert fc.tv_distance(fc.translate(nu, 1), fc.dirac(j2, 1)) <= 1e-15
    for _ in range(10):
        s = random_semigroup(rng, max_m=9)
        nu = random_measure(s, rng)
        a = int(rng.integers(s.size))
        direct = fc.convolve(nu, fc.dirac(s, a))
        assert fc.tv_distance(fc.translate(nu, a), direct) <= 1e-15


def test_conv_power_examples(c2, j2):
    mu = fc.measure(c2, [0.5, 0.5])
    assert fc.conv_power(mu, 0).weights.tolist() == [1.0, 0.0]
    for n in range(1, 11):
        assert fc.conv_power(mu, n).weights == pytest.approx([0.5, 0.5], abs=1e-15)
        brute = iterative_power(mu, n)
        assert fc.tv_distance(fc.conv_power(mu, n), brute) <= 1e-14
    half = fc.measure(j2, [0.5, 0.5])
    assert fc.conv_power(half, 2).weights == pytest.approx([0.25, 0.75], abs=1e-15)
    with pytest.raises(MeasureError):
        fc.conv_power(mu, -1)


def test_conv_power_matches_iteration_on_zoo():
    rng = np.random.default_rng(17)
    for _ in range(25):
        s = random_semigroup(rng, max_m=10)
        mu = random_measure(s, rng)
        n = int(rng.integers(0, 9))
        assert fc.tv_distance(fc.conv_power(mu, n), iterative_power(mu, n)) <= 1e-13


# --- exponentials -----------------------------------------------------------------

def test_conv_exp_rate_zero(z8):
    rng = np.random.default_rng(1)
    mu = random_measure(z8, rng)
    unit = fc.dirac(z8, 0).weights.tobytes()
    assert fc.conv_exp(mu, 0.0, 1e-9).weights.tobytes() == unit
    assert fc.conv_power(mu, 0).weights.tobytes() == unit


def test_conv_exp_analytic_c2(c2):
    out = fc.conv_exp(fc.dirac(c2, 1), 1.0, 1e-9)
    expected = (math.exp(-1) * math.cosh(1), math.exp(-1) * math.sinh(1))
    assert out.weights == pytest.approx(expected, abs=1e-9)
    series = direct_series_exp(fc.dirac(c2, 1), 1.0)
    assert out.weights == pytest.approx(series, abs=1e-9)


def test_conv_exp_closed_form_chain(j2):
    r = math.log(2)
    out = fc.conv_exp(fc.dirac(j2, 1), r, 1e-9)
    assert out.weights == pytest.approx([0.5, 0.5], abs=1e-9)


def test_conv_exp_parameter_errors(c2):
    d1 = fc.dirac(c2, 1)
    with pytest.raises(MeasureError):
        fc.conv_exp(d1, -0.5, 1e-9)
    with pytest.raises(MeasureError):
        fc.conv_exp(d1, 1.0, 0.0)


def test_conv_exps_squaring_matches_single_calls(z8):
    # rates above 700 run the squaring scheme, the others share one series chain
    mu = random_measure(z8, np.random.default_rng(15))
    rates = [2.0, 900.0, 0.0, 700.0, 7.5, 1200.0]
    many = fc.conv_exps(mu, rates, 1e-10)
    assert many[2].weights.tolist() == fc.dirac(z8, 0).weights.tolist()
    for r, got in zip(rates, many):
        assert got.weights.tobytes() == fc.conv_exp(mu, r, 1e-10).weights.tobytes()


def test_conv_exp_truncation_meets_tolerance(z8):
    rng = np.random.default_rng(4)
    mu = random_measure(z8, rng)
    for tol in (1e-6, 1e-9, 1e-12):
        out = fc.conv_exp(mu, 2.0, tol)
        reference = direct_series_exp(mu, 2.0, terms=120)
        assert 0.5 * np.abs(out.weights - reference).sum() <= tol


def test_conv_exp_squaring_matches_series(z8):
    # conv_exp squares only above rate 700; the scheme is checked below it here
    rng = np.random.default_rng(14)
    mu = random_measure(z8, rng)
    cert = certificate_of(z8)
    for r in (0.5, 2.0, 7.5):
        a = _series_raw(cert, mu.weights, [r], 1e-10)[0]
        b = _squaring_raw(cert, mu.weights, r, 1e-10)
        assert fc.tv_distance(fc.measure(z8, a), fc.measure(z8, b)) <= 2e-10


@pytest.mark.parametrize("kind, m", [("cyclic", 2), ("cyclic", 3), ("chain", 3), ("cyclic", 256)])
def test_huge_powers_and_rates_reach_the_limit(kind, m):
    # a square also squares its mass's rounding drift; unchecked, that drift
    # overflowed to NaN past 2^62 squarings or so
    s = certified(catalog.cyclic_group(m) if kind == "cyclic" else catalog.chain_semilattice(m))
    mu = fc.measure(s, np.random.default_rng(m).dirichlet(np.ones(m)))
    limit = np.full(m, 1.0 / m) if kind == "cyclic" else fc.dirac(s, m - 1).weights
    for n in (2**64 - 1, 2**70 - 1, 2**4000 - 1):
        assert fc.conv_power(mu, n).weights == pytest.approx(limit, abs=1e-12)
    for r in (1e20, 1e300, sys.float_info.max):
        assert fc.conv_exp(mu, r, 1e-9).weights == pytest.approx(limit, abs=1e-12)


def test_conv_exp_character_transform_oracle():
    for m in (2, 4, 8):
        s = certified(catalog.cyclic_group(m))
        rng = np.random.default_rng(m)
        mu = random_measure(s, rng)
        for r in (0.5, 1.0, 2.0):
            ours = fc.conv_exp(mu, r, 1e-12)
            oracle = cyclic_exp_oracle(mu, r)
            assert fc.tv_distance(ours, oracle) <= 1e-9


# --- metric and events ----------------------------------------------------------

def test_tv_examples(c2):
    mu = fc.measure(c2, [0.5, 0.5])
    assert fc.tv_distance(mu, mu) == 0.0
    assert fc.tv_distance(fc.dirac(c2, 0), fc.dirac(c2, 1)) == 1.0
    nu = fc.measure(c2, [0.6, 0.4])
    assert fc.tv_distance(mu, nu) == pytest.approx(0.1, abs=1e-15)


def test_measure_of_event_bounds(z8):
    rng = np.random.default_rng(2)
    mu = random_measure(z8, rng)
    assert fc.measure_of_event(mu, np.ones(8, dtype=bool)) == pytest.approx(1.0, abs=1e-15)
    assert fc.measure_of_event(mu, np.zeros(8, dtype=bool)) == 0.0


def test_tv_equals_supremum_over_events():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = random_semigroup(rng, max_m=8)
        mu, nu = random_measure(s, rng), random_measure(s, rng)
        eps = fc.tv_distance(mu, nu)
        worst = 0.0
        for bits in iproduct([False, True], repeat=s.size):
            event = np.array(bits)
            p, q = fc.measure_of_event(mu, event), fc.measure_of_event(nu, event)
            comp_p = fc.measure_of_event(mu, ~event)
            comp_q = fc.measure_of_event(nu, ~event)
            # complement identity, hence one-sided bounds are two-sided
            assert p - q == pytest.approx(comp_q - comp_p, abs=1e-12)
            assert p <= q + eps + 1e-12
            worst = max(worst, p - q)
        assert worst == pytest.approx(eps, abs=1e-12)


# --- algebra laws over the zoo ----------------------------------------------------

def test_simplex_preservation():
    rng = np.random.default_rng(31)
    count = 0
    while count < 1000:
        s = random_semigroup(rng, max_m=16)
        mu, nu = random_measure(s, rng), random_measure(s, rng)
        outs = [
            fc.convolve(mu, nu),
            fc.conv_power(mu, int(rng.integers(0, 6))),
            fc.conv_exp(mu, float(rng.uniform(0, 2)), 1e-9),
            fc.mix([0.25, 0.75], [mu, nu]),
        ]
        for out in outs:
            assert (out.weights >= 0).all()
            assert abs(math.fsum(out.weights.tolist()) - 1.0) <= 1e-12
        count += len(outs)


def test_commutativity_coordinatewise():
    rng = np.random.default_rng(32)
    for _ in range(200):
        s = random_semigroup(rng, max_m=16)
        mu, nu = random_measure(s, rng), random_measure(s, rng)
        a = fc.convolve(mu, nu).weights
        b = fc.convolve(nu, mu).weights
        assert np.abs(a - b).max() <= 1e-12


def test_associativity():
    rng = np.random.default_rng(33)
    for _ in range(200):
        s = random_semigroup(rng, max_m=16)
        mu, nu, lam = (random_measure(s, rng) for _ in range(3))
        left = fc.convolve(fc.convolve(mu, nu), lam)
        right = fc.convolve(mu, fc.convolve(nu, lam))
        assert fc.tv_distance(left, right) <= 1e-12


def test_distributivity_over_mixtures():
    rng = np.random.default_rng(34)
    for _ in range(200):
        s = random_semigroup(rng, max_m=16)
        mu, nu, lam = (random_measure(s, rng) for _ in range(3))
        r = float(rng.uniform())
        left = fc.convolve(fc.mix([r, 1 - r], [mu, nu]), lam)
        right = fc.mix([r, 1 - r], [fc.convolve(mu, lam), fc.convolve(nu, lam)])
        assert fc.tv_distance(left, right) <= 1e-12


def test_exponential_semigroup_law(z8):
    tol = 1e-9
    rng = np.random.default_rng(35)
    mu = random_measure(z8, rng)
    for r, s_rate in iproduct((0.0, 0.5, 1.0, 2.0), repeat=2):
        left = fc.convolve(fc.conv_exp(mu, r, tol), fc.conv_exp(mu, s_rate, tol))
        right = fc.conv_exp(mu, r + s_rate, tol)
        assert fc.tv_distance(left, right) <= 2 * tol


def test_exponential_root_law(j3):
    tol = 1e-9
    rng = np.random.default_rng(36)
    mu = random_measure(j3, rng)
    for n in (2, 3, 4, 8):
        for r in (0.5, 1.0, 2.0):
            root = fc.conv_exp(mu, r / n, tol)
            assert fc.tv_distance(fc.conv_power(root, n), fc.conv_exp(mu, r, tol)) <= (n + 1) * tol


def test_degenerate_single_element():
    s = certified(catalog.cyclic_group(1))
    mu = fc.measure(s, [1.0])
    assert fc.convolve(mu, mu).weights.tolist() == [1.0]
    assert fc.conv_power(mu, 7).weights.tolist() == [1.0]
    assert fc.conv_exp(mu, 3.0, 1e-9).weights.tolist() == [1.0]
    assert fc.tv_distance(mu, fc.dirac(s, 0)) == 0.0
