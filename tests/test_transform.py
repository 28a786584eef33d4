"""The semicharacter transform and the exponentials taken through it.

The transform serves Clifford monoids, unions of groups: here a random zoo
of cyclic groups, chains and their products of up to three factors, each
possibly relabelled, with m <= 32. Its exponentials are checked against
the Poisson series and the squaring scheme that other monoids keep, which
remain the reference; capped addition, which is no union of groups, must
be refused and keep the series' bytes.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv as fc
from finconv import catalog
from finconv.errors import MeasureError
from finconv.measures import (
    _normalised,
    _series_raw,
    _squaring_raw,
    _transform_exps_raw,
    _tv_raw,
)
from finconv.structures import certificate_of
from helpers import capped_addition, catalog_monoid, certified

SETTINGS = settings(max_examples=40, deadline=None)
RATES = (0.3, 7.0, 150.0, 699.0, 701.0, 5000.0)


@st.composite
def clifford_monoids(draw):
    """A product of one to three cyclic groups or chains with at most 32
    elements, relabelled unless the drawn seed is negative."""
    factors, m = [], 1
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, max(1, 32 // m)))
        factors.append(certified(catalog.cyclic_group(n) if draw(st.booleans()) else catalog.chain_semilattice(n)))
        m *= n
    s = factors[0]
    for f in factors[1:]:
        s = certified(catalog.product_of(s, f))
    seed = draw(st.integers(-1, 2**16))
    if seed >= 0:
        s = certified(catalog.relabeled(s, np.random.default_rng(seed).permutation(s.size)))
    return s


@st.composite
def clifford_measures(draw):
    s = draw(clifford_monoids())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    w = rng.dirichlet(np.ones(s.size))
    if draw(st.booleans()):
        w[rng.random(s.size) < 0.5] = 0.0  # sparse supports: semicharacters that are 1 on the whole support
        w[int(rng.integers(s.size))] += 1.0
        w /= w.sum()
    return fc.measure(s, w)


def reference_exp(cert, w, r):
    """The series below rate 700 and the squaring scheme above, at tol 1e-13."""
    raw = _series_raw(cert, w, [r], 1e-13)[0] if r <= 700 else _squaring_raw(cert, w, r, 1e-13)
    return _normalised(raw)


@SETTINGS
@given(clifford_measures())
def test_transform_matches_the_series(mu):
    cert = certificate_of(mu.structure)
    assert cert.semicharacters is not None
    for r, got in zip(RATES, fc.conv_exps(mu, RATES, 1e-13)):
        assert _tv_raw(got.weights, reference_exp(cert, mu.weights, r))[0] <= 1e-12, r


@SETTINGS
@given(clifford_measures(), st.lists(st.sampled_from((0.0, 1e-300, 0.5, 3.0, 700.0, 1e5, 1e300)), max_size=5))
def test_rates_keep_their_single_call_bits(mu, rates):
    together = fc.conv_exps(mu, rates, 1e-9)
    for r, got in zip(rates, together):
        assert got.weights.tobytes() == fc.conv_exp(mu, r, 1e-9).weights.tobytes()


@SETTINGS
@given(clifford_measures())
def test_rate_zero_is_the_point_mass(mu):
    unit = fc.dirac(mu.structure, certificate_of(mu.structure).zero)
    assert fc.conv_exp(mu, 0.0, 1e-9).weights.tobytes() == unit.weights.tobytes()


def _check_multiplicative_and_invertible(s, seed):
    """The transform of a point mass lists chi(x) over the semicharacters
    chi: chi(x + y) = chi(x) chi(y), and the inverse gives every vector back."""
    cert = certificate_of(s)
    sc = cert.semicharacters
    rng = np.random.default_rng(seed)
    x, y = (int(v) for v in rng.integers(s.size, size=2))
    points = sc.forward(np.eye(s.size)[[x, y, cert.add_table[x, y]]])
    assert np.abs(points[0] * points[1] - points[2]).max() <= 1e-12
    w = rng.standard_normal(s.size)
    assert np.abs(sc.inverse(sc.forward(w[None, :])[0]) - w).max() <= 1e-12


@SETTINGS
@given(clifford_monoids(), st.integers(0, 2**16))
def test_transform_is_multiplicative_and_invertible(s, seed):
    _check_multiplicative_and_invertible(s, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind,a,b,perm_seed", [("cyclic", 256, 0, -1), ("product", 16, 16, 5), ("chain", 256, 0, 5)])
def test_transform_is_multiplicative_and_invertible_at_m256(kind, a, b, perm_seed, seed):
    """The zoo above stops at m = 32; the benchmark's monoids are Z256, the
    relabelled Z16 x J16 and the relabelled J256."""
    _check_multiplicative_and_invertible(catalog_monoid(kind, a, b, perm_seed), seed)


def _real_columns(s):
    """The semicharacters whose values chi(x), read off the transforms of
    the point masses, have no imaginary part beyond rounding: the FFT
    leaves up to 1.1e-16 on Z10 or Z18, while a complex chi of order n
    takes a value of imaginary part sin(2 pi / n) or more."""
    sc = certificate_of(s).semicharacters
    return (np.abs(sc.forward(np.eye(s.size)).imag) <= 1e-12).all(axis=0)


@SETTINGS
@given(clifford_monoids())
def test_real_mask_marks_the_real_semicharacters(s):
    assert certificate_of(s).semicharacters.real.tolist() == _real_columns(s).tolist()


@pytest.mark.parametrize("kind,a,b,perm_seed", [("cyclic", 256, 0, -1), ("product", 16, 16, 5)])
def test_real_mask_marks_the_real_semicharacters_at_m256(kind, a, b, perm_seed):
    s = catalog_monoid(kind, a, b, perm_seed)
    real = certificate_of(s).semicharacters.real
    assert real.tolist() == _real_columns(s).tolist()
    assert real.sum() == (2 if kind == "cyclic" else 2 * 16)  # Z256: 0 and 128; Z16 x J16: two per group


@SETTINGS
@given(clifford_monoids())
def test_cached_state_holds_no_square_matrix(s):
    """Besides the certificate's own table, every array is a vector of at
    most m entries or of the Moebius step's nonzeros."""
    sc = certificate_of(s).semicharacters
    for name, value in vars(sc).items():
        if isinstance(value, np.ndarray) and name != "add_table":
            assert value.ndim == 1, name
    assert np.shares_memory(sc.add_table, certificate_of(s).add_table)


def test_diamond_lattice_takes_the_transform():
    """M3, a bottom, three atoms and a top under join: moebius(bottom, top)
    is 2, so it is no product of chains."""
    join = np.array([[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4], [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]])
    s = certified(catalog.from_add_table(join))
    cert = certificate_of(s)
    assert cert.semicharacters is not None
    assert sorted(cert.semicharacters.moebius_coef.tolist()) == [-1.0] * 6 + [1.0] * 5 + [2.0]
    mu = fc.measure(s, np.random.default_rng(4).dirichlet(np.ones(5)))
    for r, got in zip(RATES, fc.conv_exps(mu, RATES, 1e-13)):
        assert _tv_raw(got.weights, reference_exp(cert, mu.weights, r))[0] <= 1e-12, r


def test_certification_builds_neither_transform_nor_division_table():
    cert = fc.verify_semigroup(catalog.cyclic_group(16))
    assert "semicharacters" not in vars(cert) and "_ldiv" not in vars(cert)


def test_capped_addition_keeps_the_series_bytes():
    s = capped_addition(4)
    cert = certificate_of(s)
    assert cert.semicharacters is None
    mu = fc.measure(s, np.random.default_rng(5).dirichlet(np.ones(5)))
    for r in (0.0, 0.5, 20.0, 900.0):
        raw = _series_raw(cert, mu.weights, [r], 1e-9)[0] if r <= 700 else _squaring_raw(cert, mu.weights, r, 1e-9)
        assert fc.conv_exp(mu, r, 1e-9).weights.tobytes() == _normalised(raw).tobytes()


def test_transform_exponentials_reach_the_exact_chain_values():
    """On a chain the exponential is exp(r(F - 1)) on the distribution
    function F; checked in exact arithmetic at 50 digits. The transform's
    rounding, of order m * eps, is multiplied by r in the exponent."""
    s = certified(catalog.chain_semilattice(6))
    w = np.random.default_rng(11).dirichlet(np.ones(6))
    mu = fc.measure(s, w)
    for r in (0.3, 7.0, 150.0):
        with localcontext() as ctx:
            ctx.prec = 50
            cdf = [Decimal(0)]
            for v in mu.weights.tolist():
                cdf.append(cdf[-1] + Decimal(v))
            exact = [(Decimal(r) * (c - 1)).exp() for c in cdf[1:]]
            exact = [b - a for a, b in zip([Decimal(0)] + exact, exact)]
        got = _transform_exps_raw(certificate_of(s), mu.weights, [r])[0]
        error = math.fsum(abs(float(Decimal(g) - e)) for g, e in zip(got.tolist(), exact))
        assert error <= (1 + r) * s.size * np.finfo(float).eps, r


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 13: a tol below the transform's rounding floor is accepted"
)
def test_transform_exponential_meets_or_refuses_a_tolerance_below_its_rounding_floor():
    """On the Boolean lattice J2^7 (bitwise OR on 7 bits) the exponential is
    the Moebius inverse of exp(r(Z - 1)), Z the zeta transform of mu; checked
    at 50 digits. The transform's rounding leaves it about 5e-15 away in
    total variation, so tol = 1e-16 cannot be met: it must be refused, yet
    it is accepted."""
    i = np.arange(128)
    s = certified(catalog.from_add_table(i[:, None] | i[None, :]))
    mu = fc.measure(s, np.random.default_rng(11).dirichlet(0.3 * np.ones(128)))
    try:
        got = fc.conv_exp(mu, 0.5, tol=1e-16)
    except MeasureError:
        return
    with localcontext() as ctx:
        ctx.prec = 50
        z = [Decimal(v) for v in mu.weights.tolist()]
        for bit in range(7):  # zeta: z[S] = mu of the subsets of S
            for S in range(128):
                if S >> bit & 1:
                    z[S] += z[S ^ 1 << bit]
        exact = [(Decimal("0.5") * (v - 1)).exp() for v in z]
        for bit in range(7):  # Moebius inversion of the zeta step above
            for S in range(128):
                if S >> bit & 1:
                    exact[S] -= exact[S ^ 1 << bit]
    tv = math.fsum(abs(float(Decimal(g) - e)) for g, e in zip(got.weights.tolist(), exact)) / 2
    assert tv <= 1e-16
