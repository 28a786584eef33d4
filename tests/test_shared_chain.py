"""Bit-identity of the shared power chains against their single-call forms.

conv_exps and conv_powers walk one chain for many rates or exponents, and
the path constructors use them; every result must carry exactly the bits
of the corresponding conv_exp or conv_power call.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv as fc
from finconv import catalog
from finconv.errors import MeasureError
from finconv.structures import certified_table, certified_zero
from helpers import certified

SETTINGS = settings(max_examples=30, deadline=None)


@lru_cache(maxsize=None)
def _monoid(kind: str, a: int, b: int, perm_seed: int):
    if kind == "cyclic":
        base = catalog.cyclic_group(a)
    elif kind == "chain":
        base = catalog.chain_semilattice(a)
    else:
        base = catalog.product_of(
            certified(catalog.cyclic_group(a)), certified(catalog.chain_semilattice(b))
        )
    base = certified(base)
    if perm_seed < 0:
        return base
    perm = np.random.default_rng(perm_seed).permutation(base.size)
    return certified(catalog.relabeled(base, perm))


@st.composite
def measures(draw):
    """A random measure on a catalog monoid: cyclic, chain, cyclic x chain,
    each possibly relabelled."""
    kind = draw(st.sampled_from(["cyclic", "chain", "product"]))
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 3)) if kind == "product" else 0
    perm_seed = draw(st.integers(-1, 3))
    s = _monoid(kind, a, b, perm_seed)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    w = rng.dirichlet(np.ones(s.size))
    if draw(st.booleans()):
        w[rng.random(s.size) < 0.5] = 0.0  # sparse supports exercise exact zeros
        w[int(rng.integers(s.size))] += 1.0
        w /= w.sum()
    return fc.measure(s, w)


RATES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 40.0),
    st.sampled_from([699.0, 699.999, 700.0, 700.001, 701.0, 1500.0]),
)
EXPONENTS = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 80), st.sampled_from([1023, 1024, 4099]))


def _convolve(flat, m, a, b):
    return np.bincount(flat, weights=np.multiply.outer(a, b).ravel(), minlength=m)


def one_rate_series(mu, r, tol):
    """The series loop for a single rate, one power per term, normalised as
    conv_exp normalises it."""
    flat, m = certified_table(mu.structure).ravel(), mu.size
    acc, comp, power = np.zeros(m), np.zeros(m), np.zeros(m)
    power[certified_zero(mu.structure)] = 1.0
    p, n = math.exp(-r), 0
    while True:
        term = p * power - comp
        t = acc + term
        comp = (t - acc) - term
        acc = t
        p_next = p * r / (n + 1)
        if n + 2 > r and p_next / (1.0 - r / (n + 2)) < tol / 2:
            break
        power = _convolve(flat, m, power, mu.weights)
        p, n = p_next, n + 1
    return acc / math.fsum(acc.tolist())


def one_exponent_power(mu, n):
    """Binary exponentiation for a single exponent, squares built as needed."""
    flat, m = certified_table(mu.structure).ravel(), mu.size
    result, base = None, mu.weights
    while True:
        if n & 1:
            result = base if result is None else _convolve(flat, m, result, base)
        n >>= 1
        if n == 0:
            break
        base = _convolve(flat, m, base, base)
    return result / math.fsum(result.tolist())


@SETTINGS
@given(measures(), st.floats(1e-3, 40.0), st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_conv_exp_keeps_one_rate_series_bits(mu, r, tol):
    assert fc.conv_exp(mu, r, tol).weights.tobytes() == one_rate_series(mu, r, tol).tobytes()


@SETTINGS
@given(measures(), st.integers(2, 300))
def test_conv_power_keeps_one_exponent_bits(mu, n):
    assert fc.conv_power(mu, n).weights.tobytes() == one_exponent_power(mu, n).tobytes()


@SETTINGS
@given(measures(), st.lists(RATES, max_size=6), st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_conv_exps_bit_identical_to_conv_exp(mu, rates, tol):
    rates = rates + rates[:2]  # repeats, in an order other than sorted
    out = fc.conv_exps(mu, rates, tol)
    assert len(out) == len(rates)
    for r, got in zip(rates, out):
        assert got.weights.tobytes() == fc.conv_exp(mu, r, tol).weights.tobytes()


@SETTINGS
@given(measures(), st.lists(EXPONENTS, max_size=8))
def test_conv_powers_bit_identical_to_conv_power(mu, ns):
    ns = ns + ns[:2]
    out = fc.conv_powers(mu, ns)
    assert len(out) == len(ns)
    for n, got in zip(ns, out):
        assert got.weights.tobytes() == fc.conv_power(mu, n).weights.tobytes()


@SETTINGS
@given(measures(), st.integers(1, 40))
def test_root_path_every_marginal_bit_identical(nu, n_steps):
    path = fc.levy_from_root(nu, n_steps)
    for k, mu in enumerate(path.marginals):
        assert mu.weights.tobytes() == fc.conv_power(nu, k).weights.tobytes()


@SETTINGS
@given(measures(), st.floats(0.0, 60.0), st.integers(1, 12))
def test_exponential_path_every_marginal_bit_identical(nu, r, n_steps):
    path = fc.levy_from_exponential(nu, r, fc.make_timeline("uniform_grid", n_steps), 1e-9)
    for t, mu in zip(path.timeline.ticks, path.marginals):
        assert mu.weights.tobytes() == fc.conv_exp(nu, float(t) * r, 1e-9).weights.tobytes()


def test_empty_and_invalid_requests(z8):
    mu = fc.uniform(z8)
    assert fc.conv_exps(mu, [], 1e-9) == []
    assert fc.conv_powers(mu, []) == []
    for rates, tol in (([1.0, -1.0], 1e-9), ([1.0, float("nan")], 1e-9), ([], 0.0)):
        with pytest.raises(MeasureError):
            fc.conv_exps(mu, rates, tol)
    with pytest.raises(MeasureError):
        fc.conv_powers(mu, [2, -1])
