"""Bit-identity of the shared power chains against their single-call forms.

conv_exps and conv_powers serve many rates or exponents in one call, and
the path constructors use them; every result must carry exactly the bits
of the corresponding conv_exp or conv_power call. Likewise the products of
a (B, m) stack by one right factor, and every power chain, must give each
row the bits of the bincount reference kernel (helpers.bincount_convolve)
on it, and the descent gradient must keep the bits of its former private
loop.

On the Clifford monoids of the catalog conv_exps goes through the
semicharacter transform, which takes each rate on its own after one
forward transform. The series, which other monoids keep, multiplies by the
jump measure's right-multiplication operator rather than through the
kernel. On a group each operator cell holds one weight, so the bits are
the bincount's; on other monoids the operator adds weights before
multiplying, and the reordered additions move each product by at most
m * eps in total variation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv as fc
from finconv.divisibility import _power_objective
from finconv.errors import MeasureError
from finconv.measures import _normalised, _poisson_terms, _products_raw, _series_raw, _squaring_raw
from finconv.structures import certificate_of
from helpers import bincount_convolve, catalog_monoid

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def measures(draw):
    """A random measure on a catalog monoid: cyclic, chain, cyclic x chain,
    each possibly relabelled."""
    kind = draw(st.sampled_from(["cyclic", "chain", "product"]))
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 3)) if kind == "product" else 0
    perm_seed = draw(st.integers(-1, 3))
    s = catalog_monoid(kind, a, b, perm_seed)
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


def one_rate_series(mu, r, tol):
    """The series loop for a single rate, one power per term, normalised as
    conv_exp normalises it."""
    cert, m = certificate_of(mu.structure), mu.size
    acc, comp, power = np.zeros(m), np.zeros(m), np.zeros(m)
    power[cert.zero] = 1.0
    p, n = math.exp(-r), 0
    while True:
        term = p * power - comp
        t = acc + term
        comp = (t - acc) - term
        acc = t
        p_next = p * r / (n + 1)
        if n + 2 > r and p_next / (1.0 - r / (n + 2)) < tol / 2:
            break
        power = bincount_convolve(cert, power, mu.weights)
        p, n = p_next, n + 1
    return acc / math.fsum(acc.tolist())


def one_exponent_power(mu, n):
    """Binary exponentiation for a single exponent, squares built as needed."""
    result = raw_power(certificate_of(mu.structure), mu.weights, n)
    return result / math.fsum(result.tolist())


EPS = np.finfo(float).eps


def _is_group(s):
    """Whether every element of the finite monoid s has an inverse: each row
    of its table is a permutation."""
    table = certificate_of(s).add_table
    return all(len(set(row)) == s.size for row in table.tolist())


@SETTINGS
@given(measures(), st.one_of(st.just(0.0), st.floats(1e-3, 40.0)), st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_series_keeps_one_rate_series_bits(mu, r, tol):
    # the series that conv_exp runs on monoids the transform does not serve
    got = _normalised(_series_raw(certificate_of(mu.structure), mu.weights, [r], tol)[0])
    want = one_rate_series(mu, r, tol)
    if _is_group(mu.structure):
        assert got.tobytes() == want.tobytes()
    else:
        terms = len(_poisson_terms(r, tol))
        assert 0.5 * np.abs(got - want).sum() <= terms * mu.size * EPS


@SETTINGS
@given(measures(), st.integers(2, 300))
def test_conv_power_keeps_one_exponent_bits(mu, n):
    assert fc.conv_power(mu, n).weights.tobytes() == one_exponent_power(mu, n).tobytes()


def test_conv_powers_keep_the_bincount_chain_bits_at_m256():
    """On Z256 the squares and the products of each level go through the
    gather kernel; each power has the bytes of binary exponentiation by the
    bincount alone."""
    s = catalog_monoid("cyclic", 256, 0, -1)
    mu = fc.measure(s, np.random.default_rng(65).dirichlet(np.ones(256)))
    cert = certificate_of(s)
    for n, got in zip(range(65), fc.conv_powers(mu, range(65))):
        want = mu.weights if n == 1 else _normalised(raw_power(cert, mu.weights, n))
        assert got.weights.tobytes() == want.tobytes(), n


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


def test_power_layer_work_is_pinned(monkeypatch):
    """_products_raw calls and the rows of their stacks on Z16, a group,
    where each level of a power chain is one stack by that level's square,
    of its products and of the next square: the powers 0..64 of a root path
    take 6 stacks, one per square below 2^6, of 63 rows; validating that
    path takes 141, one for each of its 65 right factors and one for each
    of the 76 levels of its 32 power chains; conv_power(., 1023) takes 10,
    conv_powers(., [3, 5, 7, 1024, 4099]) 13, and the squaring scheme at
    r = 900 takes 12 squares; conv_exp runs no kernel on Z16, through the
    semicharacter transform."""
    nu = fc.measure(catalog_monoid("cyclic", 16, 0, -1), np.random.default_rng(1).dirichlet(np.ones(16)))
    calls, rows = [], []

    def counted(cert, stack, w):
        calls.append(1)
        rows.append(len(stack))
        return _products_raw(cert, stack, w)

    for module in ("measures", "levy"):
        monkeypatch.setattr(f"finconv.{module}._products_raw", counted)

    def count(run):
        calls.clear()
        rows.clear()
        run()
        return len(calls), sum(rows)

    path = fc.levy_from_root(nu, 64)
    assert count(lambda: fc.levy_from_root(nu, 64)) == (6, 63)
    assert count(lambda: fc.validate_levy(path, 1e-9)) == (65 + 76, 1305)
    assert count(lambda: fc.conv_power(nu, 1023)) == (10, 18)
    assert count(lambda: fc.conv_powers(nu, [3, 5, 7, 1024, 4099])) == (13, 16)
    assert count(lambda: _squaring_raw(certificate_of(nu.structure), nu.weights, 900.0, 1e-9)) == (12, 12)
    assert count(lambda: fc.conv_exp(nu, 900.0, 1e-9)) == (0, 0)


def test_empty_and_invalid_requests(z8):
    mu = fc.uniform(z8)
    assert fc.conv_exps(mu, [], 1e-9) == []
    assert fc.conv_powers(mu, []) == []
    for rates, tol in (([1.0, -1.0], 1e-9), ([1.0, float("nan")], 1e-9), ([], 0.0)):
        with pytest.raises(MeasureError):
            fc.conv_exps(mu, rates, tol)
    with pytest.raises(MeasureError):
        fc.conv_powers(mu, [2, -1])


# --- products by one right factor ------------------------------------------------

@st.composite
def right_factor_stacks(draw):
    """A catalog monoid, groups among them, a (B, m) stack of left factors
    and one right factor."""
    kind = draw(st.sampled_from(["cyclic", "group", "chain", "product"]))
    a = draw(st.integers(1, 8))
    b = draw(st.integers(1, 4)) if kind in ("group", "product") else 0
    s = catalog_monoid(kind, a, b, draw(st.integers(-1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.dirichlet(np.ones(s.size), size=draw(st.sampled_from([1, 2, 5, 33])))
    if draw(st.booleans()):
        rows[rng.random(rows.shape) < 0.4] = 0.0
    return s, rows, rng.dirichlet(np.ones(s.size))


@SETTINGS
@given(right_factor_stacks())
def test_products_by_one_factor_keep_the_kernel_bits(case):
    """On a group the operator product; elsewhere one bincount per row."""
    s, rows, w = case
    cert = certificate_of(s)
    expected = np.array([bincount_convolve(cert, a, w) for a in rows])
    assert _products_raw(cert, rows, w).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [1, 33, 130])
@pytest.mark.parametrize("kind,a,b,perm_seed", [("cyclic", 256, 0, -1), ("group", 16, 16, 5), ("product", 16, 16, 5)])
def test_products_by_one_factor_keep_the_kernel_bits_at_m256(kind, a, b, perm_seed, rows):
    cert = certificate_of(catalog_monoid(kind, a, b, perm_seed))
    rng = np.random.default_rng(rows)
    stack, w = rng.dirichlet(np.ones(256), size=rows), rng.dirichlet(np.ones(256))
    expected = np.array([bincount_convolve(cert, a, w) for a in stack])
    assert _products_raw(cert, stack, w).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["cyclic", "group", "chain", "product"])
@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (3, 1), (4, 3)])
def test_is_group_means_every_element_has_an_inverse(kind, a, b):
    cert = certificate_of(catalog_monoid(kind, a, b, 2))
    inverses = (cert.add_table == cert.zero).any(axis=1)
    assert cert.is_group == bool(inverses.all())
    trivial_chain = (kind == "chain" and a == 1) or (kind == "product" and b == 1)
    assert cert.is_group == (kind in ("cyclic", "group") or trivial_chain)


# --- the descent gradient -------------------------------------------------------

@st.composite
def stacks(draw, max_size=18):
    """A catalog monoid of at most max_size elements and a (B, m) stack of
    measures on it, B >= 1."""
    kind = draw(st.sampled_from(["cyclic", "chain", "product"]))
    a = draw(st.integers(1, min(6, max_size)))
    b = draw(st.integers(1, min(3, max_size // a))) if kind == "product" else 0
    s = catalog_monoid(kind, a, b, draw(st.integers(-1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.dirichlet(np.ones(s.size), size=draw(st.sampled_from([1, 2, 3, 8])))
    if draw(st.booleans()):
        rows[rng.random(rows.shape) < 0.4] = 0.0
        rows[:, 0] += 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
    return s, rows


def raw_power(cert, w, n):
    """Binary exponentiation of one raw vector by the reference kernel,
    squares built as needed, n = 0 giving the unit."""
    if n == 0:
        unit = np.zeros(w.shape[0])
        unit[cert.zero] = 1.0
        return unit
    result, base = None, w
    while True:
        if n & 1:
            result = base if result is None else bincount_convolve(cert, result, base)
        n >>= 1
        if n == 0:
            return result
        base = bincount_convolve(cert, base, base)


@SETTINGS
@given(stacks(), st.integers(1, 40))
def test_power_gradient_keeps_former_formula_bits(stack, n):
    s, rows = stack
    cert = certificate_of(s)

    def former(w, target):
        prev = raw_power(cert, w, n - 1)
        full = bincount_convolve(cert, prev, w)
        return n * (prev[:, None] * (full - target)[cert.add_table]).sum(axis=0)

    w, target = rows[0], rows[-1]
    thunk = _power_objective(cert, target, n)(w)[2]
    assert thunk().tobytes() == former(w, target).tobytes()
    nu, tgt = fc.measure(s, w), fc.measure(s, target)
    assert fc.power_gradient(nu, n, tgt).tobytes() == former(nu.weights, tgt.weights).tobytes()
