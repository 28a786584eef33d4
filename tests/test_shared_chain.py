"""Bit-identity of the shared power chains against their single-call forms.

conv_exps and conv_powers walk one chain for many rates or exponents, and
the path constructors use them; every result must carry exactly the bits
of the corresponding conv_exp or conv_power call. Likewise the convolution
kernel and the powers on a (B, m) stack must give each row the bits of the
single call on it, and the grid oracle and the descent gradient built on
them must keep the bits of their former private loops.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv as fc
from finconv import catalog
from finconv.divisibility import GRID_RESOLUTION, _grid_candidates, _grid_minimum_residual, _power_objective
from finconv.errors import MeasureError
from finconv.measures import _convolve_raw, _powers_raw
from finconv.structures import certificate_of
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


def _raw(s):
    """The certificate's table, flattened, with its size and neutral element."""
    cert = certificate_of(s)
    return cert.add_table.ravel(), s.size, cert.zero


def _convolve(flat, m, a, b):
    return np.bincount(flat, weights=np.multiply.outer(a, b).ravel(), minlength=m)


def one_rate_series(mu, r, tol):
    """The series loop for a single rate, one power per term, normalised as
    conv_exp normalises it."""
    flat, m, zero = _raw(mu.structure)
    acc, comp, power = np.zeros(m), np.zeros(m), np.zeros(m)
    power[zero] = 1.0
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
    flat, m, _ = _raw(mu.structure)
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
@given(measures(), st.one_of(st.just(0.0), st.floats(1e-3, 40.0)), st.sampled_from([1e-6, 1e-9, 1e-12]))
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


# --- the stacked kernel ---------------------------------------------------------

GRID_ORDERS = st.sampled_from([1, 2, 3, 7, 16, 33])


@st.composite
def stacks(draw, max_size=18):
    """A catalog monoid of at most max_size elements and a (B, m) stack of
    measures on it, B >= 1."""
    kind = draw(st.sampled_from(["cyclic", "chain", "product"]))
    a = draw(st.integers(1, min(6, max_size)))
    b = draw(st.integers(1, min(3, max_size // a))) if kind == "product" else 0
    s = _monoid(kind, a, b, draw(st.integers(-1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.dirichlet(np.ones(s.size), size=draw(st.sampled_from([1, 2, 3, 8])))
    if draw(st.booleans()):
        rows[rng.random(rows.shape) < 0.4] = 0.0
        rows[:, 0] += 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
    return s, rows


def old_batch_power_residuals(flat, m, zero, points, n, target_w):
    """The grid's former private power loop, kept as the reference."""
    count = points.shape[0]
    idx = (np.arange(count) * m)[:, None] + flat[None, :]
    flat_idx = idx.ravel()

    def bconv(a, b):
        outer = a[:, :, None] * b[:, None, :]
        return np.bincount(flat_idx, weights=outer.reshape(count, -1).ravel(), minlength=count * m).reshape(count, m)

    result = None
    base = points
    k = n
    while True:
        if k & 1:
            result = base if result is None else bconv(result, base)
        k >>= 1
        if k == 0:
            break
        base = bconv(base, base)
    return 0.5 * np.abs(result - target_w[None, :]).sum(axis=1)


def old_grid_minimum_residual(table, m, zero, target_w, n, res):
    """The refinement loop of _grid_minimum_residual over the reference residuals."""
    if m == 1:
        return float(abs(1.0 - target_w[0]))
    lo, hi = np.zeros(m - 1), np.ones(m - 1)
    best_val, best_pt, half = math.inf, None, None
    for _ in range(4):
        pts = _grid_candidates(m, lo, hi, res)
        vals = old_batch_power_residuals(table.ravel(), m, zero, pts, n, target_w)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_pt = float(vals[k]), pts[k]
        step = (hi - lo).max() / res
        half = step if half is None else half / 4.0
        lo = np.clip(best_pt[: m - 1] - half, 0.0, 1.0)
        hi = np.clip(best_pt[: m - 1] + half, 0.0, 1.0)
    return best_val


def raw_power(flat, m, zero, w, n):
    """Binary exponentiation of one raw vector, n = 0 giving the unit."""
    if n == 0:
        unit = np.zeros(m)
        unit[zero] = 1.0
        return unit
    result, base = None, w
    while True:
        if n & 1:
            result = base if result is None else _convolve(flat, m, result, base)
        n >>= 1
        if n == 0:
            return result
        base = _convolve(flat, m, base, base)


@SETTINGS
@given(stacks(), st.data())
def test_stacked_convolution_rows_keep_single_call_bits(stack, data):
    s, a = stack
    cert = certificate_of(s)
    flat, m, _ = _raw(s)
    b = a[np.random.default_rng(data.draw(st.integers(0, 99))).permutation(a.shape[0])]
    out = _convolve_raw(cert, a, b)
    assert out.shape == a.shape
    for i in range(a.shape[0]):
        assert out[i].tobytes() == _convolve_raw(cert, a[i], b[i]).tobytes()
        assert out[i].tobytes() == _convolve(flat, m, a[i], b[i]).tobytes()


@SETTINGS
@given(stacks(), st.lists(EXPONENTS, min_size=1, max_size=6))
def test_stacked_powers_rows_keep_single_call_bits(stack, ns):
    s, a = stack
    cert = certificate_of(s)
    out = _powers_raw(cert, a, ns)
    for n, power in zip(ns, out):
        assert power.shape == a.shape
        for i in range(a.shape[0]):
            assert power[i].tobytes() == _powers_raw(cert, a[i], [n])[0].tobytes()


@SETTINGS
@given(stacks(max_size=3), GRID_ORDERS)
def test_grid_minimum_matches_former_batch_loop(stack, n):
    s, rows = stack
    cert = certificate_of(s)
    table, m, zero = cert.add_table, s.size, cert.zero
    target = rows[0]
    got = _grid_minimum_residual(cert, target, n)
    assert got == old_grid_minimum_residual(table, m, zero, target, n, GRID_RESOLUTION)
    # any stack, not only grid points, scores as under the former loop
    stacked = 0.5 * np.abs(_powers_raw(cert, rows, [n])[0] - target[None, :]).sum(axis=1)
    assert stacked.tobytes() == old_batch_power_residuals(table.ravel(), m, zero, rows, n, target).tobytes()


@SETTINGS
@given(stacks(), st.integers(1, 40))
def test_power_gradient_keeps_former_formula_bits(stack, n):
    s, rows = stack
    cert = certificate_of(s)
    flat, m, zero = _raw(s)

    def former(w, target):
        prev = raw_power(flat, m, zero, w, n - 1)
        full = _convolve(flat, m, prev, w)
        return n * (prev[:, None] * (full - target)[cert.add_table]).sum(axis=0)

    w, target = rows[0], rows[-1]
    thunk = _power_objective(cert, target, n)(w)[2]
    assert thunk().tobytes() == former(w, target).tobytes()
    nu, tgt = fc.measure(s, w), fc.measure(s, target)
    assert fc.power_gradient(nu, n, tgt).tobytes() == former(nu.weights, tgt.weights).tobytes()
