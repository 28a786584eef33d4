"""Reference computations the benchmark checks finconv's outputs against.

Nothing here imports finconv. Every oracle works on a plain addition table
(an int array with t[x, y] = x + y) or on a boolean graph g[x, y, z] meaning
"x + y = z", with numpy code that shares no kernel with the library: sums go
through np.add.at instead of np.bincount, exponentials through the character
transform or a plain series, chain roots and exponentials through the
cumulative function.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class OracleError(RuntimeError):
    """A fixture's own oracle disagrees with itself; the benchmark is broken."""


# --- addition tables -----------------------------------------------------------

def cyclic_table(m: int) -> np.ndarray:
    i = np.arange(m)
    return (i[:, None] + i[None, :]) % m


def chain_table(m: int) -> np.ndarray:
    i = np.arange(m)
    return np.maximum(i[:, None], i[None, :])


def product_table(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Componentwise sum on pairs, pair (i, j) stored at index i * |b| + j."""
    mb = tb.shape[0]
    idx = np.arange(ta.shape[0] * mb)
    ia, ib = idx // mb, idx % mb
    return ta[ia[:, None], ia[None, :]] * mb + tb[ib[:, None], ib[None, :]]


def relabel_table(t: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table after renaming element i to perm[i]."""
    inv = np.argsort(perm)
    return perm[t[inv[:, None], inv[None, :]]]


def neutral(t: np.ndarray) -> int:
    i = np.arange(t.shape[0])
    hits = np.flatnonzero((t == i[None, :]).all(axis=1))
    if hits.size != 1:
        raise OracleError(f"table has {hits.size} neutral elements")
    return int(hits[0])


def graph_of(t: np.ndarray) -> np.ndarray:
    m = t.shape[0]
    g = np.zeros((m, m, m), dtype=bool)
    x, y = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    g[x, y, t] = True
    return g


# --- measures ---------------------------------------------------------------------

def tv(a, b) -> float:
    return 0.5 * math.fsum(np.abs(np.asarray(a) - np.asarray(b)).tolist())


def convolve(t: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(t.shape[0])
    np.add.at(out, t, np.multiply.outer(a, b))
    return out


def power(t: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """n-fold convolution by repeated multiplication, never by squaring."""
    out = np.zeros(t.shape[0])
    out[neutral(t)] = 1.0
    for _ in range(n):
        out = convolve(t, out, a)
    return out


def series_exp(t: np.ndarray, a: np.ndarray, r: float, terms: int) -> np.ndarray:
    """Plain partial sum of exp(-r) sum_k r^k / k! a^(*k)."""
    acc = np.zeros(t.shape[0])
    term = np.zeros(t.shape[0])
    term[neutral(t)] = 1.0
    coeff = math.exp(-r)
    for k in range(terms):
        acc += coeff * term
        term = convolve(t, term, a)
        coeff *= r / (k + 1)
    return acc


def fft_exp(a: np.ndarray, r: float) -> np.ndarray:
    """Exponential on the cyclic group Z_m in its natural labelling."""
    w = np.fft.ifft(np.exp(r * (np.fft.fft(a) - 1.0))).real
    return np.maximum(w, 0.0)


def fft_power(a: np.ndarray, n: int) -> np.ndarray:
    return np.maximum(np.fft.ifft(np.fft.fft(a) ** n).real, 0.0)


def _chain_order(t: np.ndarray) -> np.ndarray:
    i = np.arange(t.shape[0])
    return np.argsort((t == i[:, None]).sum(axis=1))  # by the number of elements below or equal


def _from_cdf(order: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    out = np.empty_like(cdf)
    out[order] = np.maximum(np.diff(cdf, prepend=0.0), 0.0)
    return out


def chain_exp(t: np.ndarray, a: np.ndarray, r: float) -> np.ndarray:
    """Exponential on a chain under max: the cumulative function of a sum is
    the product of the cumulative functions, so exp(r (F - 1)) is the
    exponential's cumulative function."""
    order = _chain_order(t)
    return _from_cdf(order, np.exp(r * (np.cumsum(a[order]) - 1.0)))


def chain_root(t: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """n-th root on a chain under max: the root's cumulative function is the
    real n-th root of the target's."""
    order = _chain_order(t)
    return _from_cdf(order, np.power(np.maximum(np.cumsum(target[order]), 0.0), 1.0 / n))


# --- semigroup certificates ------------------------------------------------------

def _first(mask: np.ndarray):
    hits = np.argwhere(mask)
    return None if hits.size == 0 else [int(v) for v in hits[0]]


def certificate(g: np.ndarray) -> dict:
    """The certificate of the relation g, in the JSON layout `finconv verify`
    writes, found by direct scans. Memory is O(m^3); use it for small m."""
    m = g.shape[0]
    counts = g.sum(axis=2)
    cex1 = _first(counts != 1)
    table = None if cex1 else np.argmax(g, axis=2)
    cex2 = None
    for x in range(m):  # scans run in lexicographic order and stop at the first hit
        hit = _first(g[x] != g[:, x, :])
        if hit:
            cex2 = [x] + hit
            break
    cex3 = None
    gf = g.astype(np.float64)  # 0/1 products count exactly in floating point
    for x in range(m):
        # lhs[y, z, w]: some v with x+y=v and v+z=w; rhs: some u with y+z=u and x+u=w
        lhs = (gf[x] @ gf.reshape(m, m * m)).reshape(m, m, m) > 0
        rhs = (gf.reshape(m * m, m) @ gf[x]).reshape(m, m, m) > 0
        hit = _first(lhs != rhs)
        if hit:
            cex3 = [x] + hit
            break
    diag = g[:, np.arange(m), np.arange(m)]
    witnesses = np.flatnonzero(diag.all(axis=1))
    axioms = [("unique_sum", cex1), ("commutativity", cex2), ("associativity", cex3)]
    passed = all(c is None for _, c in axioms) and witnesses.size > 0
    return {
        "passed": bool(passed),
        "zero": int(witnesses[0]) if witnesses.size == 1 else None,
        "add_table": None if table is None else table.tolist(),
        "axioms": [{"name": n, "holds": c is None, "counterexample": c} for n, c in axioms]
        + [{"name": "neutral_element", "holds": bool(witnesses.size > 0), "counterexample": None}],
    }


def monoid_certificate(t: np.ndarray) -> dict:
    """The certificate a commutative monoid's table must get, by construction."""
    return {
        "passed": True,
        "zero": neutral(t),
        "add_table": t.tolist(),
        "axioms": [
            {"name": n, "holds": True, "counterexample": None}
            for n in ("unique_sum", "commutativity", "associativity", "neutral_element")
        ],
    }


# --- timelines ----------------------------------------------------------------------

def pair_counts(ticks: list[Fraction]) -> tuple[int, int]:
    """(increment pairs, division pairs) a full validation of the timeline checks:
    pairs s <= t with s + t a tick, and pairs s < t with t / s an integer >= 2."""
    on = set(ticks)
    inc = sum(1 for i, s in enumerate(ticks) for t in ticks[i:] if s + t in on)
    div = 0
    for i, s in enumerate(ticks):
        for t in ticks[i + 1:]:
            if s > 0:
                q = t / s
                div += q.denominator == 1 and q >= 2
    return inc, div
