"""The semicharacter transform of a finite commutative Clifford monoid.

A commutative monoid is Clifford when it is a union of groups: every x lies
in the group G_f = {x : e(x) = f} of its idempotent power e(x), that is
x + e(x) = x. The idempotents form a semilattice under +, ordered by
g <= f when g + f = f, with the neutral element at the bottom. Each
idempotent f and each character psi of G_f give the semicharacter

    chi(x) = psi(x + f) when e(x) <= f, and 0 otherwise,

which turns convolution into a pointwise product. There are sum |G_f| = m
of them, and they determine a measure (Hewitt & Zuckerman, Acta Math. 93,
1955; Rota, 1964, for the semilattice step).

Forward: the measure is pushed along x -> x + f for every idempotent
f >= e(x), one bincount, which gives nu_f on each G_f; a discrete Fourier
transform on the cyclic coordinates of G_f then gives every
psi-coefficient at once. Inverse: the inverse transform gives back each
nu_f, and the measure on G_f is sum over g <= f of moebius(g, f) times nu_g
pushed along y -> y + f, with the semilattice's Moebius function as exact
integers. The cached state is O(m) plus the nonzeros of that Moebius step;
the forward pairs are gathered on each call. np.fft and np.bincount are
deterministic, so a transform has the same bits on every BLAS build.

Each group is split into cyclic factors by element orders: take an element
of the largest order modulo the factors so far, and move it by those
factors until its order equals that order, so that it starts a direct
factor. The transform keeps a group's values in the C order of its
coordinates, and groups of the same shape are transformed as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Semicharacters:
    """The transform of one Clifford monoid. A transform is an array whose
    last axis has m entries, one per semicharacter, in `slots` order."""

    add_table: np.ndarray
    idempotent: np.ndarray  # e(x) for each x
    idempotents: np.ndarray  # the distinct e(x), increasing
    slots: np.ndarray  # elements grouped by shape and group, each group in coordinate order
    blocks: tuple[tuple[int, int, tuple[int, ...]], ...]  # (first slot, groups, group shape) per shape
    moebius_src: np.ndarray  # the inverse's Moebius step: weight at y ...
    moebius_dst: np.ndarray  # ... moves to y + f ...
    moebius_coef: np.ndarray  # ... times moebius(e(y), f)
    margin: float  # a chi(x) other than 1 has real part more than 4 margins below 1

    @property
    def real(self) -> np.ndarray:
        """Which semicharacters take real values only, as a mask over the
        slots: frequency k on Z_n1 x ... x Z_nk is real exactly when
        2 k_i = 0 mod n_i for every i, and its values are then 0 and +-1."""
        mask = np.ones(self.slots.size, dtype=bool)
        for lo, count, shape in self.blocks:
            if shape:
                k = np.indices(shape).reshape(len(shape), -1)
                real = (2 * k % np.array(shape)[:, None] == 0).all(axis=0)
                mask[lo : lo + count * real.size] = np.tile(real, count)
        return mask

    def forward(self, w: np.ndarray) -> np.ndarray:
        """The transform of each row of a stack (B, m)."""
        xs, fs = np.nonzero(self.add_table[np.ix_(self.idempotent, self.idempotents)] == self.idempotents)
        dst = self.add_table[xs, self.idempotents[fs]]  # x -> x + f wherever e(x) <= f
        m = w.shape[-1]
        nu = np.array([np.bincount(dst, weights=row[xs], minlength=m) for row in w])[:, self.slots]
        out = nu.astype(complex)
        for lo, count, shape in self.blocks:
            if shape:
                hi = lo + count * math.prod(shape)
                block = nu[:, lo:hi].reshape((-1, count) + shape)
                out[:, lo:hi] = np.fft.fftn(block, axes=range(2, 2 + len(shape))).reshape(-1, hi - lo)
        return out

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """The real vector (m,) whose transform is values."""
        nu = values.real.copy()
        for lo, count, shape in self.blocks:
            if shape:
                hi = lo + count * math.prod(shape)
                block = values[lo:hi].reshape((count,) + shape)
                nu[lo:hi] = np.fft.ifftn(block, axes=range(1, 1 + len(shape))).real.ravel()
        by_element = np.empty_like(nu)
        by_element[self.slots] = nu
        return np.bincount(
            self.moebius_dst, weights=self.moebius_coef * by_element[self.moebius_src], minlength=nu.size
        )


def _idempotent_powers(add: np.ndarray) -> np.ndarray:
    """e(x), the one idempotent among x, 2x, ..., mx."""
    m = add.shape[0]
    x = np.arange(m)
    e = np.full(m, -1)
    power = x
    while (e < 0).any():
        found = (e < 0) & (add[power, power] == power)
        e[found] = power[found]
        power = add[power, x]
    return e


def _cyclic_coordinates(add: np.ndarray, members: np.ndarray, unit: int) -> np.ndarray:
    """The elements of the group `members` (identity `unit`) as an array of
    shape (n_1, ..., n_k), at index a the sum of a_i times the i-th factor's
    generator: an isomorphism from Z_n1 x ... x Z_nk."""
    coords = np.array(unit)
    position = np.full(add.shape[0], -1)  # flat index in coords of each element so far
    position[unit] = 0
    while coords.size < members.size:
        # each member's order modulo the factors so far, and that multiple of it
        order, landed = np.zeros(members.size, dtype=np.int64), members.copy()
        power, k = members, 1
        while (order == 0).any():
            hit = (order == 0) & (position[power] >= 0)
            order[hit], landed[hit] = k, power[hit]
            power, k = add[power, members], k + 1
        i = int(np.argmax(order))
        s = int(order[i])
        a = np.array(np.unravel_index(position[landed[i]], coords.shape), dtype=np.int64)
        # s * h = sum a_j g_j with s | a_j, so h - sum (a_j / s) g_j has order s
        h = int(add[members[i], coords[tuple(-(a // s) % np.array(coords.shape, dtype=np.int64))]])
        multiples = [unit]
        for _ in range(s - 1):
            multiples.append(int(add[multiples[-1], h]))
        coords = add[coords[..., None], np.array(multiples)]
        position[coords.ravel()] = np.arange(coords.size)
    return coords


def _moebius(add: np.ndarray, idempotents: np.ndarray) -> np.ndarray | None:
    """moebius[g, f] over the idempotent semilattice as int64, or None when a
    column's coefficients sum past m^2 in absolute value: the inverse would
    then multiply rounding by more than m^2 (5e-11 at m = 464, the largest
    table within the evaluation budget), and the sums could grow past int64."""
    k = idempotents.size
    below = add[np.ix_(idempotents, idempotents)] == idempotents  # below[g, f]: g <= f
    moebius = np.zeros((k, k), dtype=np.int64)
    for f in np.argsort(below.sum(axis=0), kind="stable"):  # every g < f comes before f
        strict = below[:, f].copy()
        strict[f] = False
        column = -moebius[:, strict].sum(axis=1)
        column[f] = 1
        if np.abs(column).sum() > add.shape[0] ** 2:
            return None
        moebius[:, f] = column
    return moebius


def semicharacters(add: np.ndarray) -> Semicharacters | None:
    """The transform of a certified commutative monoid's table, or None when
    the monoid is not Clifford or its Moebius step is refused (_moebius)."""
    m = add.shape[0]
    e = _idempotent_powers(add)
    if not (add[np.arange(m), e] == np.arange(m)).all():
        return None
    idempotent = np.zeros(m, dtype=bool)  # a mask, not np.unique, whose first call imports numpy.ma
    idempotent[e] = True
    idempotents = np.flatnonzero(idempotent)
    moebius = _moebius(add, idempotents)
    if moebius is None:
        return None
    groups = {}  # shape -> coordinate arrays of the groups of that shape
    for f in idempotents:
        coords = _cyclic_coordinates(add, np.flatnonzero(e == f), int(f))
        groups.setdefault(coords.shape, []).append(coords)
    slots, blocks = [], []
    for shape, arrays in groups.items():
        blocks.append((sum(map(np.size, slots)), len(arrays), shape))
        slots.extend(a.ravel() for a in arrays)
    low, high = np.nonzero(moebius)
    src = [np.flatnonzero(e == idempotents[g]) for g in low]
    sizes = [s.size for s in src]
    src = np.concatenate(src)
    dst = add[src, np.repeat(idempotents[high], sizes)]
    gap = 1.0 - math.cos(2 * math.pi / max(4, m))
    return Semicharacters(
        add_table=add,
        idempotent=e,
        idempotents=idempotents,
        slots=np.concatenate(slots),
        blocks=tuple(blocks),
        moebius_src=src,
        moebius_dst=dst,
        moebius_coef=np.repeat(moebius[low, high], sizes).astype(np.float64),
        margin=gap / 4,
    )
