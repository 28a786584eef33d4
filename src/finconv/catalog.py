"""Ready-made structures carrying a definable commutative semigroup.

Everything here names its binary operation "add" and its neutral element
"zero"; elements are named by their decimal index so formulas can mention
them directly.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError
from .structures import (
    FiniteStructure,
    FunctionSymbol,
    RelationSymbol,
    certificate_of,
)


def _names(m: int) -> dict[str, int]:
    return {str(i): i for i in range(m)}


def from_add_table(
    table,
    element_names: dict[str, int] | None = None,
    relations: dict[str, RelationSymbol] | None = None,
) -> FiniteStructure:
    """Structure whose semigroup is given directly by an addition table."""
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelError("addition table must be square")
    m = arr.shape[0]
    return FiniteStructure(
        m,
        functions={"add": FunctionSymbol(2, arr)},
        relations=relations,
        constants={"zero": 0} if (arr[0] == np.arange(m)).all() else {},
        element_names=element_names if element_names is not None else _names(m),
        semigroup={"function": "add"},
    )


def cyclic_group(m: int) -> FiniteStructure:
    """Addition modulo m."""
    i = np.arange(m)
    return from_add_table((i[:, None] + i[None, :]) % m)


def chain_semilattice(m: int) -> FiniteStructure:
    """The chain 0 < 1 < ... < m-1 under join (max), with a leq relation."""
    i = np.arange(m)
    return from_add_table(
        np.maximum(i[:, None], i[None, :]),
        relations={"leq": RelationSymbol(2, i[:, None] <= i[None, :])},
    )


LUB_FORMULA = (
    "leq(x, z) & leq(y, z) & (forall w. (leq(x, w) & leq(y, w)) -> leq(z, w))"
)


def chain_poset(m: int) -> FiniteStructure:
    """The chain given only by its order; the semigroup is the least-upper-bound formula."""
    i = np.arange(m)
    return FiniteStructure(
        m,
        relations={"leq": RelationSymbol(2, i[:, None] <= i[None, :])},
        element_names=_names(m),
        semigroup={"formula": LUB_FORMULA},
    )


def relation_model(s: FiniteStructure, name: str = "theta") -> FiniteStructure:
    """Re-present a certified structure with its sum as a ternary relation."""
    table = certificate_of(s).add_table
    m = s.size
    graph = np.zeros((m, m, m), dtype=bool)
    x, y = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    graph[x, y, table] = True
    return FiniteStructure(
        m,
        relations={name: RelationSymbol(3, graph)},
        constants=dict(s.constants),
        element_names=dict(s.element_names) if s.element_names else None,
        semigroup={"formula": f"{name}(x, y, z)"},
    )


def product_of(a: FiniteStructure, b: FiniteStructure) -> FiniteStructure:
    """Componentwise semigroup on pairs, with index i*|b| + j."""
    ta, tb = certificate_of(a).add_table, certificate_of(b).add_table
    ma, mb = a.size, b.size
    ia = np.arange(ma * mb) // mb
    ib = np.arange(ma * mb) % mb
    table = ta[ia[:, None], ia[None, :]] * mb + tb[ib[:, None], ib[None, :]]
    return from_add_table(table)


def relabeled(s: FiniteStructure, perm) -> FiniteStructure:
    """Conjugate a certified semigroup by a permutation of the universe."""
    table = certificate_of(s).add_table
    p = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size)
    new = p[table[inv[:, None], inv[None, :]]]
    return from_add_table(new, element_names=_names(s.size))
