"""Semigroup certification against the former whole-cube code.

verify_semigroup reads a declared function's table directly, reads a
formula's table off its graph one x-row at a time, and checks associativity
on the table by Light's test over a generating set, scanning x-slices only
to name a counterexample. Its certificates must equal those of the former
code, kept below as the reference, on random function tables and random
ternary relations; and its peak allocation must stay O(m**2) for a table
and a few bytes per cell of the m**3 graph otherwise.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv as fc
from finconv import catalog, structures
from finconv.errors import BudgetExceededError
from finconv.structures import AXIOM_NAMES, AxiomCheck, FiniteStructure, RelationSymbol, SemigroupCertificate
from helpers import certified

SETTINGS = settings(max_examples=150, deadline=None)


def _former_certificate(graph: np.ndarray) -> SemigroupCertificate:
    """The former verify_semigroup body from the graph on: m**3 int64 cubes
    on the functional branch, m**4 float32 einsums on the relational one."""

    def first_true(mask):
        idx = np.argwhere(mask)[0]
        return tuple(int(v) for v in idx)

    m = graph.shape[0]
    counts = np.count_nonzero(graph, axis=2)
    bad_pairs = counts != 1
    holds1 = not bad_pairs.any()
    cex1 = None if holds1 else first_true(bad_pairs)
    add = np.argmax(graph, axis=2).astype(np.int64) if holds1 else None

    comm_bad = graph != graph.transpose(1, 0, 2)
    holds2 = not comm_bad.any()
    cex2 = None if holds2 else first_true(comm_bad)

    if holds1:
        left = add[add]
        right = add[np.arange(m)[:, None, None], add[None, :, :]]
        assoc_bad = left != right
        holds3 = not assoc_bad.any()
        if holds3:
            cex3 = None
        else:
            x, y, z = first_true(assoc_bad)
            cex3 = (x, y, z, int(min(left[x, y, z], right[x, y, z])))
    else:
        gf = graph.astype(np.float32)
        lhs = np.einsum("xyv,vzw->xyzw", gf, gf, optimize=True) > 0.5
        rhs = np.einsum("yzu,xuw->xyzw", gf, gf, optimize=True) > 0.5
        assoc_bad = lhs != rhs
        holds3 = not assoc_bad.any()
        cex3 = None if holds3 else first_true(assoc_bad)

    diag = graph[:, np.arange(m), np.arange(m)]
    witnesses = np.flatnonzero(diag.all(axis=1))
    holds4 = witnesses.size > 0
    zero = int(witnesses[0]) if witnesses.size == 1 else None
    return SemigroupCertificate(
        add_table=add,
        zero=zero,
        axioms=(
            AxiomCheck(AXIOM_NAMES[0], holds1, cex1),
            AxiomCheck(AXIOM_NAMES[1], holds2, cex2),
            AxiomCheck(AXIOM_NAMES[2], holds3, cex3),
            AxiomCheck(AXIOM_NAMES[3], holds4, None),
        ),
    )


def _graph_of(table: np.ndarray) -> np.ndarray:
    m = table.shape[0]
    graph = np.zeros((m, m, m), dtype=bool)
    x, y = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    graph[x, y, table] = True
    return graph


def _relation_structure(graph: np.ndarray) -> FiniteStructure:
    return FiniteStructure(
        graph.shape[0],
        relations={"theta": RelationSymbol(3, graph)},
        semigroup={"formula": "theta(x, y, z)"},
    )


def _assert_same(got: SemigroupCertificate, want: SemigroupCertificate) -> None:
    assert got.axioms == want.axioms
    assert got.zero == want.zero
    if want.add_table is None:
        assert got.add_table is None
    else:
        assert got.add_table.dtype == np.int64
        assert np.array_equal(got.add_table, want.add_table)


def _monoid_table(draw, rng) -> np.ndarray:
    """A catalog monoid of size at most 8, maybe relabelled at random (a
    neutral element at 0 makes the x = 0 slice pass)."""
    kind = draw(st.sampled_from(["cyclic", "chain", "product"]))
    if kind == "product":
        chain = catalog.chain_semilattice(draw(st.integers(1, 4)))
        s = catalog.product_of(certified(catalog.cyclic_group(2)), certified(chain))
    else:
        make = catalog.cyclic_group if kind == "cyclic" else catalog.chain_semilattice
        s = make(draw(st.integers(1, 8)))
    table = fc.verify_semigroup(s).add_table
    if draw(st.booleans()):
        return table.copy()
    perm = rng.permutation(table.shape[0])
    inv = np.argsort(perm)
    return perm[table[inv[:, None], inv[None, :]]]


@st.composite
def tables(draw):
    """Random tables, symmetric ones, and monoids with one or two entries
    changed (symmetrically or not), so that associativity fails in any slice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "symmetric", "perturbed", "monoid"]))
    if kind in ("random", "symmetric"):
        m = draw(st.integers(1, 8))
        table = rng.integers(0, m, size=(m, m))
        if kind == "symmetric":
            table = np.triu(table) + np.triu(table, 1).T
        return table
    table = _monoid_table(draw, rng)
    m = table.shape[0]
    if kind == "perturbed":
        for _ in range(draw(st.integers(1, 2))):
            x, y = (int(v) for v in rng.integers(0, m, size=2))
            table[x, y] = rng.integers(0, m)
            if draw(st.booleans()):
                table[y, x] = table[x, y]
    return table


@st.composite
def relations(draw):
    """Random ternary relations, graphs of the tables above, and monoid
    graphs with tuples added or removed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "table", "flipped"]))
    if kind == "random":
        m = draw(st.integers(1, 8))
        return rng.random((m, m, m)) < draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    if kind == "table":
        return _graph_of(draw(tables()))
    graph = _graph_of(_monoid_table(draw, rng))
    m = graph.shape[0]
    for _ in range(draw(st.integers(1, 3))):
        x, y, z = (int(v) for v in rng.integers(0, m, size=3))
        graph[x, y, z] = not graph[x, y, z]
    return graph


@SETTINGS
@given(tables())
def test_function_tables_certify_as_before(table):
    s = catalog.from_add_table(table)
    _assert_same(fc.verify_semigroup(s), _former_certificate(_graph_of(table)))


def _conjugate(table: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The table relabelled so that element order[i] gets label i."""
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    return label[table[order[:, None], order[None, :]]]


@st.composite
def late_failures(draw):
    """Monoids up to m = 24, among them products that need several generators
    (Z2^k needs k, a chain every element), with one or two entries changed;
    relabelled so that the x-slices where associativity fails come last."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cyclic", "chain", "Z2^k", "ZaxZb", "ZaxJb"]))
    if kind == "cyclic":
        s = catalog.cyclic_group(draw(st.integers(1, 24)))
    elif kind == "chain":
        s = catalog.chain_semilattice(draw(st.integers(1, 24)))
    elif kind == "Z2^k":
        s = catalog.cyclic_group(2)
        for _ in range(draw(st.integers(1, 3))):
            s = catalog.product_of(certified(s), certified(catalog.cyclic_group(2)))
    else:
        a, b = draw(st.integers(2, 4)), draw(st.integers(2, 6))
        second = catalog.cyclic_group(b) if kind == "ZaxZb" else catalog.chain_semilattice(b)
        s = catalog.product_of(certified(catalog.cyclic_group(a)), certified(second))
    monoid = fc.verify_semigroup(s).add_table
    m = monoid.shape[0]
    changes, symmetric = draw(st.integers(0, 2)), draw(st.booleans())
    best = None
    for _ in range(8):  # keep the change that breaks associativity in the fewest x-slices
        table = monoid.copy()
        for _ in range(changes):
            x, y = (int(v) for v in rng.integers(0, m, size=2))
            table[x, y] = rng.integers(0, m)
            if symmetric:
                table[y, x] = table[x, y]
        left = table[table]  # [x,y,z] = (x+y)+z
        right = table[np.arange(m)[:, None, None], table[None, :, :]]  # [x,y,z] = x+(y+z)
        failing = (left != right).any(axis=(1, 2))
        rank = (failing.any(), -failing.sum())
        if best is None or rank > best[0]:
            best = (rank, table, failing)
    _, table, failing = best
    order = np.concatenate([rng.permutation(np.flatnonzero(~failing)), rng.permutation(np.flatnonzero(failing))])
    return _conjugate(table, order)


@SETTINGS
@given(late_failures())
def test_light_test_certifies_as_before(table):
    s = catalog.from_add_table(table)
    _assert_same(fc.verify_semigroup(s), _former_certificate(_graph_of(table)))


@SETTINGS
@given(relations())
def test_relations_certify_as_before(graph):
    s = _relation_structure(graph)
    _assert_same(fc.verify_semigroup(s), _former_certificate(graph))


def _peak_bytes(s: FiniteStructure) -> int:
    # warm up first: the first np.unique of a process imports numpy.ma, about
    # 1.2 MB that is no certification's memory and only a test run first sees
    fc.verify_semigroup(catalog.chain_poset(3))
    tracemalloc.start()
    try:
        fc.verify_semigroup(s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_bytes_per_cell(s: FiniteStructure) -> float:
    return _peak_bytes(s) / s.size**3


def test_functional_certification_peak_is_a_few_bytes_per_cell():
    table_model = catalog.cyclic_group(128)
    relation_model = catalog.relation_model(certified(catalog.cyclic_group(128)))
    assert _peak_bytes_per_cell(table_model) <= 4
    assert _peak_bytes_per_cell(relation_model) <= 4


def test_functional_certification_peak_is_the_graph_plus_slices():
    # the m**3 boolean graph (1 byte per cell) plus O(m**2) per-slice scratch
    table_model = catalog.cyclic_group(128)
    relation_model = catalog.relation_model(certified(catalog.cyclic_group(128)))
    assert _peak_bytes_per_cell(table_model) <= 1.5
    assert _peak_bytes_per_cell(relation_model) <= 1.5


def test_function_table_certification_peak_is_quadratic():
    # the table is the sum: no m**3 graph (16 MB here), only O(m**2) arrays
    m = 256
    assert _peak_bytes(catalog.cyclic_group(m)) <= 64 * m**2


@pytest.mark.parametrize("m", [48, 96])
def test_quantified_formula_certification_peak_is_below_the_graph(m):
    # the least-upper-bound formula enumerates m**4 cells; rows of the graph
    # are evaluated in blocks, and the m**3 graph itself is never held
    s = catalog.chain_poset(m)
    assert _peak_bytes(s) <= 1.5 * m**3
    assert fc.verify_semigroup(s).passed


def test_quantified_formula_is_evaluated_in_blocks_of_rows(monkeypatch):
    # the forall of the least-upper-bound formula is a product of float32
    # sides G(x, y, w) and H(z, w); a block of b rows holds 4 * (b m**2 +
    # m**2 + b m**2) bytes of sides and counts, within half the m**3 graph
    m = 96
    s = catalog.chain_poset(m)
    theta = structures.semigroup_formula(s)
    calls = []
    eval_node = structures._eval_node

    def counting(f, *args):
        calls.append(f == theta)
        return eval_node(f, *args)

    monkeypatch.setattr(structures, "_eval_node", counting)
    assert fc.verify_semigroup(s).passed
    block = max(b for b in range(1, m + 1) if 4 * (2 * b * m**2 + m**2) <= m**3 // 2)
    assert sum(calls) <= -(-m // block)


def test_relational_certification_peak_is_bounded_per_cell():
    m = 64
    graph = _graph_of(fc.verify_semigroup(catalog.cyclic_group(m)).add_table)
    graph[1, 2, 0] = True  # one stray tuple: sums are no longer unique
    s = _relation_structure(graph)
    cert = fc.verify_semigroup(s)
    assert not cert.axiom("unique_sum").holds and not cert.axiom("associativity").holds
    assert _peak_bytes_per_cell(s) <= 16


def test_relational_scan_over_budget_is_refused():
    # 160**5 steps of the m**5 scan exceed RELATIONAL_ASSOC_BUDGET: refused before it starts
    s = _relation_structure(np.ones((160, 160, 160), dtype=bool))
    with pytest.raises(BudgetExceededError, match="160\\*\\*5"):
        fc.verify_semigroup(s)
