from itertools import product as iproduct

import numpy as np
import pytest

import finconv as fc
import finconv.formulas as fm
from finconv import catalog
from finconv.errors import BudgetExceededError, FreeVariableError, ModelError
from finconv.structures import FiniteStructure, RelationSymbol
from helpers import certified, random_formula, random_semigroup, scalar_eval


@pytest.fixture(scope="module")
def c2rel():
    return catalog.relation_model(certified(catalog.cyclic_group(2)))


@pytest.fixture(scope="module")
def j2rel():
    return catalog.relation_model(certified(catalog.chain_semilattice(2)))


# --- eval_formula ------------------------------------------------------------

def test_eval_relation_lookup(c2rel):
    f = fm.parse_formula("theta(0, 1, 1)", c2rel)
    assert fc.eval_formula(c2rel, f) is True


def test_eval_unique_doubling(c2rel):
    f = fm.parse_formula("forall x. exists! z. theta(x, x, z)", c2rel)
    assert fc.eval_formula(c2rel, f) is True


def test_eval_neutral_witness(j2rel):
    f = fm.parse_formula("exists x. forall y. theta(x, y, y)", j2rel)
    assert fc.eval_formula(j2rel, f) is True


def test_eval_unbound_variable(c2rel):
    f = fm.parse_formula("theta(x, y, z)", c2rel)
    with pytest.raises(FreeVariableError):
        fc.eval_formula(c2rel, f, {"x": 0, "y": 1})


def test_eval_budget(c2rel):
    s = catalog.cyclic_group(10)
    text = "exists a. exists b. exists c. exists d. exists e. exists f. exists g. exists h. exists i. add(a, b) = c"
    f = fm.parse_formula(text, s)
    with pytest.raises(BudgetExceededError):
        fc.eval_formula(s, f)


def test_eval_quantifier_free_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        s = random_semigroup(rng, max_m=6)
        f = random_formula(rng, s, max_quant=0)
        if fm.quantifier_depth(f) > 0:
            continue
        env = {"x": int(rng.integers(s.size))}
        assert fc.eval_formula(s, f, env) == scalar_eval(s, f, env)
        checked += 1


def test_eval_with_quantifiers_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    for _ in range(150):
        s = random_semigroup(rng, max_m=5)
        f = random_formula(rng, s)
        env = {"x": int(rng.integers(s.size))}
        assert fc.eval_formula(s, f, env) == scalar_eval(s, f, env)


def _atom(rng, s, scope):
    """A relation or equality atom whose arguments are drawn from scope,
    repeats and any order allowed."""
    def var():
        return fm.Var(scope[int(rng.integers(len(scope)))])

    if s.relations and rng.random() < 0.7:
        name = sorted(s.relations)[int(rng.integers(len(s.relations)))]
        return fm.RelationAtom(name, tuple(var() for _ in range(s.relations[name].arity)))
    return fm.EqualityAtom(var(), var())


def test_evaluate_region_matches_scalar_oracle():
    # grids of one to three variables in any order, a variable bound by env,
    # and quantified bodies over the grid: every cell against the scalar oracle
    rng = np.random.default_rng(8)
    for _ in range(120):
        s = random_semigroup(rng, max_m=5)
        if rng.random() < 0.5:
            s = catalog.relation_model(s)
        grid = tuple(rng.permutation(["x", "y", "z"])[: int(rng.integers(1, 4))])
        scope = list(grid) + ["w"]
        quantifier = (fm.Forall, fm.Exists, fm.ExistsUnique)[int(rng.integers(3))]
        f = fm.And(
            fm.Or(random_formula(rng, s, free_var=grid[0]), random_formula(rng, s, free_var="e")),
            quantifier("w", fm.Implies(_atom(rng, s, scope), _atom(rng, s, scope))),
        )
        env = {"e": int(rng.integers(s.size))}
        table = fc.evaluate_region(s, f, grid, env)
        assert table.shape == (s.size,) * len(grid) and table.dtype == bool
        for cell in iproduct(range(s.size), repeat=len(grid)):
            assert table[cell] == scalar_eval(s, f, {**env, **dict(zip(grid, cell))})


# --- definable_set -----------------------------------------------------------

def test_definable_set_idempotents(j2rel):
    f = fm.parse_formula("theta(x, x, x)", j2rel)
    assert fc.definable_set(j2rel, f, "x").tolist() == [True, True]


def test_definable_set_contradiction(c2rel):
    f = fm.parse_formula("!(x = x)", c2rel)
    assert fc.definable_set(c2rel, f, "x").tolist() == [False, False]


def test_definable_set_solves_equation(c2rel):
    f = fm.parse_formula("theta(1, x, 0)", c2rel)
    assert fc.definable_set(c2rel, f, "x").tolist() == [False, True]


def test_definable_set_needs_exact_free_variable(c2rel):
    f = fm.parse_formula("theta(x, y, 0)", c2rel)
    with pytest.raises(FreeVariableError):
        fc.definable_set(c2rel, f, "x")


def test_definable_set_complement_partition():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        s = random_semigroup(rng, max_m=6)
        f = random_formula(rng, s)
        yes = fc.definable_set(s, f, "x")
        no = fc.definable_set(s, fm.Not(f), "x")
        assert not (yes & no).any()
        assert (yes | no).all()


# --- verify_semigroup ----------------------------------------------------------

def test_verify_c2_table():
    cert = fc.verify_semigroup(catalog.cyclic_group(2))
    assert cert.passed
    assert cert.zero == 0
    assert cert.add_table.tolist() == [[0, 1], [1, 0]]


def test_verify_chain_by_least_upper_bound_formula():
    cert = fc.verify_semigroup(catalog.chain_poset(3))
    assert cert.passed
    assert cert.zero == 0
    assert cert.add_table.tolist() == [[0, 1, 2], [1, 1, 2], [2, 2, 2]]


def test_verify_left_projection_counterexample():
    cert = fc.verify_semigroup(catalog.from_add_table([[0, 0], [1, 1]]))
    assert not cert.passed
    commutativity = cert.axiom("commutativity")
    assert not commutativity.holds
    assert commutativity.counterexample[:2] == (0, 1)
    assert cert.axiom("unique_sum").holds
    assert not cert.axiom("neutral_element").holds


def test_verify_non_functional_sum():
    # theta(x, y, z) always true: sums are not unique
    m = 2
    graph = RelationSymbol(3, np.ones((m, m, m), dtype=bool))
    s = FiniteStructure(m, relations={"theta": graph}, semigroup={"formula": "theta(x, y, z)"})
    cert = fc.verify_semigroup(s)
    assert not cert.axiom("unique_sum").holds
    assert cert.axiom("unique_sum").counterexample == (0, 0)
    assert cert.axiom("commutativity").holds
    assert cert.add_table is None


def test_verify_associativity_counterexample():
    # symmetric with identity row, but (1+1)+2 = 0 while 1+(1+2) = 1
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 0]]
    cert = fc.verify_semigroup(catalog.from_add_table(table))
    assert cert.axiom("commutativity").holds
    assoc = cert.axiom("associativity")
    assert not assoc.holds
    x, y, z, w = assoc.counterexample
    add = np.asarray(table)
    assert add[add[x, y], z] != add[x, add[y, z]]
    assert w == min(add[add[x, y], z], add[x, add[y, z]])


def test_verify_requires_xyz_free_variables(c2rel):
    s = FiniteStructure(2, relations=c2rel.relations, semigroup={"formula": "theta(x, y, w)"})
    with pytest.raises(FreeVariableError):
        fc.verify_semigroup(s)


def test_element_index_takes_names_and_integers_only(c2rel):
    assert c2rel.element_index("1") == c2rel.element_index(np.int64(1)) == c2rel.element_index(1.0) == 1
    for bad in (1.7, True, None, [1], np.float64(1.5)):
        with pytest.raises(ModelError):
            c2rel.element_index(bad)


def test_certified_tables_satisfy_laws_exhaustively():
    for s in [
        catalog.cyclic_group(64),
        catalog.chain_semilattice(33),
        certified(catalog.product_of(certified(catalog.cyclic_group(8)), certified(catalog.chain_semilattice(8)))),
    ]:
        cert = fc.verify_semigroup(s)
        add = cert.add_table
        m = s.size
        assert (add == add.T).all()
        left = add[add]
        right = add[np.arange(m)[:, None, None], add[None, :, :]]
        assert (left == right).all()
        assert (add[cert.zero] == np.arange(m)).all()
        others = [x for x in range(m) if x != cert.zero]
        assert all((add[x] != np.arange(m)).any() for x in others)


AXIOM_SENTENCES = {
    "unique_sum": "forall x. forall y. exists! z. theta(x, y, z)",
    "commutativity": (
        "forall x. forall y. forall z. "
        "(theta(x, y, z) -> theta(y, x, z)) & (theta(y, x, z) -> theta(x, y, z))"
    ),
    "associativity": (
        "forall x. forall y. forall z. forall w. "
        "((exists v. theta(x, y, v) & theta(v, z, w)) -> (exists u. theta(y, z, u) & theta(x, u, w)))"
        " & ((exists u. theta(y, z, u) & theta(x, u, w)) -> (exists v. theta(x, y, v) & theta(v, z, w)))"
    ),
    "neutral_element": "exists x. forall y. theta(x, y, y)",
}


def test_certificate_flags_match_axiom_sentences():
    # the displayed axioms, evaluated as closed formulas, must agree with
    # the vectorized verifier flag by flag
    rng = np.random.default_rng(44)
    tables = [random_semigroup(rng, max_m=5).certificate.add_table for _ in range(6)]
    tables += [np.asarray(t) for t in ([[0, 0], [1, 1]], [[0, 1], [1, 1]], [[0, 1, 2], [1, 2, 0], [2, 0, 0]])]
    for _ in range(8):
        m = int(rng.integers(2, 5))
        tables.append(rng.integers(0, m, size=(m, m)))
    graphs = []
    for table in tables:
        m = table.shape[0]
        graph = np.zeros((m, m, m), dtype=bool)
        x, y = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        graph[x, y, table] = True
        graphs.append(graph)
    for _ in range(10):
        m = int(rng.integers(2, 4))
        graphs.append(rng.random((m, m, m)) < 0.5)  # usually not functional
    for graph in graphs:
        m = graph.shape[0]
        s = FiniteStructure(m, relations={"theta": RelationSymbol(3, graph)},
                            semigroup={"formula": "theta(x, y, z)"})
        cert = fc.verify_semigroup(s)
        for name, text in AXIOM_SENTENCES.items():
            sentence = fm.parse_formula(text, s)
            assert fc.eval_formula(s, sentence) == cert.axiom(name).holds, name
        _check_counterexamples(graph, cert)


def _check_counterexamples(graph, cert):
    """Each recorded counterexample must falsify its axiom and be the
    lexicographically first assignment doing so."""
    m = graph.shape[0]

    def firsts(predicate, arity):
        for tup in iproduct(range(m), repeat=arity):
            if not predicate(*tup):
                return tup
        return None

    ax = cert.axiom("unique_sum")
    expected = firsts(lambda x, y: int(graph[x, y].sum()) == 1, 2)
    assert ax.counterexample == expected

    ax = cert.axiom("commutativity")
    expected = firsts(lambda x, y, z: bool(graph[x, y, z]) == bool(graph[y, x, z]), 3)
    assert ax.counterexample == expected

    def assoc_holds(x, y, z, w):
        lhs = any(graph[x, y, v] and graph[v, z, w] for v in range(m))
        rhs = any(graph[y, z, u] and graph[x, u, w] for u in range(m))
        return lhs == rhs

    ax = cert.axiom("associativity")
    expected = firsts(assoc_holds, 4)
    assert ax.counterexample == expected


def test_function_table_semigroup_synthesis():
    s = catalog.cyclic_group(5)
    assert s.semigroup_spec == {"function": "add"}
    cert = fc.verify_semigroup(s)
    assert cert.passed and cert.zero == 0


def test_model_validation_rejects_bad_tables():
    with pytest.raises(ModelError):
        catalog.from_add_table([[0, 2], [1, 0]])
    with pytest.raises(ModelError):
        FiniteStructure(2, element_names={"a": 0, "b": 0})


def test_relation_over_budget_is_refused_before_allocation():
    # 10**12 cells: allocating the dense table would fail or exhaust memory
    with pytest.raises(ModelError, match="exceeds budget"):
        RelationSymbol.from_tuples(4, [], 1000)


def test_chain_semilattice_fingerprint_is_stable():
    # path CSV headers and generator JSON print the fingerprint
    s = catalog.chain_semilattice(5)
    assert set(s.relations) == {"leq"}
    assert s.fingerprint == "ee2ef47c1885ffae41a95dee5af240afe30df2f9"


def test_random_zoo_always_certifies():
    rng = np.random.default_rng(12)
    for _ in range(60):
        s = random_semigroup(rng)
        assert s.certificate is not None and s.certificate.passed
