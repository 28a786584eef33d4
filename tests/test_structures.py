import os
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv as fc
import finconv.formulas as fm
from finconv import catalog, structures
from finconv.errors import BudgetExceededError, FreeVariableError, ModelError
from finconv.structures import FiniteStructure, RelationSymbol
from helpers import capped_addition, catalog_monoid, certified, random_formula, random_semigroup, scalar_eval


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


def test_evaluate_region_refuses_a_repeated_grid_variable():
    # one variable cannot index two axes: the table would ignore the row index
    s = certified(catalog.cyclic_group(3))
    f = fm.parse_formula("add(x, 1) = 0", s)
    with pytest.raises(FreeVariableError, match=r"^grid variables must be distinct, got \['x', 'x'\]$"):
        fc.evaluate_region(s, f, ("x", "x"))
    assert fc.evaluate_region(s, f, ("x",)).tolist() == [False, False, True]


@st.composite
def quantified_regions(draw):
    """A structure with m <= 6 (random_semigroup, or its relation model) and
    one of forall w (A -> B), forall w (A | B), exists w (A & B) and
    exists! w (A & B) over a grid of two or three variables. A and B are
    conjunctions of atoms whose variables are drawn from two sets of grid
    variables and w, with function terms and constants: disjoint sets make a
    product quantifier, overlapping ones a broadcast."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = random_semigroup(rng, max_m=6)
    if draw(st.booleans()):
        s = catalog.relation_model(s)
    grid = tuple(draw(st.permutations(["x", "y", "z"]))[: draw(st.integers(2, 3))])
    constants = sorted(s.element_names)

    def term(names, depth=1):
        kinds = ["var", "var", "const"] + (["apply"] if s.functions and depth else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "var":
            return fm.Var(draw(st.sampled_from(names)))
        if kind == "const":
            label = draw(st.sampled_from(constants))
            return fm.Const(label, s.element_names[label])
        return fm.Apply("add", (term(names, depth - 1), term(names, depth - 1)))

    def atom(names):
        if "theta" in s.relations and draw(st.booleans()):
            return fm.RelationAtom("theta", tuple(term(names) for _ in range(3)))
        return fm.EqualityAtom(term(names), term(names))

    def side(names):
        # a first atom on w and a grid variable, maybe one drawn freely, and
        # maybe one without w, which is applied outside the product
        v, w = fm.Var(names[0]), fm.Var("w")
        if "theta" in s.relations:
            atoms = [fm.RelationAtom("theta", (v, w, term(names)))]
        else:
            atoms = [fm.EqualityAtom(fm.Apply("add", (v, w)), term(names))]
        if draw(st.booleans()):
            atoms.append(atom(names))
        if draw(st.booleans()):
            atoms.append(atom(names[:-1]))
        out = atoms[0]
        for a in atoms[1:]:
            out = fm.And(out, a)
        return out

    cut = draw(st.integers(1, len(grid) - 1))
    left, right = list(grid[:cut]), list(grid[cut:])
    if draw(st.booleans()):  # the sides share a grid variable
        right.insert(0, left[0])
    if draw(st.booleans()):  # the first side on the later axes
        left, right = right, left
    a, b = side(left + ["w"]), side(right + ["w"])
    form = draw(st.sampled_from(["forall ->", "forall |", "exists &", "exists! &"]))
    quantifier, connective = form.split()
    body = {"->": fm.Implies, "|": fm.Or, "&": fm.And}[connective](a, b)
    f = {"forall": fm.Forall, "exists": fm.Exists, "exists!": fm.ExistsUnique}[quantifier]("w", body)
    return s, f, grid


@given(quantified_regions())
@settings(max_examples=150, deadline=None)
def test_quantifiers_by_product_and_by_broadcast_match_scalar_oracle(case):
    s, f, grid = case
    table = fc.evaluate_region(s, f, grid)
    for cell in iproduct(range(s.size), repeat=len(grid)):
        assert table[cell] == scalar_eval(s, f, dict(zip(grid, cell)))
    # at m <= 6 the blocks of evaluate_region hold one cell of the first two
    # grid variables; one evaluation of the whole grid multiplies sides over
    # several axes, in either order
    m, n = s.size, len(grid)
    bind = {v: ("axis", (n - i, 0, m)) for i, v in enumerate(grid)}
    assert np.array_equal(np.broadcast_to(structures._eval_node(f, s, bind, (m,) * n), table.shape), table)


def test_product_split_groups_conjuncts_by_axes():
    # the least-upper-bound formula's forall: !(A -> B) = A & !B gives
    # conjuncts on x, y and z, each with w; the product is G(x, y, w) H(z, w)
    s = catalog.chain_poset(3)
    bind = {"x": ("axis", (3, 0, 3)), "y": ("axis", (2, 0, 3)), "z": ("axis", (1, 0, 3)), "w": ("axis", (4, 0, 3))}
    forall = fm.parse_formula(catalog.LUB_FORMULA, s).right
    outside, (a_axes, left), (b_axes, right) = structures._product_split(forall, bind, 3)
    assert outside == () and (a_axes, b_axes) == ((0, 1), (2,))
    assert [fm.pretty_print(c) for c in left + right] == ["leq(x, w)", "leq(y, w)", "!leq(z, w)"]
    # conjuncts that share x are one group: no product, the body is broadcast
    shared = fm.parse_formula("exists w. leq(x, w) & (leq(y, w) | leq(w, x))", s)
    assert structures._product_split(shared, bind, 3) is None
    # x bound to a value is no axis: leq(x, w) joins the second side
    split = structures._product_split(forall, {**bind, "x": ("value", 1)}, 3)
    leq = fm.parse_formula("leq(y, w) & leq(z, w) & leq(x, w)", s)
    assert split[1:] == (((1,), (leq.left.left,)), ((2,), (fm.Not(leq.left.right), leq.right)))


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
    # a label out of range or of the wrong kind is named, shortened, in the message
    for bad in (1.7, True, None, [1], np.float64(1.5), 1e300, [1] * 1000, "x" * 1000):
        with pytest.raises(ModelError) as err:
            c2rel.element_index(bad)
        assert len(str(err.value)) < 120


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


def test_certificate_shares_the_declared_table():
    # the symbol holds the structure's one int64 copy, and the certificate reads it
    given = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    s = catalog.from_add_table(given)
    cert = fc.verify_semigroup(s)
    assert np.shares_memory(cert.add_table, s.functions["add"].table)
    given[0, 0] = 1  # the caller's array stays its own
    assert cert.add_table[0, 0] == 0


def test_certified_table_is_read_only():
    # the kernels alone hold a writeable handle; a write must not change convolve
    s = catalog.cyclic_group(3)
    cert = fc.verify_semigroup(s)
    mu = fc.measure(s, [0.5, 0.5, 0.0])
    for table in (s.functions["add"].table, cert.add_table):
        with pytest.raises(ValueError, match="read-only"):
            table[1, 1] = 0
    assert fc.convolve(mu, mu).weights.tolist() == [0.25, 0.5, 0.25]


def test_enumeration_past_numpy_axes_is_refused():
    # at m = 1 every enumeration is within the budget, but numpy has no 71-axis array
    s = certified(catalog.cyclic_group(1))
    f = fm.parse_formula("".join(f"forall v{i}. " for i in range(70)) + "x = x", s)
    with pytest.raises(BudgetExceededError, match="axes"):
        fc.definable_set(s, f, "x")


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


def unique_generators(add):
    """_generators as it was written with np.unique: the reference for its mask form."""
    m = add.shape[0]
    inside = np.zeros(m, dtype=bool)
    gens = []
    for g in range(m):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        new = np.array([g])
        while new.size:
            members = np.flatnonzero(inside)
            products = np.concatenate((add[np.ix_(new, members)].ravel(), add[np.ix_(members, new)].ravel()))
            new = np.unique(products[~inside[products]])
            inside[new] = True
    return gens


def test_generators_match_their_unique_form_on_the_zoo():
    rng = np.random.default_rng(23)
    zoo = [random_semigroup(rng) for _ in range(60)]
    zoo += [catalog_monoid(kind, a, b, seed) for kind, a, b in (("chain", 40, 0), ("product", 6, 7), ("group", 4, 6))
            for seed in (-1, 1)]
    zoo += [capped_addition(9), catalog.relation_model(certified(catalog.cyclic_group(6)))]
    for s in zoo:
        add = fc.verify_semigroup(s).add_table
        assert structures._generators(add) == unique_generators(add)


CERTIFY_WITHOUT_NUMPY_MA = """
import sys
import finconv as fc
from finconv import catalog
factors = [catalog.cyclic_group(4), catalog.chain_semilattice(3)]
for f in factors:
    fc.verify_semigroup(f)
assert fc.verify_semigroup(catalog.product_of(*factors)).semicharacters is not None
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_certifying_a_table_imports_no_numpy_ma():
    """np.unique imports numpy.ma on its first call in a process, 12 ms and
    over 1 MB: certification and the transform it caches never call it."""
    src = str(Path(fc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CERTIFY_WITHOUT_NUMPY_MA], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
