import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv.formulas as fm
from finconv import catalog
from finconv.errors import ArityError, FormulaSyntaxError, UnknownSymbolError
from finconv.structures import FiniteStructure, FunctionSymbol, definable_set, eval_formula
from helpers import (
    certified,
    random_formula,
    random_semigroup,
    reference_free_variables,
    reference_height,
    reference_quantifier_depth,
    reference_tokenize,
)

# formula text plus every class of character the lexer treats specially:
# tab, CR, VT, FF, NEL, NBSP and a file separator (spaces that are not
# newlines), a Latin letter, a superscript and an Arabic-Indic digit
# (Unicode alphanumerics), and characters no token accepts
LEXER_ALPHABET = "ab_xz09 \n\t\r\x0b\x0c\x85\xa0\x1c\u00e9\u00b2\u0663(),.=&|!->?#"


@pytest.fixture(scope="module")
def rel2():
    return catalog.relation_model(certified(catalog.cyclic_group(2)))


def test_parse_forall_atom(rel2):
    f = fm.parse_formula("forall y. theta(zero, y, y)", rel2)
    assert isinstance(f, fm.Forall)
    assert f.var == "y"
    assert isinstance(f.body, fm.RelationAtom)
    assert f.body.name == "theta"
    assert f.body.args == (fm.Const("zero", 0), fm.Var("y"), fm.Var("y"))


def test_parse_exists_unique(rel2):
    f = fm.parse_formula("exists! z. theta(x, y, z)", rel2)
    assert isinstance(f, fm.ExistsUnique)
    assert f.var == "z"
    assert fm.free_variables(f) == {"x", "y"}


def test_unbalanced_paren_reports_position(rel2):
    with pytest.raises(FormulaSyntaxError) as err:
        fm.parse_formula("theta(x, y", rel2)
    assert err.value.line == 1


def test_precedence_not_and_or_implies(rel2):
    f = fm.parse_formula("!x = y & x = x | y = y -> x = y", rel2)
    # not binds tightest, then &, then |, then ->
    assert isinstance(f, fm.Implies)
    assert isinstance(f.left, fm.Or)
    assert isinstance(f.left.left, fm.And)
    assert isinstance(f.left.left.left, fm.Not)


def test_implies_right_associative(rel2):
    f = fm.parse_formula("x = x -> y = y -> x = y", rel2)
    assert isinstance(f, fm.Implies)
    assert isinstance(f.right, fm.Implies)


def test_quantifier_extends_maximally_right(rel2):
    f = fm.parse_formula("forall x. x = x -> x = zero", rel2)
    assert isinstance(f, fm.Forall)
    assert isinstance(f.body, fm.Implies)


def test_shadowing_constant_is_parse_error(rel2):
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("forall zero. zero = zero", rel2)


def test_element_names_resolve_as_constants(rel2):
    f = fm.parse_formula("theta(0, 1, 1)", rel2)
    assert f.args == (fm.Const("0", 0), fm.Const("1", 1), fm.Const("1", 1))


def test_unknown_symbol(rel2):
    with pytest.raises(UnknownSymbolError):
        fm.parse_formula("mystery(x, y)", rel2)


def test_arity_mismatch(rel2):
    with pytest.raises(ArityError):
        fm.parse_formula("theta(x, y)", rel2)


# each error at a token ends its one-line message with the token's position;
# "theta" is the relation of rel2, "add" the function of Z3
TOKEN_ERRORS = {
    "unknown-function": (
        "rel2", "mystery(x, y) = x", UnknownSymbolError, "unknown function symbol 'mystery' (line 1, column 1)"
    ),
    "relation-arity": (
        "rel2", "theta(x, y)", ArityError, "relation 'theta' takes 3 arguments, got 2 (line 1, column 1)"
    ),
    "relation-arity-second-line": (
        "rel2", "x = y &\n  theta(x)", ArityError, "relation 'theta' takes 3 arguments, got 1 (line 2, column 3)"
    ),
    "function-arity": (
        "z3", "x = y &\n  add(x) = y", ArityError, "function 'add' takes 2 arguments, got 1 (line 2, column 3)"
    ),
    "syntax": (
        "rel2", "\n forall x.  x = = y", FormulaSyntaxError, "expected a term, got '=' (line 2, column 17)"
    ),
}


@pytest.mark.parametrize("name", sorted(TOKEN_ERRORS))
def test_token_errors_name_line_and_column(rel2, name):
    model, text, error, message = TOKEN_ERRORS[name]
    s = rel2 if model == "rel2" else certified(catalog.cyclic_group(3))
    with pytest.raises(error) as err:
        fm.parse_formula(text, s)
    assert str(err.value) == message
    assert message.endswith(f"(line {err.value.line}, column {err.value.column})")


def test_relation_as_term_rejected(rel2):
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("theta(x, y, z) = x", rel2)


def test_keyword_not_a_term(rel2):
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("forall = x", rel2)


DEEP_FORMULAS = {
    "200-brackets": "(" * 200 + "x = y" + ")" * 200,
    "1000-negations": "!" * 1000 + "x = y",
    "1000-implications": " -> ".join(["x = y"] * 1000),
    "1000-disjunctions": " | ".join(["x = y"] * 1000),
    "1000-quantifiers": "".join(f"exists v{i}. " for i in range(1000)) + "x = y",
    "1000-function-applications": "f(" * 1000 + "x" + ")" * 1000 + " = y",
}


@pytest.mark.parametrize("name", sorted(DEEP_FORMULAS))
def test_deep_nesting_is_a_syntax_error(name):
    s = FiniteStructure(2, functions={"f": FunctionSymbol(1, [1, 0])})
    with pytest.raises(FormulaSyntaxError, match=f"deeper than {fm.MAX_NESTING} levels"):
        fm.parse_formula(DEEP_FORMULAS[name], s)


def test_nesting_up_to_the_limit_parses(rel2):
    # a bracket adds a level on the parser's stack, a node one to the tree's height
    n = fm.MAX_NESTING - 1
    assert fm.parse_formula("(" * n + "x = y" + ")" * n, rel2) == fm.EqualityAtom(fm.Var("x"), fm.Var("y"))
    f = fm.parse_formula(" & ".join(["x = y"] * n), rel2)
    assert fm.pretty_print(f) == " & ".join(["x = y"] * n)


def test_pretty_print_round_trip_handwritten(rel2):
    texts = [
        "forall y. theta(zero, y, y)",
        "exists! z. theta(x, y, z)",
        "x = y -> (y = x -> x = x)",
        "!(x = y & y = z) | x = z",
        "exists x. forall y. theta(x, y, y)",
    ]
    for text in texts:
        f = fm.parse_formula(text, rel2)
        assert fm.parse_formula(fm.pretty_print(f), rel2) == f


def test_pretty_print_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        s = random_semigroup(rng, max_m=6)
        f = random_formula(rng, s)
        printed = fm.pretty_print(f)
        assert fm.parse_formula(printed, s) == f, printed


def test_free_variables_and_depth(rel2):
    f = fm.parse_formula("forall x. exists y. theta(x, y, z) & x = w", rel2)
    assert fm.free_variables(f) == {"z", "w"}
    assert fm.quantifier_depth(f) == 2


def _tree(applies, ands):
    """A quantifier chain "forall a. exists b. exists! c." over an equality
    whose left side nests `applies` binary applications, under `ands`
    conjuncts in which a is free; its height is applies + ands + 5."""
    term = fm.Var("a")
    for i in range(applies):
        term = fm.Apply("g", (term, fm.Var("x" if i % 2 else "c")))
    f = fm.EqualityAtom(term, fm.Var("b"))
    for cls, var in ((fm.ExistsUnique, "c"), (fm.Exists, "b"), (fm.Forall, "a")):
        f = cls(var, f)
    for _ in range(ands):
        f = fm.And(f, fm.EqualityAtom(fm.Var("y"), fm.Var("a")))
    return f


def _analyses(f):
    return fm.free_variables(f), fm.quantifier_depth(f), max(level for *_, level in fm._nodes(f))


def _reference_analyses(f):
    return reference_free_variables(f), reference_quantifier_depth(f), reference_height(f)


def test_tree_analyses_match_recursive_reference():
    rng = np.random.default_rng(18)
    for _ in range(400):
        s = random_semigroup(rng, max_m=6)
        f = random_formula(rng, s, max_quant=3)
        assert _analyses(f) == _reference_analyses(f), fm.pretty_print(f)
    for applies in (0, 1, 2, 7, 40):
        for ands in (0, 1, 3):
            f = _tree(applies, ands)
            assert _analyses(f) == _reference_analyses(f)
            assert fm.quantifier_depth(f) == 3
            free = ({"x"} if applies > 1 else set()) | ({"y", "a"} if ands else set())
            assert fm.free_variables(f) == free
            assert fm.free_variables(fm.Not(fm.Implies(f, f))) == fm.free_variables(f)


@pytest.mark.parametrize("applies", [0, 40, 90])
def test_parse_height_limit_matches_recursive_reference(applies):
    s = FiniteStructure(2, functions={"g": FunctionSymbol(2, [[0, 1], [1, 0]])})
    for height in (fm.MAX_NESTING, fm.MAX_NESTING + 1):
        f = _tree(applies, height - applies - 5)
        assert reference_height(f) == height
        if height > fm.MAX_NESTING:
            text = fm._render(f, 0)  # pretty_print refuses such a tree itself
            with pytest.raises(FormulaSyntaxError, match=f"deeper than {fm.MAX_NESTING} levels"):
                fm.parse_formula(text, s)
        else:
            assert fm.parse_formula(fm.pretty_print(f), s) == f


def test_hand_built_trees_past_the_limit_are_refused():
    # the evaluation and the printer recurse once per level; past the limit
    # a hand-built tree is refused with one line instead of a RecursionError
    s = certified(catalog.cyclic_group(3))
    f = fm.parse_formula("x = x", s)
    for _ in range(fm.MAX_NESTING - 2):
        f = fm.Not(f)
    assert reference_height(f) == fm.MAX_NESTING  # the atom's terms are one level below it
    assert definable_set(s, f, "x").all() and fm.pretty_print(f).startswith("!!")
    for nots in (1, 5000):
        deep = f
        for _ in range(nots):
            deep = fm.Not(deep)
        calls = (lambda: definable_set(s, deep, "x"), lambda: eval_formula(s, deep, {"x": 0}),
                 lambda: fm.pretty_print(deep))
        for call in calls:
            with pytest.raises(FormulaSyntaxError) as info:
                call()
            assert str(info.value) == f"formula nests deeper than {fm.MAX_NESTING} levels"


def _lexed(tokenize, text):
    try:
        return [(t.kind, t.value, t.line, t.column) for t in tokenize(text)]
    except FormulaSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=LEXER_ALPHABET, max_size=40))
def test_tokenize_matches_reference_lexer(text):
    assert _lexed(fm._tokenize, text) == _lexed(reference_tokenize, text)
