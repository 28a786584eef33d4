import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finconv.formulas as fm
from finconv import catalog
from finconv.errors import ArityError, FormulaSyntaxError, UnknownSymbolError
from finconv.structures import FiniteStructure, FunctionSymbol
from helpers import certified, random_formula, random_semigroup, reference_tokenize

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


def _lexed(tokenize, text):
    try:
        return [(t.kind, t.value, t.line, t.column) for t in tokenize(text)]
    except FormulaSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=LEXER_ALPHABET, max_size=40))
def test_tokenize_matches_reference_lexer(text):
    assert _lexed(fm._tokenize, text) == _lexed(reference_tokenize, text)
