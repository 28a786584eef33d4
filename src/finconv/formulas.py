"""First-order formula syntax: AST nodes, parser, and printer.

Concrete grammar (ASCII operators, quantifiers extend maximally to the
right, precedence not > and > or > implies):

    formula := quant | impl
    quant   := ("forall" | "exists" | "exists!") VAR "." formula
    impl    := disj ["->" impl]
    disj    := conj {"|" conj}
    conj    := neg {"&" neg}
    neg     := "!" neg | "(" formula ")" | atom
    atom    := IDENT "(" term {"," term} ")" | term "=" term
    term    := VAR | IDENT | IDENT "(" term {"," term} ")"

Identifiers are runs of letters, digits and underscores, Unicode ones
included (each character passes str.isalnum() or is "_"); names declared
as constants or elements of the structure resolve to constants before
anything is read as a variable, and shadowing such a name with a bound
variable is a parse error.

A formula may nest at most MAX_NESTING levels: brackets, negations,
quantifier bodies, right sides of "->" and argument lists while parsing,
and the height of the finished syntax tree, so that neither the parser nor
the recursive walks over the tree can run out of Python stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ArityError, FormulaSyntaxError, UnknownSymbolError

MAX_NESTING = 100


# --- AST ---------------------------------------------------------------

class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str
    index: int


@dataclass(frozen=True)
class Apply(Term):
    name: str
    args: tuple[Term, ...]


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class RelationAtom(Formula):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class EqualityAtom(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ExistsUnique(Formula):
    var: str
    body: Formula


_QUANTIFIER_NODES = {"forall": Forall, "exists": Exists, "exists!": ExistsUnique}  # spelling -> node
_SPELLINGS = {node: word for word, node in _QUANTIFIER_NODES.items()}
QUANTIFIERS = tuple(_SPELLINGS)
KEYWORDS = frozenset(word.rstrip("!") for word in _QUANTIFIER_NODES)


def _term_vars(t: Term, out: set[str]) -> None:
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, Apply):
        for a in t.args:
            _term_vars(a, out)


def free_variables(f: Formula) -> frozenset[str]:
    """Set of variable names occurring free in f."""
    out: set[str] = set()

    def walk(node: Formula, bound: frozenset[str]) -> None:
        if isinstance(node, RelationAtom):
            names: set[str] = set()
            for a in node.args:
                _term_vars(a, names)
            out.update(names - bound)
        elif isinstance(node, EqualityAtom):
            names = set()
            _term_vars(node.left, names)
            _term_vars(node.right, names)
            out.update(names - bound)
        elif isinstance(node, Not):
            walk(node.body, bound)
        elif isinstance(node, (And, Or, Implies)):
            walk(node.left, bound)
            walk(node.right, bound)
        else:
            walk(node.body, bound | {node.var})

    walk(f, frozenset())
    return frozenset(out)


def _height(node) -> int:
    """Levels of node's syntax tree, terms included, counted without recursion."""
    height, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        for value in vars(node).values():
            stack.extend((c, level + 1) for c in (value if isinstance(value, tuple) else (value,))
                         if isinstance(c, (Formula, Term)))
    return height


def quantifier_depth(f: Formula) -> int:
    """Maximum nesting depth of quantifiers (drives the evaluation budget)."""
    if isinstance(f, QUANTIFIERS):
        return 1 + quantifier_depth(f.body)
    if isinstance(f, Not):
        return quantifier_depth(f.body)
    if isinstance(f, (And, Or, Implies)):
        return max(quantifier_depth(f.left), quantifier_depth(f.right))
    return 0


# --- Lexer -------------------------------------------------------------

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "=": "EQUALS",
    "&": "AMP",
    "|": "PIPE",
    "!": "BANG",
}

# one match per token or blank; in str patterns \w is str.isalnum() or "_",
# and \s is str.isspace(), so Unicode letters, digits and spaces count
_TOKEN = re.compile(r"(?P<NEWLINE>\n)|\s|(?P<ARROW>->)|(?P<IDENT>\w+)|(?P<CHAR>.)", re.DOTALL)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, value = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "CHAR":
            if value not in _PUNCT:
                raise FormulaSyntaxError(f"unexpected character {value!r}", line, col)
            tokens.append(_Token(_PUNCT[value], value, line, col))
        elif kind is not None:
            tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# --- Parser ------------------------------------------------------------

class _Parser:
    """Recursive-descent parser, resolving names against a signature.

    The signature object must expose function_arity/relation_arity/
    constant_index, each returning None for undeclared names.
    """

    def __init__(self, text: str, signature):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = signature
        self.bound: list[str] = []
        self.depth = 0  # levels open on the parser's stack

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.value if tok.kind != "EOF" else "end of input"
            raise FormulaSyntaxError(f"expected {what}, got {got!r}", tok.line, tok.column)
        return self.next()

    def too_deep(self, tok: _Token) -> FormulaSyntaxError:
        return FormulaSyntaxError(f"formula nests deeper than {MAX_NESTING} levels", tok.line, tok.column)

    def nested(self, tok: _Token, production):
        """production(), parsed one level deeper than tok."""
        if self.depth == MAX_NESTING:
            raise self.too_deep(tok)
        self.depth += 1
        result = production()
        self.depth -= 1
        return result

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "EOF":
            raise FormulaSyntaxError(f"unexpected input {tok.value!r} after formula", tok.line, tok.column)
        if _height(f) > MAX_NESTING:  # long chains of "&" or "|" nest to the left
            raise self.too_deep(self.tokens[0])
        return f

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in KEYWORDS:
            return self.quantified()
        return self.implication()

    def quantified(self) -> Formula:
        spelling = self.next().value
        if spelling + "!" in _QUANTIFIER_NODES and self.peek().kind == "BANG":
            spelling += self.next().value
        var_tok = self.expect("IDENT", "a variable name")
        name = var_tok.value
        if name in KEYWORDS:
            raise FormulaSyntaxError(f"{name!r} is a keyword, not a variable", var_tok.line, var_tok.column)
        if self.sig.constant_index(name) is not None:
            raise FormulaSyntaxError(
                f"bound variable {name!r} shadows a constant", var_tok.line, var_tok.column
            )
        if self.sig.function_arity(name) is not None or self.sig.relation_arity(name) is not None:
            raise FormulaSyntaxError(
                f"bound variable {name!r} shadows a declared symbol", var_tok.line, var_tok.column
            )
        dot = self.expect("DOT", "'.' after the bound variable")
        self.bound.append(name)
        body = self.nested(dot, self.formula)
        self.bound.pop()
        return _QUANTIFIER_NODES[spelling](name, body)

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "ARROW":
            return Implies(left, self.nested(self.next(), self.implication))
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "PIPE":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.negation()
        while self.peek().kind == "AMP":
            self.next()
            f = And(f, self.negation())
        return f

    def negation(self) -> Formula:
        tok = self.peek()
        if tok.kind == "BANG":
            self.next()
            return Not(self.nested(tok, self.negation))
        if tok.kind == "LPAREN":
            self.next()
            f = self.nested(tok, self.formula)
            self.expect("RPAREN", "')'")
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value not in KEYWORDS:
            arity = self.sig.relation_arity(tok.value)
            if arity is not None and self.tokens[self.pos + 1].kind == "LPAREN":
                head = self.next()
                args = self.arguments()
                if len(args) != arity:
                    raise ArityError(
                        f"relation {head.value!r} takes {arity} arguments, got {len(args)} "
                        f"(line {head.line}, column {head.column})"
                    )
                return RelationAtom(head.value, args)
        left = self.term()
        self.expect("EQUALS", "'=' or a relation atom")
        right = self.term()
        return EqualityAtom(left, right)

    def arguments(self) -> tuple[Term, ...]:
        return self.nested(self.expect("LPAREN", "'('"), self.argument_list)

    def argument_list(self) -> tuple[Term, ...]:
        args = [self.term()]
        while self.peek().kind == "COMMA":
            self.next()
            args.append(self.term())
        self.expect("RPAREN", "')'")
        return tuple(args)

    def term(self) -> Term:
        tok = self.expect("IDENT", "a term")
        name = tok.value
        if name in KEYWORDS:
            raise FormulaSyntaxError(f"{name!r} is a keyword, not a term", tok.line, tok.column)
        if self.peek().kind == "LPAREN":
            arity = self.sig.function_arity(name)
            if arity is None:
                if self.sig.relation_arity(name) is not None:
                    raise FormulaSyntaxError(
                        f"relation {name!r} used as a term", tok.line, tok.column
                    )
                raise UnknownSymbolError(
                    f"unknown function symbol {name!r} (line {tok.line}, column {tok.column})"
                )
            args = self.arguments()
            if len(args) != arity:
                raise ArityError(
                    f"function {name!r} takes {arity} arguments, got {len(args)} "
                    f"(line {tok.line}, column {tok.column})"
                )
            return Apply(name, args)
        if name in self.bound:
            return Var(name)
        idx = self.sig.constant_index(name)
        if idx is not None:
            return Const(name, idx)
        if self.sig.function_arity(name) is not None or self.sig.relation_arity(name) is not None:
            raise FormulaSyntaxError(
                f"symbol {name!r} needs arguments", tok.line, tok.column
            )
        return Var(name)


def parse_formula(text: str, signature) -> Formula:
    """Parse concrete syntax against a structure's signature."""
    return _Parser(text, signature).parse()


# --- Printer -----------------------------------------------------------

def _print_term(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.name}({', '.join(_print_term(a) for a in t.args)})"


def _render(f: Formula, level: int) -> str:
    # levels: 0 formula, 1 impl, 2 disj, 3 conj, 4 neg/atom
    if isinstance(f, QUANTIFIERS):
        s = f"{_SPELLINGS[type(f)]} {f.var}. {_render(f.body, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(f, Implies):
        s = f"{_render(f.left, 2)} -> {_render(f.right, 1)}"
        return f"({s})" if level > 1 else s
    if isinstance(f, Or):
        s = f"{_render(f.left, 2)} | {_render(f.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(f, And):
        s = f"{_render(f.left, 3)} & {_render(f.right, 4)}"
        return f"({s})" if level > 3 else s
    if isinstance(f, Not):
        return f"!{_render(f.body, 4)}"
    if isinstance(f, RelationAtom):
        return f"{f.name}({', '.join(_print_term(a) for a in f.args)})"
    return f"{_print_term(f.left)} = {_print_term(f.right)}"


def pretty_print(f: Formula) -> str:
    """Render a formula so that parse_formula(pretty_print(f)) == f."""
    return _render(f, 0)
