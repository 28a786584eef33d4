"""Shared test utilities: independent oracles and seeded generators."""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

import finconv as fc
import finconv.formulas as fm
from finconv import catalog
from finconv.errors import FormulaSyntaxError
from finconv.formulas import _PUNCT, _Token
from finconv.levy import LevyValidationReport
from finconv.structures import certificate_of


# --- structure zoo -----------------------------------------------------------

def certified(s):
    fc.verify_semigroup(s)
    return s


@lru_cache(maxsize=None)
def catalog_monoid(kind: str, a: int, b: int, perm_seed: int):
    """A certified catalog monoid: Z_a ("cyclic"), Z_a x Z_b ("group"), J_a
    ("chain") or Z_a x J_b (any other kind), relabelled by a seeded
    permutation unless perm_seed < 0."""
    if kind == "cyclic":
        base = catalog.cyclic_group(a)
    elif kind == "group":
        base = catalog.product_of(certified(catalog.cyclic_group(a)), certified(catalog.cyclic_group(b)))
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


def capped_addition(k):
    """min(x + y, k) on {0, ..., k}: a monoid whose elements below k lie in no group."""
    i = np.arange(k + 1)
    return certified(catalog.from_add_table(np.minimum(i[:, None] + i[None, :], k)))


def random_semigroup(rng, max_m=16):
    """A random verified commutative monoid: cyclic groups, chains, their
    products, all under a random relabeling of the universe."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        base = catalog.cyclic_group(int(rng.integers(1, max_m + 1)))
    elif kind == 1:
        base = catalog.chain_semilattice(int(rng.integers(1, max_m + 1)))
    else:
        a = int(rng.integers(1, 5))
        b = int(rng.integers(1, max(2, max_m // a) + 1))
        first = catalog.cyclic_group(a) if kind == 2 else catalog.chain_semilattice(a)
        second = catalog.chain_semilattice(b) if kind == 2 else catalog.cyclic_group(b)
        base = catalog.product_of(certified(first), certified(second))
    perm = rng.permutation(base.size)
    return certified(catalog.relabeled(certified(base), perm))


def random_measure(s, rng):
    return fc.measure(s, rng.dirichlet(np.ones(s.size)))


def interior_measure(s, rng, floor=0.1):
    """Random measure bounded away from the simplex boundary."""
    w = (1 - floor) * rng.dirichlet(np.ones(s.size)) + floor / s.size
    return fc.measure(s, w)


def conditioned_chain_root(chain, rng, bottom_mass):
    """Chain root with a heavy bottom element, keeping high powers of its
    cumulative function numerically visible."""
    m = chain.size
    w = (1 - bottom_mass) * rng.dirichlet(np.ones(m))
    w[0] += bottom_mass
    return fc.measure(chain, w)


def same_generator(a: dict, b: dict) -> bool:
    """Dict equality with arrays compared by dtype, shape and bytes, as a
    path generator holds its weights in an array."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)):
                return False
            if (x.dtype, x.shape, x.tobytes()) != (y.dtype, y.shape, y.tobytes()):
                return False
        elif x != y:
            return False
    return True


# --- independent oracles ------------------------------------------------------

def scalar_eval(s, f, env):
    """Plain recursive evaluation with python ints, no vectorization."""

    def term(t, env):
        if isinstance(t, fm.Var):
            return env[t.name]
        if isinstance(t, fm.Const):
            return t.index
        return int(s.functions[t.name].table[tuple(term(a, env) for a in t.args)])

    def go(f, env):
        if isinstance(f, fm.RelationAtom):
            return bool(s.relations[f.name].table[tuple(term(a, env) for a in f.args)])
        if isinstance(f, fm.EqualityAtom):
            return term(f.left, env) == term(f.right, env)
        if isinstance(f, fm.Not):
            return not go(f.body, env)
        if isinstance(f, fm.And):
            return go(f.left, env) and go(f.right, env)
        if isinstance(f, fm.Or):
            return go(f.left, env) or go(f.right, env)
        if isinstance(f, fm.Implies):
            return (not go(f.left, env)) or go(f.right, env)
        values = [go(f.body, {**env, f.var: v}) for v in range(s.size)]
        if isinstance(f, fm.Forall):
            return all(values)
        if isinstance(f, fm.Exists):
            return any(values)
        return sum(values) == 1

    return go(f, env)


def bincount_convolve(cert, a, b):
    """a * b by one bincount of the outer product over the certificate's
    flattened table: the reference kernel whose bits every product keeps."""
    m = a.shape[0]
    return np.bincount(cert.add_table.ravel(), weights=np.multiply.outer(a, b).ravel(), minlength=m)


def iterative_power(mu, n):
    """Repeated convolution, the order conv_power does not use."""
    out = fc.dirac(mu.structure, mu.structure.certificate.zero)
    for _ in range(n):
        out = fc.convolve(out, mu)
    return out


def cyclic_exp_oracle(mu, r):
    """Exponential via the character transform on a cyclic group."""
    c = np.fft.fft(mu.weights)
    w = np.fft.ifft(np.exp(r * (c - 1.0))).real
    return fc.measure(mu.structure, np.maximum(w, 0.0))


def direct_series_exp(mu, r, terms=200):
    """Plain partial sum of the exponential series, no truncation logic."""
    acc = np.zeros(mu.size)
    power = fc.dirac(mu.structure, mu.structure.certificate.zero)
    coeff = math.exp(-r)
    for n in range(terms):
        acc = acc + coeff * power.weights
        power = fc.convolve(power, mu)
        coeff = coeff * r / (n + 1)
    return acc


def fd_tangent_gradient(jfun, w, eps=1e-6):
    """Central differences along the simplex-tangent directions e_i - u."""
    m = w.size
    out = np.empty(m)
    for i in range(m):
        d = np.full(m, -1.0 / m)
        d[i] += 1.0
        out[i] = (jfun(w + eps * d) - jfun(w - eps * d)) / (2 * eps)
    return out


def reference_tick_pairs(timeline):
    """The increment and division pairs as validate_levy enumerated them
    before it listed them once: locate on the tick sum (Fraction or float
    arithmetic) and ratio on each later tick."""
    ticks = timeline.ticks
    increments = [
        (i, j, timeline.locate(ticks[i] + ticks[j]))
        for i in range(len(ticks))
        for j in range(i, len(ticks))
        if timeline.locate(ticks[i] + ticks[j]) is not None
    ]
    divisions = [
        (i, j, timeline.ratio(ticks[j], ticks[i]))
        for i in range(len(ticks))
        for j in range(i + 1, len(ticks))
        if timeline.ratio(ticks[j], ticks[i]) is not None
    ]
    return increments, divisions


def reference_validate_levy(path, tol):
    """validate_levy's former scan, one convolve and one tv_distance per
    tick pair, kept as the reference its report must match bit for bit."""
    ticks = path.timeline.ticks
    marg = path.marginals
    zero = certificate_of(path.structure).zero
    start_error = fc.tv_distance(marg[0], fc.dirac(path.structure, zero))

    worst_inc, inc_at, inc_checked = 0.0, None, 0
    for i in range(len(ticks)):
        for j in range(i, len(ticks)):
            k = path.timeline.locate(ticks[i] + ticks[j])
            if k is None:
                continue
            inc_checked += 1
            v = fc.tv_distance(marg[k], fc.convolve(marg[i], marg[j]))
            if v > worst_inc:
                worst_inc, inc_at = v, (float(ticks[i]), float(ticks[j]))

    worst_div, div_at, div_checked = 0.0, None, 0
    for i in range(len(ticks)):
        ratios = [(j, path.timeline.ratio(ticks[j], ticks[i])) for j in range(i + 1, len(ticks))]
        ratios = [(j, n) for j, n in ratios if n is not None]
        powers = fc.conv_powers(marg[i], [n for _, n in ratios])
        for (j, n), powered in zip(ratios, powers):
            div_checked += 1
            v = fc.tv_distance(powered, marg[j])
            if v > worst_div:
                worst_div, div_at = v, (float(ticks[j]), n)

    return LevyValidationReport(
        tol=float(tol),
        start_error=start_error,
        worst_increment=worst_inc,
        increment_at=inc_at,
        increments_checked=inc_checked,
        worst_division=worst_div,
        division_at=div_at,
        divisions_checked=div_checked,
    )


def report_bits(report) -> tuple:
    """A validation report's fields with every float as its hex bits."""
    return tuple(
        v.hex() if isinstance(v, float) else tuple(map(repr, v)) if isinstance(v, tuple) else v
        for v in dataclasses.astuple(report)
    )


# --- random formulas -----------------------------------------------------------

def random_formula(rng, s, free_var="x", max_quant=2, tries=50):
    """A random formula whose free-variable set is exactly {free_var}."""
    names = sorted(s.element_names) if s.element_names else []
    functions = sorted(s.functions)
    relations = sorted(s.relations)

    def term(scope, depth):
        roll = rng.random()
        if functions and roll < 0.25 and depth > 0:
            name = functions[int(rng.integers(len(functions)))]
            arity = s.functions[name].arity
            return fm.Apply(name, tuple(term(scope, depth - 1) for _ in range(arity)))
        if names and roll < 0.45:
            label = names[int(rng.integers(len(names)))]
            return fm.Const(label, s.element_names[label])
        return fm.Var(scope[int(rng.integers(len(scope)))])

    def atom(scope):
        if relations and rng.random() < 0.6:
            name = relations[int(rng.integers(len(relations)))]
            arity = s.relations[name].arity
            return fm.RelationAtom(name, tuple(term(scope, 1) for _ in range(arity)))
        return fm.EqualityAtom(term(scope, 1), term(scope, 1))

    def build(scope, depth, quant_budget):
        roll = rng.random()
        if depth <= 0:
            return atom(scope)
        if roll < 0.2 and quant_budget > 0:
            var = f"q{quant_budget}"
            body = build(scope + [var], depth - 1, quant_budget - 1)
            kind = int(rng.integers(0, 3))
            cls = (fm.Forall, fm.Exists, fm.ExistsUnique)[kind]
            return cls(var, body)
        if roll < 0.35:
            return fm.Not(build(scope, depth - 1, quant_budget))
        if roll < 0.9:
            cls = (fm.And, fm.Or, fm.Implies)[int(rng.integers(0, 3))]
            return cls(
                build(scope, depth - 1, quant_budget),
                build(scope, depth - 1, quant_budget),
            )
        return atom(scope)

    for _ in range(tries):
        f = build([free_var], int(rng.integers(1, 4)), max_quant)
        if fm.free_variables(f) == {free_var}:
            return f
    return fm.EqualityAtom(fm.Var(free_var), fm.Var(free_var))


# --- formula analysis reference ------------------------------------------------

def _reference_children(node) -> tuple:
    if isinstance(node, (fm.Var, fm.Const)):
        return ()
    if isinstance(node, (fm.Apply, fm.RelationAtom)):
        return node.args
    if isinstance(node, (fm.EqualityAtom, fm.And, fm.Or, fm.Implies)):
        return (node.left, node.right)
    return (node.body,)


def reference_free_variables(node, bound=frozenset()) -> set[str]:
    """Free variables by plain recursion: a quantifier binds its variable in
    its body, a variable below no binder of its name is free."""
    if isinstance(node, fm.Var):
        return set() if node.name in bound else {node.name}
    if isinstance(node, fm.QUANTIFIERS):
        bound = bound | {node.var}
    return set().union(*(reference_free_variables(c, bound) for c in _reference_children(node)))


def reference_quantifier_depth(node) -> int:
    """Quantifier nesting by plain recursion over the formula nodes."""
    if isinstance(node, fm.QUANTIFIERS):
        return 1 + reference_quantifier_depth(node.body)
    if isinstance(node, fm.Not):
        return reference_quantifier_depth(node.body)
    if isinstance(node, (fm.And, fm.Or, fm.Implies)):
        return max(reference_quantifier_depth(node.left), reference_quantifier_depth(node.right))
    return 0


def reference_height(node) -> int:
    """Levels of a syntax tree, terms included, by plain recursion."""
    return 1 + max(map(reference_height, _reference_children(node)), default=0)


# --- lexer reference ----------------------------------------------------------

def reference_tokenize(text: str) -> list[_Token]:
    """The character-by-character lexer that formulas._tokenize replaced."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens
