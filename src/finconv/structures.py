"""Finite first-order structures, formula evaluation, and semigroup certification.

A structure is a finite universe {0, .., m-1} with interpreted function,
relation, and constant symbols. Definable sets are realized as boolean
vectors over the universe (on a finite structure every subset is definable
in the language expanded by one constant per element, so the boolean
vector is the general case).

Formula evaluation enumerates quantifiers over the whole universe; a
formula with q nested quantifier/grid axes costs m**q and is rejected
beyond the evaluation budget. A relation atom over distinct variables is
read by slicing its table, not by a gather. A quantifier is a 0/1 matrix
product when its condition (the conjuncts of its body, or of the negated
body under forall) splits into two sides that share only the bound
variable w: with the sides' 0/1 tables as matrices G and H over w, the
count of w satisfying both is G^T H, exact in float32, and exists, forall
and exists! read counts > 0, == 0 and == 1.
Every other quantifier broadcasts its body over every value of w. A truth
table is filled in blocks of rows of its first grid variable, each block
as large as keeps its largest array (a product's sides and counts, or a
broadcast body) within half the table, and one row in ranges of the second
grid variable where a single row would not fit; so the peak is the output
plus a block of scratch, not the m**q cells of the whole enumeration.

Semigroup certification works on the m**2 addition table wherever sums
are unique: a declared function's table is the sum, and a formula's table
is read off its graph one block of x-rows at a time. Commutativity and the
neutral element are read off the table, and associativity is Light's test
over a greedy generating set, O(m**2) per generator; the x-slice scan runs
only to name the first counterexample once a generator fails. Only a formula
whose sums are not unique is checked on its m**3 boolean graph: m**3
float32 counts per x-slice, O(m**5) time in all. A passing
certificate is installed on the structure, and every operation of the
convolution algebra reaches the monoid through `certificate_of`, the one
guard against an uncertified structure.
"""

from __future__ import annotations

import hashlib
import math
import reprlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import formulas as fm
from .errors import (
    BudgetExceededError,
    FreeVariableError,
    ModelError,
    NotCertifiedError,
)
from .transform import Semicharacters, semicharacters

EVAL_BUDGET = 10**8
MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # numpy's limit on array dimensions
RELATIONAL_ASSOC_BUDGET = 10**11  # m**5 steps of the associativity scan when sums are not unique

SEMIGROUP_VARS = ("x", "y", "z")


def as_integer(v, what: str) -> int:
    """A Python or NumPy integer, or a float with an integral value; never a
    boolean. The one reading of an integer in a model or measure file."""
    if type(v) is int:
        return v
    if isinstance(v, np.integer) or (type(v) is float and v.is_integer()):
        return int(v)
    raise ModelError(f"{what} must be an integer, got {reprlib.repr(v)}")


def symbol_arity(v, what: str) -> int:
    """An arity read as an integer (as_integer) and refused past MAX_AXES,
    before any table or tuple of that many axes is built."""
    arity = as_integer(v, what)
    if arity > MAX_AXES:
        raise ModelError(f"{what} is {arity}, past numpy's limit of {MAX_AXES} array axes")
    return arity


def element_of(label, names: dict[str, int] | None) -> int:
    """An element given as one of `names` or as an integer (as_integer), the
    one reading of an element in a model or measure file; the range is the
    caller's to check."""
    if isinstance(label, str):
        if names is None or label not in names:
            raise ModelError(f"unknown element name {reprlib.repr(label)}")
        return names[label]
    return as_integer(label, "an element")


def _read_only(table: np.ndarray) -> np.ndarray:
    view = table.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class FunctionSymbol:
    arity: int
    table: np.ndarray  # int64, shape (m,)*arity, entries in [0, m); read-only

    def __post_init__(self):
        # a read-only view of the structure's own copy; only a certificate
        # takes the writeable array under it (table.base), for its kernels
        object.__setattr__(self, "table", _read_only(np.array(self.table, dtype=np.int64)))


@dataclass(frozen=True)
class RelationSymbol:
    arity: int
    table: np.ndarray  # bool, shape (m,)*arity

    @classmethod
    def from_tuples(cls, arity: int, tuples, size: int) -> "RelationSymbol":
        if size**arity > EVAL_BUDGET:
            raise ModelError(
                f"relation table of m**{arity} = {size}**{arity} cells exceeds budget {EVAL_BUDGET}"
            )
        table = np.zeros((size,) * arity, dtype=bool)
        for tup in tuples:
            if len(tup) != arity:
                raise ModelError(f"relation tuple {tup} does not have arity {arity}")
            for v in tup:
                if not 0 <= int(v) < size:
                    raise ModelError(f"relation tuple {tup} has entry outside the universe")
            table[tuple(int(v) for v in tup)] = True
        return cls(arity, table)

    def tuples(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in idx) for idx in np.argwhere(self.table)]


class FiniteStructure:
    """A finite model: universe size plus interpreted symbols.

    Immutable after construction except for the certificate slot, which
    `verify_semigroup` fills in once.
    """

    def __init__(
        self,
        size: int,
        functions: dict[str, FunctionSymbol] | None = None,
        relations: dict[str, RelationSymbol] | None = None,
        constants: dict[str, int] | None = None,
        element_names: dict[str, int] | None = None,
        semigroup: dict | None = None,
    ):
        if size < 1:
            raise ModelError("universe must have at least one element")
        self.size = int(size)
        self.functions = dict(functions or {})
        self.relations = dict(relations or {})
        self.constants = {k: int(v) for k, v in (constants or {}).items()}
        self.element_names = dict(element_names) if element_names else None
        self.semigroup_spec = dict(semigroup) if semigroup else None
        self.certificate: SemigroupCertificate | None = None
        self._fingerprint: str | None = None
        self._validate()

    def _validate(self) -> None:
        m = self.size
        for name, fn in self.functions.items():
            if fn.table.shape != (m,) * fn.arity:
                raise ModelError(f"function {name!r}: table shape {fn.table.shape} is not (m,)*{fn.arity}")
            if fn.table.size and (fn.table.min() < 0 or fn.table.max() >= m):
                raise ModelError(f"function {name!r}: table entry outside the universe")
            if fn.arity < 1:
                raise ModelError(f"function {name!r}: arity must be at least 1")
        for name, rel in self.relations.items():
            if rel.table.shape != (m,) * rel.arity:
                raise ModelError(f"relation {name!r}: table shape {rel.table.shape} is not (m,)*{rel.arity}")
            if rel.arity < 1:
                raise ModelError(f"relation {name!r}: arity must be at least 1")
        for name, idx in self.constants.items():
            if not 0 <= idx < m:
                raise ModelError(f"constant {name!r} = {idx} outside the universe")
        if self.element_names is not None:
            if len(set(self.element_names.values())) != len(self.element_names):
                raise ModelError("element names are not injective")
            for name, idx in self.element_names.items():
                if not 0 <= int(idx) < m:
                    raise ModelError(f"element name {name!r} = {idx} outside the universe")
        if self.semigroup_spec is not None:
            keys = set(self.semigroup_spec)
            if keys not in ({"formula"}, {"function"}) or not all(
                isinstance(v, str) for v in self.semigroup_spec.values()
            ):
                raise ModelError('semigroup spec must be {"formula": ...} or {"function": ...} with a string')
            if "function" in self.semigroup_spec:
                fn = self.semigroup_spec["function"]
                if fn not in self.functions or self.functions[fn].arity != 2:
                    raise ModelError(f"semigroup function {fn!r} must be a declared binary function")

    # signature protocol used by the parser
    def function_arity(self, name: str) -> int | None:
        fn = self.functions.get(name)
        return fn.arity if fn else None

    def relation_arity(self, name: str) -> int | None:
        rel = self.relations.get(name)
        return rel.arity if rel else None

    def constant_index(self, name: str) -> int | None:
        if name in self.constants:
            return self.constants[name]
        if self.element_names and name in self.element_names:
            return self.element_names[name]
        return None

    def element_index(self, label) -> int:
        """Resolve an element given as a constant, an element name or an index."""
        idx = element_of(label, {**(self.element_names or {}), **self.constants})
        if not 0 <= idx < self.size:
            raise ModelError(f"element {reprlib.repr(label)} outside universe of size {self.size}")
        return idx

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            h = hashlib.sha1()
            h.update(str(self.size).encode())
            for name in sorted(self.functions):
                fn = self.functions[name]
                h.update(f"f:{name}:{fn.arity}".encode())
                h.update(fn.table.tobytes())
            for name in sorted(self.relations):
                rel = self.relations[name]
                h.update(f"r:{name}:{rel.arity}".encode())
                h.update(np.ascontiguousarray(rel.table).tobytes())
            for name in sorted(self.constants):
                h.update(f"c:{name}:{self.constants[name]}".encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __repr__(self):
        return f"FiniteStructure(size={self.size}, fingerprint={self.fingerprint[:12]})"


def same_structure(a: FiniteStructure, b: FiniteStructure) -> bool:
    """Same universe, symbols and chosen semigroup; the fingerprint leaves the
    semigroup spec out, so it is compared on its own."""
    return a is b or (
        a.size == b.size and a.semigroup_spec == b.semigroup_spec and a.fingerprint == b.fingerprint
    )


# --- Formula evaluation -------------------------------------------------

def _eval_term(t, s: FiniteStructure, bind: dict, rank: int):
    if isinstance(t, fm.Var):
        kind, val = bind[t.name]
        if kind == "value":
            return val
        depth, lo, hi = val  # the variable runs over lo..hi-1 along axis rank - depth
        shape = [1] * rank
        shape[rank - depth] = hi - lo
        return np.arange(lo, hi).reshape(shape)
    if isinstance(t, fm.Const):
        return t.index
    args = tuple(_eval_term(a, s, bind, rank) for a in t.args)
    return s.functions[t.name].table[args]


def _relation_view(table: np.ndarray, args, bind: dict, rank: int) -> np.ndarray | None:
    """table[args] by basic slicing and a transpose, with no gather, when
    every argument is a distinct variable; None otherwise. The result is made
    C-contiguous so that the reductions over a leading quantifier axis stream."""
    keys, axes = [], []
    for a in args:
        if not isinstance(a, fm.Var):
            return None
        kind, val = bind[a.name]
        if kind == "value":
            keys.append(val)
        else:
            depth, lo, hi = val
            keys.append(slice(lo, hi))
            axes.append(rank - depth)
    if len(set(axes)) < len(axes):
        return None
    order = sorted(range(len(axes)), key=axes.__getitem__)
    view = table[tuple(keys)].transpose(order)
    shape = [1] * rank
    for axis, n in zip(sorted(axes), view.shape):
        shape[axis] = n
    return np.ascontiguousarray(view.reshape(shape))


def _conjuncts(f: fm.Formula) -> list[fm.Formula]:
    """The top-level conjuncts of f."""
    if isinstance(f, fm.And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _negated_conjuncts(f: fm.Formula) -> list[fm.Formula]:
    """The top-level conjuncts of !f, by !(A -> B) = A & !B, !(A | B) = !A & !B
    and !!A = A."""
    if isinstance(f, fm.Implies):
        return _conjuncts(f.left) + _negated_conjuncts(f.right)
    if isinstance(f, fm.Or):
        return _negated_conjuncts(f.left) + _negated_conjuncts(f.right)
    if isinstance(f, fm.Not):
        return _conjuncts(f.body)
    return [fm.Not(f)]


def _axes(names, bind: dict, rank: int) -> set[int]:
    """The axes of a scope of `rank` axes that the variables `names` index."""
    return {rank - bind[v][1][0] for v in names if bind[v][0] == "axis"}


def _product_split(f, bind: dict, rank: int):
    """Split quantifier f's condition, the conjuncts of its body (or of the
    negated body under forall), into those without f.var and two sides that
    share no axis of the scope of `rank` axes; None if the conjuncts with
    f.var do not fall into at least two groups of axes. bind binds f.var too.

    Returns (outside, (axes, conjuncts), (axes, conjuncts)), all tuples, with
    the axes of each side sorted; a conjunct that uses f.var but no axis
    joins the second side.
    """
    return _split(f, rank, tuple(sorted((v, b[1][0]) for v, b in bind.items() if b[0] == "axis")))


@lru_cache(maxsize=1024)
def _split(f, rank: int, depths: tuple[tuple[str, int], ...]):
    """_product_split by the depth of each variable bound to an axis: the
    split depends on nothing else, so a region's blocks share one."""
    depth = dict(depths)
    conditions = _negated_conjuncts(f.body) if isinstance(f, fm.Forall) else _conjuncts(f.body)
    outside, loose, groups = [], [], []
    for c in conditions:
        free = fm.free_variables(c)
        if f.var not in free:
            outside.append(c)
            continue
        axes = {rank - depth[v] for v in free - {f.var} if v in depth}
        if not axes:
            loose.append(c)
            continue
        joined = [g for g in groups if g[0] & axes]
        groups = [g for g in groups if not g[0] & axes]
        groups.append((axes.union(*(a for a, _ in joined)), [d for _, ds in joined for d in ds] + [c]))
    if len(groups) < 2:
        return None
    *first, (last_axes, last) = groups
    left = tuple(d for _, ds in first for d in ds)
    left_axes = set().union(*(a for a, _ in first))
    return tuple(outside), (tuple(sorted(left_axes)), left), (tuple(sorted(last_axes)), tuple(last + loose))


def _eval_all(conjuncts, s: FiniteStructure, bind: dict, shape: tuple[int, ...]):
    out = _eval_node(conjuncts[0], s, bind, shape)
    for c in conjuncts[1:]:
        out = np.logical_and(out, _eval_node(c, s, bind, shape))
    return out


def _with_rank(a, rank: int) -> np.ndarray:
    """a with leading unit axes up to `rank` axes, as broadcasting aligns it."""
    return np.reshape(a, (1,) * (rank - np.ndim(a)) + np.shape(a))


def _side(a, axes: tuple[int, ...], full: tuple[int, ...]) -> np.ndarray:
    """A side of a product quantifier as float32 of shape (m, cells of `axes`):
    a is its 0/1 table in the quantifier's scope `full`, which varies only
    along the bound variable (axis 0) and the scope axes `axes` (axis i + 1).
    The bound variable stays the leading axis, so the cast reads a in order."""
    dims = [0] + [i + 1 for i in axes]
    a = np.broadcast_to(_with_rank(a, len(full)), [n if i in dims else 1 for i, n in enumerate(full)])
    order = dims + [i for i in range(len(full)) if i not in dims]
    return np.ascontiguousarray(a.transpose(order), dtype=np.float32).reshape(full[0], -1)


def _quantify_product(f, s: FiniteStructure, bind: dict, inner: dict, shape: tuple[int, ...], split):
    """Quantifier f as a 0/1 matrix product: its condition is outside & G & H,
    where G and H share only the bound variable w, so that counts = G^T H
    counts the w satisfying both sides. exists is counts > 0, exists! is
    counts == 1, and forall, whose condition is the negated body, is
    counts == 0."""
    outside, (a_axes, left), (b_axes, right) = split
    full = (s.size,) + shape
    g = _side(_eval_all(left, s, inner, full), a_axes, full)
    h = _side(_eval_all(right, s, inner, full), b_axes, full)
    counts = g.T @ h  # sums of at most m < 2**24 products of 0/1 values: exact in float32
    hit = counts == 0 if isinstance(f, fm.Forall) else counts > 0 if isinstance(f, fm.Exists) else counts == 1
    axes = a_axes + b_axes
    hit = hit.reshape([shape[i] for i in axes]).transpose(np.argsort(axes))
    hit = hit.reshape([n if i in axes else 1 for i, n in enumerate(shape)])
    if not outside:
        return hit
    out = _eval_all(outside, s, bind, shape)
    return np.logical_or(np.logical_not(out), hit) if isinstance(f, fm.Forall) else np.logical_and(out, hit)


def _eval_node(f, s: FiniteStructure, bind: dict, shape: tuple[int, ...]):
    """f's truth table over the scope `shape`, as an array that broadcasts to
    it and varies only along the axes of f's free variables."""
    rank = len(shape)
    if isinstance(f, fm.RelationAtom):
        table = s.relations[f.name].table
        view = _relation_view(table, f.args, bind, rank)
        if view is not None:
            return view
        return table[tuple(_eval_term(a, s, bind, rank) for a in f.args)]
    if isinstance(f, fm.EqualityAtom):
        return np.equal(_eval_term(f.left, s, bind, rank), _eval_term(f.right, s, bind, rank))
    if isinstance(f, fm.Not):
        return np.logical_not(_eval_node(f.body, s, bind, shape))
    if isinstance(f, fm.And):
        return np.logical_and(_eval_node(f.left, s, bind, shape), _eval_node(f.right, s, bind, shape))
    if isinstance(f, fm.Or):
        return np.logical_or(_eval_node(f.left, s, bind, shape), _eval_node(f.right, s, bind, shape))
    if isinstance(f, fm.Implies):
        return np.logical_or(
            np.logical_not(_eval_node(f.left, s, bind, shape)), _eval_node(f.right, s, bind, shape)
        )
    # quantifier: the bound variable gets a new leading axis, so that the
    # arrays of the enclosing scope broadcast against the body unchanged
    inner = dict(bind)
    inner[f.var] = ("axis", (rank + 1, 0, s.size))
    split = _product_split(f, inner, rank)
    if split is not None:
        return _quantify_product(f, s, bind, inner, shape, split)
    body = _with_rank(_eval_node(f.body, s, inner, (s.size,) + shape), rank + 1)
    body = np.broadcast_to(body, (s.size,) + body.shape[1:])
    if isinstance(f, fm.Forall):
        return body.all(axis=0)
    if isinstance(f, fm.Exists):
        return body.any(axis=0)
    return np.count_nonzero(body, axis=0) == 1


def _scratch(f, m: int, bind: dict, shape: tuple[int, ...]) -> int:
    """Bytes of the largest array that evaluating f over `shape` materialises:
    a broadcast quantifier's body, or a product quantifier's two float32
    sides and its counts, taken together."""
    if isinstance(f, fm.Not):
        return _scratch(f.body, m, bind, shape)
    if isinstance(f, (fm.And, fm.Or, fm.Implies)):
        return max(_scratch(f.left, m, bind, shape), _scratch(f.right, m, bind, shape))
    if not isinstance(f, fm.QUANTIFIERS):
        return 0
    rank = len(shape)
    inner = dict(bind)
    inner[f.var] = ("axis", (rank + 1, 0, m))
    full = (m,) + shape
    split = _product_split(f, inner, rank)
    if split is None:
        body = m * math.prod(shape[i] for i in _axes(fm.free_variables(f), bind, rank))
        return max(body, _scratch(f.body, m, inner, full))
    outside, (a_axes, left), (b_axes, right) = split
    a, b = (math.prod(shape[i] for i in axes) for axes in (a_axes, b_axes))
    return max(
        4 * (a * m + b * m + a * b),
        *(_scratch(c, m, bind, shape) for c in outside),
        *(_scratch(c, m, inner, full) for c in left + right),
    )


def _check_budget(m: int, axes: int) -> None:
    if axes > 0 and m**axes > EVAL_BUDGET:
        raise BudgetExceededError(f"enumeration cost m**{axes} = {m}**{axes} exceeds budget {EVAL_BUDGET}")
    if axes > MAX_AXES:  # reached only at m = 1, where every power is within the budget
        raise BudgetExceededError(f"enumeration over {axes} axes exceeds numpy's limit of {MAX_AXES} array axes")


def _region_setup(s: FiniteStructure, f: fm.Formula, grid_vars, env) -> dict:
    """The bindings of f's non-grid variables; refuses a tree higher than
    MAX_NESTING, an unbound variable and an enumeration over EVAL_BUDGET."""
    fm.check_height(f)
    env = env or {}
    missing = fm.free_variables(f) - set(grid_vars) - set(env)
    if missing:
        raise FreeVariableError(f"unbound free variables: {sorted(missing)}")
    _check_budget(s.size, len(grid_vars) + fm.quantifier_depth(f))
    return {name: ("value", s.element_index(value)) for name, value in env.items() if name not in grid_vars}


def _block_size(cost, n: int, limit: int) -> int:
    """The largest block k in 1..n that the chord of cost between 1 and n
    keeps within limit, and 1 if none. Every array of a block is affine in
    k, so their largest, cost(k), is convex and lies under that chord.
    cost(n) counts the whole grid, twice limit, so it is never within it."""
    lo, hi = cost(1), cost(n)
    if lo >= limit:
        return 1
    return 1 + (limit - lo) * (n - 1) // (hi - lo)


def _region_rows(s: FiniteStructure, f: fm.Formula, grid_vars: tuple[str, ...], bind: dict):
    """Yield the truth table of f in blocks of rows, as (x, block): block[i]
    is the table at grid_vars[0] = x + i.

    Each block is one evaluation over a range of grid_vars[0]. Its size is
    chosen so that the largest array the evaluation materialises (_scratch:
    a broadcast quantifier body, or a product quantifier's sides and counts),
    and the block itself, stay within half the whole table. Where one row
    exceeds that, a block is one row, filled one range of grid_vars[1] at a
    time, sized the same way: at least one value of each.
    """
    m, n = s.size, len(grid_vars)
    bind = dict(bind)
    for i, v in enumerate(grid_vars[2:], 2):
        bind[v] = ("axis", (n - i, 0, m))

    def grid(x: int, rows: int, y: int = 0, cols: int = m) -> tuple[int, ...]:
        bind[grid_vars[0]] = ("axis", (n, x, x + rows))
        if n == 1:
            return (rows,)
        bind[grid_vars[1]] = ("axis", (n - 1, y, y + cols))
        return (rows, cols) + (m,) * (n - 2)

    def cost(rows: int, cols: int = m) -> int:
        shape = grid(0, rows, 0, cols)
        return max(math.prod(shape), _scratch(f, m, bind, shape))

    limit = m**n // 2
    rows = _block_size(cost, m, limit)
    cols = m if n == 1 or cost(1) <= limit else _block_size(lambda k: cost(1, k), m, limit)
    for x in range(0, m, rows):
        if cols == m:
            shape = grid(x, min(rows, m - x))
            yield x, np.broadcast_to(_eval_node(f, s, bind, shape), shape)
            continue
        row = np.empty((1,) + (m,) * (n - 1), dtype=bool)
        for y in range(0, m, cols):
            row[:, y : y + cols] = _eval_node(f, s, bind, grid(x, 1, y, min(cols, m - y)))
        yield x, row


def evaluate_region(
    s: FiniteStructure,
    f: fm.Formula,
    grid_vars: tuple[str, ...] = (),
    env: dict[str, int] | None = None,
) -> np.ndarray:
    """Truth table of f over the grid of `grid_vars`, other free vars from env.

    The result has shape (m,)*len(grid_vars), axis i indexed by grid_vars[i].
    It is filled in blocks of rows (see _region_rows), each block as large
    as keeps the largest array its evaluation makes within half the result;
    a quantifier whose condition splits into two sides sharing only its
    bound variable is one float32 matrix product, every other one a
    broadcast body. So the peak is the result plus a block and its scratch,
    not the m**axes cells of the whole enumeration.
    """
    if len(set(grid_vars)) < len(grid_vars):
        raise FreeVariableError(f"grid variables must be distinct, got {list(grid_vars)}")
    bind = _region_setup(s, f, grid_vars, env)
    if not grid_vars:
        return np.array(_eval_node(f, s, bind, ()), dtype=bool)
    out = np.empty((s.size,) * len(grid_vars), dtype=bool)
    for x, block in _region_rows(s, f, grid_vars, bind):
        out[x : x + len(block)] = block
    return out


def eval_formula(s: FiniteStructure, f: fm.Formula, env: dict[str, int] | None = None) -> bool:
    """Truth value of f with every free variable bound by env."""
    return bool(evaluate_region(s, f, (), env))


def definable_set(s: FiniteStructure, f: fm.Formula, free_var: str) -> np.ndarray:
    """Boolean vector of the elements satisfying a one-free-variable formula."""
    free = fm.free_variables(f)
    if free != {free_var}:
        raise FreeVariableError(
            f"expected exactly one free variable {free_var!r}, formula has {sorted(free)}"
        )
    return evaluate_region(s, f, (free_var,))


# --- Semigroup certification --------------------------------------------

AXIOM_NAMES = ("unique_sum", "commutativity", "associativity", "neutral_element")


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    holds: bool
    counterexample: tuple[int, ...] | None


@dataclass(frozen=True)
class SemigroupCertificate:
    """Outcome of exhaustively checking the four semigroup axioms.

    add_table is present whenever sums are unique; zero whenever a neutral
    element exists (verified unique when the other axioms hold). The first
    counterexample in lexicographic scan order is recorded per failed axiom.

    add_table becomes a read-only view of the array it is given. The
    convolution kernel alone reads that array through `_flat`, a writeable
    flat view of the same memory, since np.bincount copies a read-only
    index on every call.
    """

    add_table: np.ndarray | None
    zero: int | None
    axioms: tuple[AxiomCheck, AxiomCheck, AxiomCheck, AxiomCheck]

    def __post_init__(self):
        if self.add_table is not None:
            object.__setattr__(self, "_flat", self.add_table.ravel())
            object.__setattr__(self, "add_table", _read_only(self.add_table))

    @property
    def passed(self) -> bool:
        return all(a.holds for a in self.axioms)

    @cached_property
    def is_group(self) -> bool:
        """Whether every row x + . of the table is a permutation: a monoid
        whose every left translation is onto is a group. Computed on first
        use, so certification never pays for it."""
        if self.add_table is None:
            return False
        m = self.add_table.shape[0]
        return bool((np.sort(self.add_table, axis=1) == np.arange(m)).all())

    @cached_property
    def semicharacters(self) -> Semicharacters | None:
        """The semicharacter transform when the monoid is Clifford, else None
        (transform.semicharacters). Built on first use, so certification
        never pays for it."""
        return None if self.add_table is None else semicharacters(self.add_table)

    @cached_property
    def _ldiv(self) -> np.ndarray:
        """The left-division table of a group: ldiv[x, z] is the y with
        x + y = z, as intp. Built on first use."""
        m = self.add_table.shape[0]
        ldiv = np.empty((m, m), dtype=np.intp)
        ldiv[np.arange(m)[:, None], self.add_table] = np.arange(m)
        return ldiv

    def axiom(self, name: str) -> AxiomCheck:
        for a in self.axioms:
            if a.name == name:
                return a
        raise KeyError(name)


def _first_true(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True in C order, the lexicographic scan, or None.

    argmax allocates nothing the size of mask, unlike argwhere, which
    lists every True."""
    i = int(np.argmax(mask))
    if not mask.flat[i]:
        return None
    return tuple(int(v) for v in np.unravel_index(i, mask.shape))


def semigroup_formula(s: FiniteStructure) -> fm.Formula:
    """The structure's semigroup relation as a formula in x, y, z."""
    if s.semigroup_spec is None:
        raise ModelError("structure declares no semigroup")
    if "formula" in s.semigroup_spec:
        return fm.parse_formula(s.semigroup_spec["formula"], s)
    fn = s.semigroup_spec["function"]
    return fm.parse_formula(f"{fn}(x, y) = z", s)


def _generators(add: np.ndarray) -> list[int]:
    """A generating set of the operation `add`, chosen greedily: the smallest
    element outside the closure of the generators so far, until the closure
    is the whole universe. O(m**2) products in all."""
    m = add.shape[0]
    inside = np.zeros(m, dtype=bool)
    gens = []
    for g in range(m):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        new = np.array([g])
        while new.size:  # the newest elements times every element so far, both ways round
            members = np.flatnonzero(inside)
            products = np.concatenate((add[np.ix_(new, members)].ravel(), add[np.ix_(members, new)].ravel()))
            fresh = np.zeros(m, dtype=bool)  # a mask, not np.unique, whose first call imports numpy.ma
            fresh[products] = True
            new = np.flatnonzero(fresh & ~inside)
            inside[new] = True
    return gens


def _table_commutativity(add: np.ndarray) -> tuple[int, ...] | None:
    """First (x, y, z) at which theta(x, y, z) and theta(y, x, z) differ."""
    xy = _first_true(add != add.T)
    if xy is None:
        return None
    # the graph rows x+y and y+x first differ at the smaller of the two sums
    return (*xy, int(min(add[xy], add[xy[::-1]])))


def _table_associativity(add: np.ndarray) -> tuple[int, ...] | None:
    """First (x, y, z, w) in scan order at which associativity fails, or None.

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1961, section 1.2): the g with (x+g)+y = x+(g+y) for all x, y are closed
    under +, so + is associative once every generator passes. Only when one
    fails does the x-slice scan run, to name the first counterexample.
    """
    if all(np.array_equal(add[add[:, g]], add[:, add[g]]) for g in _generators(add)):
        return None
    for x in range(add.shape[0]):
        row = add[x]
        left = add[row]  # left[y,z] = add[add[x,y], z]
        right = row[add]  # right[y,z] = add[x, add[y,z]]
        yz = _first_true(left != right)
        if yz is not None:
            # the biconditional over (x,y,z,w) first fails at the smaller sum
            return (x, *yz, int(min(left[yz], right[yz])))
    raise AssertionError("a generator failed Light's test but no triple fails associativity")


def _relational_axioms(graph: np.ndarray) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None, np.ndarray]:
    """Commutativity and associativity counterexamples and the neutral
    witnesses of a relation whose sums are not unique, from its m**3 graph."""
    m = graph.shape[0]
    # the first failing x-slice holds the lexicographically first counterexample
    cex2 = None
    for x in range(m):
        yz = _first_true(graph[x] != graph[:, x])  # theta(x,y,z) vs theta(y,x,z)
        if yz is not None:
            cex2 = (x, *yz)
            break
    if m**5 > RELATIONAL_ASSOC_BUDGET:
        raise BudgetExceededError(
            f"associativity scan of a relation with non-unique sums costs m**5 = {m}**5 steps, "
            f"over budget {RELATIONAL_ASSOC_BUDGET}"
        )
    # sums of at most m products of 0/1 values: exact in float32
    gf = graph.astype(np.float32)
    cex3 = None
    for x in range(m):
        lhs = (gf[x] @ gf.reshape(m, m * m)).reshape(m, m, m) > 0.5  # [y,z,w]: (x+y)+z ~ w
        rhs = (gf.reshape(m * m, m) @ gf[x]).reshape(m, m, m) > 0.5  # [y,z,w]: x+(y+z) ~ w
        yzw = _first_true(lhs != rhs)
        if yzw is not None:
            cex3 = (x, *yzw)
            break
    diag = graph[:, np.arange(m), np.arange(m)]  # diag[x,y] = theta(x,y,y)
    return cex2, cex3, np.flatnonzero(diag.all(axis=1))


def verify_semigroup(s: FiniteStructure) -> SemigroupCertificate:
    """Exhaustively check that the semigroup s declares is a commutative monoid.

    The declared semigroup is a formula theta(x, y, z) or a binary function
    fn, read as fn(x, y) = z (semigroup_formula); only it is certified.

    Checks, in order: every pair has a unique sum; the sum is commutative;
    the sum is associative; a neutral element exists (necessarily unique
    given the previous axioms, which is verified rather than assumed). On
    success the addition table and neutral index are extracted and the
    certificate is installed on s. Axiom failures are reported in the
    certificate, not raised, and leave s uncertified.

    Cost: when the semigroup is a declared binary function, its m**2 table
    is the sum and no graph is built; m**3 is still held to EVAL_BUDGET, as
    the graph of fn(x, y) = z would be. Otherwise the graph of theta is
    evaluated in blocks of x-rows (_region_rows), each block as large as
    keeps its largest array within half the m**3 graph, and the table is
    read off each block, so the m**3 graph is never held while sums are
    unique. A quantifier of theta whose condition splits into two sides
    sharing only its bound variable, such as the forall w of the
    least-upper-bound formula, is one float32 matrix product per block,
    O(m**4) multiply-adds in BLAS in all; any other quantifier broadcasts
    its body, m**4 booleans for one quantifier. On the table, commutativity
    and the neutral element cost O(m**2), and associativity runs Light's
    test: (x+g)+y = x+(g+y) for every x, y and every g of a greedy
    generating set, O(m**2) time and memory per generator. Only when a generator fails does the x-slice scan
    (O(m**2) scratch per slice, O(m**3) time) run, to name the first
    counterexample. When sums are not unique, the whole m**3 boolean graph
    is evaluated; commutativity is scanned on it one x-slice at a time, and
    associativity multiplies 0/1 slices into m**3 float32 counts per slice,
    on top of a float32 copy of the graph, for O(m**5) time in all. That
    scan is refused with BudgetExceededError when m**5 exceeds
    RELATIONAL_ASSOC_BUDGET (10**11, which admits m <= 158).
    """
    theta = semigroup_formula(s)  # parsed for a table too: it refuses a name formulas cannot spell
    by_table = "function" in s.semigroup_spec
    extra = fm.free_variables(theta) - set(SEMIGROUP_VARS)
    if extra:
        raise FreeVariableError(
            f"semigroup formula may only use free variables x, y, z; found {sorted(extra)}"
        )
    m = s.size
    cex1 = None
    if by_table:
        _check_budget(m, len(SEMIGROUP_VARS))  # refused as the graph of fn(x, y) = z would be
        add = s.functions[s.semigroup_spec["function"]].table.base  # the writeable array under the symbol's view
    else:
        # read the table off the graph one block of x-rows at a time; only a
        # relation whose sums are not unique needs the whole graph
        bind = _region_setup(s, theta, SEMIGROUP_VARS, None)
        add = np.empty((m, m), dtype=np.int64)
        for x, block in _region_rows(s, theta, SEMIGROUP_VARS, bind):  # block[i, y, z] = theta(x + i, y, z)
            xy = _first_true(block.sum(axis=2, dtype=np.uint16) != 1)  # m <= 464 fits in uint16
            if xy is not None:
                cex1 = (x + xy[0], xy[1])
                break
            add[x : x + len(block)] = block.argmax(axis=2)
        if cex1 is not None:
            add = None
            graph = evaluate_region(s, theta, SEMIGROUP_VARS)

    if add is None:
        cex2, cex3, witnesses = _relational_axioms(graph)
    else:
        cex2 = _table_commutativity(add)
        cex3 = _table_associativity(add)
        witnesses = np.flatnonzero((add == np.arange(m)).all(axis=1))  # rows x with x+y = y
    holds1, holds2, holds3 = cex1 is None, cex2 is None, cex3 is None
    holds4 = witnesses.size > 0
    zero = int(witnesses[0]) if witnesses.size == 1 else None
    if holds1 and holds2 and witnesses.size > 1:
        raise AssertionError("multiple neutral elements despite unique commutative sums")

    cert = SemigroupCertificate(
        add_table=add,
        zero=zero,
        axioms=(
            AxiomCheck(AXIOM_NAMES[0], holds1, cex1),
            AxiomCheck(AXIOM_NAMES[1], holds2, cex2),
            AxiomCheck(AXIOM_NAMES[2], holds3, cex3),
            AxiomCheck(AXIOM_NAMES[3], holds4, None),
        ),
    )
    if cert.passed:
        s.certificate = cert
    return cert


def certificate_of(s: FiniteStructure) -> SemigroupCertificate:
    """The passing certificate installed on s, whose add_table and zero are
    both set; raises NotCertifiedError if there is none."""
    cert = s.certificate
    if cert is None or not cert.passed:
        raise NotCertifiedError(
            "structure has no passing semigroup certificate; run verify_semigroup first"
        )
    return cert
