"""Finite first-order structures, formula evaluation, and semigroup certification.

A structure is a finite universe {0, .., m-1} with interpreted function,
relation, and constant symbols. Definable sets are realized as boolean
vectors over the universe (on a finite structure every subset is definable
in the language expanded by one constant per element, so the boolean
vector is the general case).

Formula evaluation enumerates quantifiers over the whole universe; a
formula with q nested quantifier/grid axes costs m**q and is rejected
beyond the evaluation budget. A relation atom over distinct variables is
read by slicing its table, not by a gather. A truth table is filled one
value of its first grid variable at a time, in blocks of the second, so
its peak is the output plus a block of scratch (at most half the output
under one quantifier), not the m**q cells of the whole enumeration.

Semigroup certification works on the m**2 addition table wherever sums
are unique: a declared function's table is the sum, and a formula's table
is read off its graph one x-row at a time. Commutativity and the neutral
element are read off the table, and associativity is Light's test over a
greedy generating set, O(m**2) per generator; the x-slice scan runs only
to name the first counterexample once a generator fails. Only a formula
whose sums are not unique is checked on its m**3 boolean graph: m**3
float32 counts per x-slice, O(m**5) time in all. A passing
certificate is installed on the structure, and every operation of the
convolution algebra reaches the monoid through `certificate_of`, the one
guard against an uncertified structure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import formulas as fm
from .errors import (
    BudgetExceededError,
    FreeVariableError,
    ModelError,
    NotCertifiedError,
)

EVAL_BUDGET = 10**8
RELATIONAL_ASSOC_BUDGET = 10**11  # m**5 steps of the associativity scan when sums are not unique

SEMIGROUP_VARS = ("x", "y", "z")


def as_integer(v, what: str) -> int:
    """A Python or NumPy integer, or a float with an integral value; never a
    boolean. The one reading of an integer in a model or measure file."""
    if type(v) is int:
        return v
    if isinstance(v, np.integer) or (type(v) is float and v.is_integer()):
        return int(v)
    raise ModelError(f"{what} must be an integer, got {v!r}")


def element_of(label, names: dict[str, int] | None) -> int:
    """An element given as one of `names` or as an integer (as_integer), the
    one reading of an element in a model or measure file; the range is the
    caller's to check."""
    if isinstance(label, str):
        if names is None or label not in names:
            raise ModelError(f"unknown element name {label!r}")
        return names[label]
    return as_integer(label, "an element")


@dataclass(frozen=True)
class FunctionSymbol:
    arity: int
    table: np.ndarray  # int64, shape (m,)*arity, entries in [0, m)


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
            table = np.asarray(fn.table)
            if table.shape != (m,) * fn.arity:
                raise ModelError(f"function {name!r}: table shape {table.shape} is not (m,)*{fn.arity}")
            if table.size and (table.min() < 0 or table.max() >= m):
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
            raise ModelError(f"element index {idx} outside universe of size {self.size}")
        return idx

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            h = hashlib.sha1()
            h.update(str(self.size).encode())
            for name in sorted(self.functions):
                fn = self.functions[name]
                h.update(f"f:{name}:{fn.arity}".encode())
                h.update(np.ascontiguousarray(fn.table, dtype=np.int64).tobytes())
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


def _eval_node(f, s: FiniteStructure, bind: dict, shape: tuple[int, ...]):
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
    full = (s.size,) + shape
    body = _eval_node(f.body, s, inner, full)
    if np.shape(body) != full:
        body = np.broadcast_to(body, full)
    if isinstance(f, fm.Forall):
        return body.all(axis=0)
    if isinstance(f, fm.Exists):
        return body.any(axis=0)
    return np.count_nonzero(body, axis=0) == 1


def _check_budget(m: int, axes: int) -> None:
    if axes > 0 and m**axes > EVAL_BUDGET:
        raise BudgetExceededError(f"enumeration cost m**{axes} = {m}**{axes} exceeds budget {EVAL_BUDGET}")


def _region_setup(s: FiniteStructure, f: fm.Formula, grid_vars, env) -> tuple[dict, int]:
    """The bindings of f's non-grid variables and f's enumeration axes;
    refuses an unbound variable and an enumeration over EVAL_BUDGET."""
    env = env or {}
    missing = fm.free_variables(f) - set(grid_vars) - set(env)
    if missing:
        raise FreeVariableError(f"unbound free variables: {sorted(missing)}")
    axes = len(grid_vars) + fm.quantifier_depth(f)
    _check_budget(s.size, axes)
    bind = {name: ("value", s.element_index(value)) for name, value in env.items() if name not in grid_vars}
    return bind, axes


def _region_rows(s: FiniteStructure, f: fm.Formula, grid_vars: tuple[str, ...], bind: dict, axes: int):
    """Yield the truth table of f at each value of grid_vars[0] in turn.

    A row is filled one block of grid_vars[1] at a time. A block's scratch,
    block * m**(axes - 2) cells, is at most half the whole table where one
    value of grid_vars[1] allows it, and m**(axes - 2) cells otherwise.
    """
    m = s.size
    first, rest = grid_vars[0], grid_vars[1:]
    bind = dict(bind)
    for i, v in enumerate(rest[1:], 1):
        bind[v] = ("axis", (len(rest) - i, 0, m))
    step = max(1, m ** len(grid_vars) // (2 * m ** (axes - 2))) if rest else m
    for x in range(m):
        bind[first] = ("value", x)
        if not rest:
            yield _eval_node(f, s, bind, ())
            continue
        row = np.empty((m,) * len(rest), dtype=bool)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            bind[rest[0]] = ("axis", (len(rest), lo, hi))
            row[lo:hi] = _eval_node(f, s, bind, (hi - lo,) + (m,) * (len(rest) - 1))
        yield row


def evaluate_region(
    s: FiniteStructure,
    f: fm.Formula,
    grid_vars: tuple[str, ...] = (),
    env: dict[str, int] | None = None,
) -> np.ndarray:
    """Truth table of f over the grid of `grid_vars`, other free vars from env.

    The result has shape (m,)*len(grid_vars), axis i indexed by grid_vars[i].
    It is filled row by row (see _region_rows), so the peak is the result
    plus one row and a block of scratch, not the m**axes cells of the whole
    enumeration.
    """
    bind, axes = _region_setup(s, f, grid_vars, env)
    if not grid_vars:
        return np.array(_eval_node(f, s, bind, ()), dtype=bool)
    out = np.empty((s.size,) * len(grid_vars), dtype=bool)
    for x, row in enumerate(_region_rows(s, f, grid_vars, bind, axes)):
        out[x] = row
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
    """

    add_table: np.ndarray | None
    zero: int | None
    axioms: tuple[AxiomCheck, AxiomCheck, AxiomCheck, AxiomCheck]

    @property
    def passed(self) -> bool:
        return all(a.holds for a in self.axioms)

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
            new = np.unique(products[~inside[products]])
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
    the graph of fn(x, y) = z would be. Otherwise the graph
    of theta is evaluated one x-row (m**2 cells) at a time and the table is
    read off each row, so the m**3 graph is never held while sums are
    unique. On the table, commutativity and the neutral element cost
    O(m**2), and associativity runs Light's test: (x+g)+y = x+(g+y) for
    every x, y and every g of a greedy generating set, O(m**2) time and
    memory per generator. Only when a generator fails does the x-slice scan
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
        add = np.array(s.functions[s.semigroup_spec["function"]].table, dtype=np.int64)
    else:
        # read the table off the graph one x-row at a time; only a relation
        # whose sums are not unique needs the whole graph
        bind, axes = _region_setup(s, theta, SEMIGROUP_VARS, None)
        add = np.empty((m, m), dtype=np.int64)
        for x, row in enumerate(_region_rows(s, theta, SEMIGROUP_VARS, bind, axes)):  # row[y, z] = theta(x, y, z)
            y = _first_true(row.sum(axis=1, dtype=np.uint16) != 1)  # m <= 464 fits in uint16
            if y is not None:
                cex1 = (x, *y)
                break
            add[x] = row.argmax(axis=1)
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
