"""Core syntax and semantics over a finite alphabet.

A term system pairs a set of variables with a signature of fixed-arity
function symbols and a list of term equations.  A dispersion spec names k
input variables and r output terms over them.  Both are evaluated against an
interpretation: one total function table per symbol over the alphabet
[n] = {0, 1, ..., n-1}.  Names pass one gate, `check_ident`, and integer
arguments another, `check_int`.

Tables are stored row-major with argument tuples enumerated
lexicographically (first argument most significant), which fixes a canonical
integer encoding of every table; the oracle module's enumerator counts
through exactly that encoding.

A system or spec hash-conses its terms into one `TermDag` (`.dag`): the
parser as it reads them, a constructor through `term_dag`.  Equality and
hashing compare the DAG.  A parsed system or spec holds only its names,
signature and DAG; its `Var`/`App` trees (`equations`/`outputs`) are read
off the DAG by `_dag_trees` the first time something reads them, and kept.
The polynomial commands and the scan kernel read only the DAG, so only the
scalar route and the constructions build trees.  No term walk recurses.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping, Sequence, Union

from .errors import EvalError, ValidationError

Ident = str


# the surface syntax's identifier token and grammar words, shared with `dsl`
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_@]*")
KEYWORDS = frozenset("instance dispersion graph vars inputs outputs sig eq "
                     "nodes sources edge".split())


def check_ident(name: str) -> None:
    """Accept exactly the names `dsl` reads back: IDENT_RE but no keyword."""
    if not isinstance(name, str):
        raise ValidationError(f"identifier is not a string: {name!r}")
    if not name:
        raise ValidationError("empty identifier")
    if name[0].isdigit():
        raise ValidationError(f"identifier starts with a digit: {name!r}")
    m = IDENT_RE.match(name)
    end = m.end() if m else 0
    if end < len(name):
        raise ValidationError(f"bad character {name[end]!r} in identifier {name!r}")
    if name in KEYWORDS:
        raise ValidationError(f"keyword used as identifier: {name!r}")


def check_int(value, what: str) -> int:
    """`value` as a plain int if it is an int, bool or numpy integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def is_reserved_ident(name: str) -> bool:
    """Names starting with '_' or containing '@' belong to the pipeline.

    Flattening mints auxiliary variables "_z<i>" and diversification mints
    symbols "f@<i>"; user files may not claim either namespace.
    """
    return name.startswith("_") or "@" in name


@dataclass(frozen=True)
class Signature:
    """Ordered function symbols with fixed arities.  Names are unique."""

    symbols: tuple[tuple[Ident, int], ...]
    _arity: dict[Ident, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: dict[Ident, int] = {}
        for name, arity in self.symbols:
            check_ident(name)
            arity = check_int(arity, f"arity of {name!r}")
            if arity < 0:
                raise ValidationError(f"bad arity for {name!r}: {arity!r}")
            if name in seen:
                raise ValidationError(f"duplicate symbol {name!r}")
            seen[name] = arity
        object.__setattr__(self, "symbols", tuple(seen.items()))
        object.__setattr__(self, "_arity", seen)

    def arity(self, name: Ident) -> int:
        if name not in self._arity:
            raise ValidationError(f"unknown symbol {name!r}")
        return self._arity[name]

    def __contains__(self, name: object) -> bool:
        return name in self._arity

    @property
    def names(self) -> tuple[Ident, ...]:
        return tuple(sym for sym, _ in self.symbols)


@dataclass(frozen=True)
class Var:
    name: Ident


@dataclass(frozen=True)
class App:
    symbol: Ident
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


@dataclass(frozen=True)
class TermDag:
    """Shared term DAG: inputs first, then ops in first-encounter order."""

    inputs: tuple[Ident, ...]
    ops: tuple[tuple[Ident, tuple[int, ...]], ...]  # (symbol, child node ids)
    outputs: tuple[int, ...]  # root node id per term, in order

    @property
    def node_count(self) -> int:
        return len(self.inputs) + len(self.ops)

    def labels(self, nodes: Sequence[int]) -> list[str]:
        """Prefix text of each node's term, made on demand: the only renderer.
        Constants keep explicit parens (`c()`).  Every node, asked for as
        `range(node_count)`, is rendered in one pass in id order, each op
        from its children's text (a child's id is below its parent's).
        Other nodes are rendered with a stack that reuses only the text of
        nodes asked for earlier, so a deep term's root alone costs its
        length."""
        if nodes == range(self.node_count):
            texts = list(self.inputs)
            for symbol, args in self.ops:
                texts.append(f"{symbol}({', '.join([texts[c] for c in args])})")
            return texts
        done = dict(enumerate(self.inputs))  # node id -> text
        for node in nodes:
            parts, stack = [], [node]  # stack: node ids and literal text
            while stack:
                item = stack.pop()
                if isinstance(item, str):
                    parts.append(item)
                elif item in done:
                    parts.append(done[item])
                else:
                    symbol, args = self.ops[item - len(self.inputs)]
                    parts.append(f"{symbol}(")
                    # children separated by ", ", first child on top
                    stack += [")", *[x for c in reversed(args) for x in (c, ", ")][:-1]]
            done[node] = "".join(parts)
        return [done[node] for node in nodes]


class _Nodes(dict):
    """The one hash-consing table, shared by `term_dag` and the parser: each
    input's name, then each op's key (symbol, child node ids), maps to its
    node id, numbered in first-lookup order.  Inputs must be distinct.
    `term_dag` interns through `__missing__`; the parser calls
    `setdefault(key, len(nodes))`, which numbers the same way."""

    def __init__(self, inputs):
        self.inputs = tuple(inputs)
        super().__init__(zip(self.inputs, itertools.count()))

    def __missing__(self, key) -> int:
        self[key] = node = len(self)
        return node

    def dag(self, outputs) -> TermDag:  # every op so far, with these roots
        ops = itertools.islice(self, len(self.inputs), None)
        return TermDag(self.inputs, tuple(ops), tuple(outputs))


def term_dag(inputs: tuple[Ident, ...], terms) -> TermDag:
    """Hash-cons `terms` over the variables `inputs` into one DAG, walking
    an explicit stack, so any depth costs linear time.  Ops come out in
    first-encounter post-order.  A variable outside `inputs` raises
    ValidationError."""
    nodes = _Nodes(inputs)
    outputs = []
    for term in terms:
        stack: list[tuple[Term, bool]] = [(term, False)]
        done: list[int] = []  # node ids of finished subterms, left to right
        while stack:
            t, expanded = stack.pop()
            if isinstance(t, Var):
                if t.name not in nodes:
                    raise ValidationError(f"undeclared variable {t.name!r}")
                done.append(nodes[t.name])
            elif not expanded:
                stack.append((t, True))
                stack.extend((a, False) for a in reversed(t.args))
            else:
                split = len(done) - len(t.args)
                done[split:] = [nodes[t.symbol, tuple(done[split:])]]
        outputs.append(done[0])
    return nodes.dag(outputs)


def _validated_dag(names, what: str, signature: Signature, terms) -> TermDag:
    """Check `names`, build the DAG of `terms`, check each distinct op's arity."""
    seen = set()
    for v in names:
        check_ident(v)
        if v in seen:
            raise ValidationError(f"duplicate {what} {v!r}")
        if v in signature:
            article = "an" if what[0] in "aeiou" else "a"
            raise ValidationError(f"{v!r} is both {article} {what} and a symbol")
        seen.add(v)
    dag = term_dag(names, terms)
    for symbol, args in dag.ops:
        ar = signature.arity(symbol)
        if len(args) != ar:
            raise ValidationError(
                f"arity mismatch: {symbol!r} declared /{ar}, applied to {len(args)}")
    return dag


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


def _dag_trees(dag: TermDag) -> tuple[Term, ...]:
    """The tree of each DAG root, read off node by node: the one builder of
    a parsed object's trees."""
    terms = [Var(v) for v in dag.inputs]
    for symbol, children in dag.ops:
        terms.append(App(symbol, tuple([terms[c] for c in children])))
    return tuple(terms[node] for node in dag.outputs)


def _trees_on_demand(obj, name: str):
    """`__getattr__` of TermSystem and DispersionSpec, so reached only for
    an attribute the instance lacks.  A parsed one lacks its trees (its third
    field) until the first read, which builds them and keeps them."""
    if name != fields(obj)[2].name:
        raise AttributeError(
            f"{type(obj).__name__!r} object has no attribute {name!r}")
    roots = _dag_trees(obj.dag)
    if name == "equations":
        roots = tuple(map(Equation, roots[::2], roots[1::2]))
    object.__setattr__(obj, name, roots)
    return roots


@dataclass(frozen=True)
class TermSystem:
    """Variables, signature, and term equations; every variable used in an
    equation must be declared.  `dag` holds each equation's (lhs, rhs)."""

    variables: tuple[Ident, ...]
    signature: Signature
    equations: tuple[Equation, ...] = field(compare=False)
    dag: TermDag = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dag", _validated_dag(
            self.variables, "variable", self.signature,
            [t for eq in self.equations for t in (eq.lhs, eq.rhs)]))

    __getattr__ = _trees_on_demand


@dataclass(frozen=True)
class DispersionSpec:
    """k named inputs and r output terms over them (k, r >= 1)."""

    inputs: tuple[Ident, ...]
    signature: Signature
    outputs: tuple[Term, ...] = field(compare=False)
    dag: TermDag = field(init=False, repr=False)

    def __post_init__(self):
        if not self.inputs:
            raise ValidationError("dispersion spec needs at least one input")
        if not self.outputs:
            raise ValidationError("dispersion spec needs at least one output")
        object.__setattr__(self, "dag", _validated_dag(
            self.inputs, "input", self.signature, self.outputs))

    __getattr__ = _trees_on_demand

    @property
    def k(self) -> int:
        return len(self.inputs)

    @property
    def r(self) -> int:
        return len(self.dag.outputs)


def _from_dag(cls, signature: Signature, dag: TermDag):
    """A TermSystem or DispersionSpec over a DAG that the parser has checked
    as `_validated_dag` would.  It holds only its names, signature and DAG;
    its trees are built by `_trees_on_demand` if something reads them."""
    obj = object.__new__(cls)
    object.__setattr__(obj, fields(cls)[0].name, dag.inputs)
    object.__setattr__(obj, "signature", signature)
    object.__setattr__(obj, "dag", dag)
    return obj


def _from_arities(arities: dict[Ident, int]) -> Signature:
    """The signature of `arities`, whose names and arities the parser has
    checked as `Signature.__post_init__` would; the dict becomes its
    `_arity`."""
    signature = object.__new__(Signature)
    object.__setattr__(signature, "symbols", tuple(arities.items()))
    object.__setattr__(signature, "_arity", arities)
    return signature


def table_index(n: int, args: tuple[int, ...]) -> int:
    """Row-major position of an argument tuple (first argument most
    significant)."""
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


@dataclass(frozen=True)
class Interpretation:
    """One total table per symbol over [n].

    Tables are tuples indexed by `table_index`.  Construction checks entry
    ranges; `validate_against` additionally checks coverage and lengths for
    a specific signature.
    """

    n: int
    tables: Mapping[Ident, tuple[int, ...]]

    def __post_init__(self):
        n = check_int(self.n, "alphabet size")
        if n < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {n}")
        object.__setattr__(self, "n", n)
        for name, table in self.tables.items():
            try:
                for entry in map(operator.index, table):
                    if not 0 <= entry < n:
                        raise ValidationError(f"table entry {entry} for "
                                              f"{name!r} outside [0,{n})")
            except TypeError:
                raise ValidationError(
                    f"table for {name!r} holds a non-integer entry") from None

    def validate_against(self, signature: Signature) -> None:
        for name, arity in signature.symbols:
            if name not in self.tables:
                raise ValidationError(f"missing table for {name!r}")
            want = self.n ** arity
            if len(self.tables[name]) != want:
                raise ValidationError(
                    f"table for {name!r} has {len(self.tables[name])} entries, "
                    f"expected {want}")


Assignment = Mapping[Ident, int]


def term_steps(t: Term) -> tuple:
    """A term walked once, for repeated evaluation by `run_steps`: its
    post-order steps, each a variable name or a (symbol, argument count)
    pair, first argument last, so `run_steps` pops it first.  It shares no
    code with the DAG and does not recurse."""
    steps, stack = [], [t]  # pre-order, left to right; reversed on return
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            steps.append(t.name)
        else:
            steps.append((t.symbol, len(t.args)))
            stack.extend(reversed(t.args))
    return tuple(reversed(steps))


def run_steps(steps: tuple, interp: Interpretation,
              assignment: Assignment) -> int:
    """The value of a term walked by `term_steps`."""
    vals: list[int] = []  # values of finished subterms, first argument on top
    for step in steps:
        if isinstance(step, str):
            if step not in assignment:
                raise EvalError(f"no binding for variable {step!r}")
            vals.append(assignment[step])
        else:
            symbol, arity = step
            if symbol not in interp.tables:
                raise EvalError(f"no table for symbol {symbol!r}")
            idx = 0
            for _ in range(arity):
                idx = idx * interp.n + vals.pop()
            vals.append(interp.tables[symbol][idx])
    return vals[0]


def assignments(variables: tuple[Ident, ...], n: int) -> Iterator[dict[Ident, int]]:
    """All assignments in lexicographic order (first variable most
    significant)."""
    grid = itertools.product(range(check_int(n, "alphabet size")),
                             repeat=len(variables))
    return (dict(zip(variables, values)) for values in grid)


def instance_size(obj: Union[TermSystem, DispersionSpec]) -> int:
    """Occurrence count plus equation (resp. output) count, in one pass of
    node sizes over the DAG, summed at the roots."""
    if not isinstance(obj, (TermSystem, DispersionSpec)):
        raise ValidationError(f"instance_size undefined for {type(obj).__name__}")
    dag = obj.dag
    sizes = [1] * len(dag.inputs)  # occurrences in each node's term
    for _, children in dag.ops:
        sizes.append(1 + sum([sizes[c] for c in children]))
    count = len(dag.outputs)  # roots: two per equation, one per output
    if isinstance(obj, TermSystem):
        count //= 2
    return sum([sizes[node] for node in dag.outputs]) + count
