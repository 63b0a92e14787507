"""Core syntax and semantics over a finite alphabet.

A term system pairs a set of variables with a signature of fixed-arity
function symbols and a list of term equations.  A dispersion spec names k
input variables and r output terms over them.  Both are evaluated against an
interpretation: one total function table per symbol over the alphabet
[n] = {0, 1, ..., n-1}.

Tables are stored row-major with argument tuples enumerated
lexicographically (first argument most significant), which fixes a canonical
integer encoding of every table; the oracle module's enumerator counts
through exactly that encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .errors import EvalError, ValidationError

Ident = str


def check_ident(name: str) -> None:
    if not name:
        raise ValidationError("empty identifier")
    if name[0].isdigit():
        raise ValidationError(f"identifier starts with a digit: {name!r}")
    for c in name:
        if not (c.isalnum() or c in "_@"):
            raise ValidationError(f"bad character {c!r} in identifier {name!r}")


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

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            check_ident(name)
            if not isinstance(arity, int) or arity < 0:
                raise ValidationError(f"bad arity for {name!r}: {arity!r}")
            if name in seen:
                raise ValidationError(f"duplicate symbol {name!r}")
            seen.add(name)

    def arity(self, name: Ident) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise ValidationError(f"unknown symbol {name!r}")

    def __contains__(self, name: object) -> bool:
        return any(sym == name for sym, _ in self.symbols)

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


def term_size(t: Term) -> int:
    """Occurrence count: every variable and symbol occurrence is one node."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def term_vars(t: Term) -> Iterator[Ident]:
    """Variable occurrences in left-to-right order (with repeats)."""
    if isinstance(t, Var):
        yield t.name
    else:
        for a in t.args:
            yield from term_vars(a)


def render_term(t: Term) -> str:
    """Prefix text for a term; constants keep explicit parens (`c()`)."""
    if isinstance(t, Var):
        return t.name
    return f"{t.symbol}({', '.join(render_term(a) for a in t.args)})"


@dataclass(frozen=True)
class TermDag:
    """Shared term DAG: inputs first, then ops in first-encounter order."""

    inputs: tuple[Ident, ...]
    ops: tuple[tuple[Ident, tuple[int, ...]], ...]  # (symbol, child node ids)
    outputs: tuple[int, ...]  # root node id per term, in order
    labels: tuple[str, ...]  # per node id: variable name or rendered term

    @property
    def node_count(self) -> int:
        return len(self.inputs) + len(self.ops)


def term_dag(inputs: tuple[Ident, ...], terms) -> TermDag:
    """Hash-cons `terms` over the variables `inputs` into one DAG: the only
    place terms are hash-consed.  Nodes are keyed on (symbol, child node
    ids), not on term trees, and an explicit stack replaces recursion, so
    any nesting depth costs linear time.  Ops come out in first-encounter
    post-order; a label equals `render_term` of its subterm."""
    # variables are keyed by name, ops by (symbol, child node ids)
    ids: dict[object, int] = {name: i for i, name in enumerate(inputs)}
    labels = list(inputs)
    ops: list[tuple[Ident, tuple[int, ...]]] = []
    outputs = []
    for term in terms:
        stack: list[tuple[Term, bool]] = [(term, False)]
        done: list[int] = []  # node ids of finished subterms, left to right
        while stack:
            t, expanded = stack.pop()
            if isinstance(t, Var):
                done.append(ids[t.name])
            elif not expanded:
                stack.append((t, True))
                stack.extend((a, False) for a in reversed(t.args))
            else:
                split = len(done) - len(t.args)
                key = (t.symbol, tuple(done[split:]))
                del done[split:]
                node = ids.get(key)
                if node is None:
                    ids[key] = node = len(labels)
                    labels.append(
                        f"{t.symbol}({', '.join(labels[c] for c in key[1])})")
                    ops.append(key)
                done.append(node)
        outputs.append(done[0])
    return TermDag(tuple(inputs), tuple(ops), tuple(outputs), tuple(labels))


def check_term(t: Term, signature: Signature, variables: frozenset[Ident]) -> None:
    if isinstance(t, Var):
        if t.name not in variables:
            raise ValidationError(f"undeclared variable {t.name!r}")
        return
    ar = signature.arity(t.symbol)
    if len(t.args) != ar:
        raise ValidationError(
            f"arity mismatch: {t.symbol!r} declared /{ar}, applied to {len(t.args)}")
    for a in t.args:
        check_term(a, signature, variables)


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class TermSystem:
    """Variables, signature, and term equations; every variable used in an
    equation must be declared."""

    variables: tuple[Ident, ...]
    signature: Signature
    equations: tuple[Equation, ...]

    def __post_init__(self):
        seen = set()
        for v in self.variables:
            check_ident(v)
            if v in seen:
                raise ValidationError(f"duplicate variable {v!r}")
            if v in self.signature:
                raise ValidationError(f"{v!r} is both a variable and a symbol")
            seen.add(v)
        declared = frozenset(self.variables)
        for eq in self.equations:
            check_term(eq.lhs, self.signature, declared)
            check_term(eq.rhs, self.signature, declared)


@dataclass(frozen=True)
class DispersionSpec:
    """k named inputs and r output terms over them (k, r >= 1)."""

    inputs: tuple[Ident, ...]
    signature: Signature
    outputs: tuple[Term, ...]

    def __post_init__(self):
        if not self.inputs:
            raise ValidationError("dispersion spec needs at least one input")
        if not self.outputs:
            raise ValidationError("dispersion spec needs at least one output")
        seen = set()
        for v in self.inputs:
            check_ident(v)
            if v in seen:
                raise ValidationError(f"duplicate input {v!r}")
            if v in self.signature:
                raise ValidationError(f"{v!r} is both an input and a symbol")
            seen.add(v)
        declared = frozenset(self.inputs)
        for t in self.outputs:
            check_term(t, self.signature, declared)

    @property
    def k(self) -> int:
        return len(self.inputs)

    @property
    def r(self) -> int:
        return len(self.outputs)


def table_index(n: int, args: tuple[int, ...]) -> int:
    """Row-major position of an argument tuple (first argument most
    significant)."""
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def argument_tuples(n: int, arity: int) -> Iterator[tuple[int, ...]]:
    """All argument tuples in the table's row-major order."""
    return itertools.product(range(n), repeat=arity)


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
        if self.n < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {self.n}")
        for name, table in self.tables.items():
            for entry in table:
                if not 0 <= entry < self.n:
                    raise ValidationError(
                        f"table entry {entry} for {name!r} outside [0,{self.n})")

    def validate_against(self, signature: Signature) -> None:
        for name, arity in signature.symbols:
            if name not in self.tables:
                raise ValidationError(f"missing table for {name!r}")
            want = self.n ** arity
            if len(self.tables[name]) != want:
                raise ValidationError(
                    f"table for {name!r} has {len(self.tables[name])} entries, "
                    f"expected {want}")

    def apply(self, symbol: Ident, args: tuple[int, ...]) -> int:
        try:
            table = self.tables[symbol]
        except KeyError:
            raise EvalError(f"no table for symbol {symbol!r}") from None
        return table[table_index(self.n, args)]


Assignment = Mapping[Ident, int]


def eval_term(t: Term, interp: Interpretation, assignment: Assignment) -> int:
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise EvalError(f"no binding for variable {t.name!r}") from None
    args = tuple(eval_term(a, interp, assignment) for a in t.args)
    return interp.apply(t.symbol, args)


def satisfies(system: TermSystem, interp: Interpretation,
              assignment: Assignment) -> bool:
    """True when every equation holds under the interpretation/assignment."""
    return all(
        eval_term(eq.lhs, interp, assignment) == eval_term(eq.rhs, interp, assignment)
        for eq in system.equations)


def assignments(variables: tuple[Ident, ...], n: int) -> Iterator[dict[Ident, int]]:
    """All assignments in lexicographic order (first variable most
    significant)."""
    for values in itertools.product(range(n), repeat=len(variables)):
        yield dict(zip(variables, values))


def instance_size(obj: Union[TermSystem, DispersionSpec]) -> int:
    """Occurrence count plus equation (resp. output) count."""
    if isinstance(obj, TermSystem):
        occ = sum(term_size(eq.lhs) + term_size(eq.rhs) for eq in obj.equations)
        return occ + len(obj.equations)
    if isinstance(obj, DispersionSpec):
        occ = sum(term_size(t) for t in obj.outputs)
        return occ + len(obj.outputs)
    raise ValidationError(f"instance_size undefined for {type(obj).__name__}")
