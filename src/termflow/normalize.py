"""Normalization pipeline for term systems.

Flattening rewrites every equation into depth-1 shape `f(u1,...,uk) = v` by
minting auxiliary variables ("_z0", "_z1", ... in post-order, left-to-right,
equations in order) for application subterms, recording leftover `u = v`
facts as variable equalities.  The auxiliaries are the ops of the system's
term DAG (`TermSystem.dag`) that the equations needing them reach.
Quotienting merges equality classes onto a deterministic representative,
and collision quotienting merges the defined variables of equations that
share a (symbol, argument-tuple) key, closed under congruence.  Every stage
preserves the solution count of the original system for every
interpretation (the exhaustive oracle checks this in tests).

The terminal shapes:

  * functional normal form (FNF): every defined variable has exactly one
    defining equation;
  * collision-free FNF (CFNF): FNF and no two equations share a
    (symbol, argument-tuple) key.

Systems that do not land in FNF are classified and reported, never
transformed further.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import PreconditionError, ValidationError
from .terms import (App, DispersionSpec, Equation, Ident, Signature, TermDag,
                    TermSystem, Var, term_dag)


class NormalEquation(NamedTuple):
    """Depth-1 equation `symbol(args) = defined`; args are variable names.
    A named tuple: it is built, hashed and compared in C, and it equals
    the plain tuple `(symbol, args, defined)`."""

    symbol: Ident
    args: tuple[Ident, ...]
    defined: Ident


@dataclass(frozen=True)
class NormalSystem:
    """A flattened system plus any still-unresolved variable equalities.

    auxiliaries lists the live variables that flattening minted.  `dag`,
    built on first use, is `to_term_system().dag` without that system's
    trees or checks, so a variable may share a symbol's name (as a game's
    players do, see `depgraph.graph_system`).  `classification`, also
    built on first use, is what `classify` returns for the system, so the
    pipeline and every later stage share one.
    """

    variables: tuple[Ident, ...]
    signature: Signature
    equations: tuple[NormalEquation, ...]
    var_equalities: tuple[tuple[Ident, Ident], ...] = ()
    auxiliaries: tuple[Ident, ...] = ()

    def __post_init__(self):
        """Check, in order, that the variables are distinct, then each
        equation's defined variable, arguments and symbol, then the
        variable equalities; raise the first error met."""
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValidationError("duplicate variable in normal system")
        arity = self.signature.arity  # raises on an unknown symbol
        for symbol, args, defined in self.equations:
            if defined not in declared:
                raise ValidationError(
                    f"undeclared defined variable {defined!r}")
            for u in args:
                if u not in declared:
                    raise ValidationError(f"undeclared argument {u!r}")
            if arity(symbol) != len(args):
                raise ValidationError(f"arity mismatch on {symbol!r}")
        for a, b in self.var_equalities:
            if a not in declared or b not in declared:
                raise ValidationError("undeclared variable in equality")

    def _sides(self):
        """Each equation's (lhs, rhs) as terms: `symbol(args) = defined`
        per equation, then each variable equality."""
        for e in self.equations:
            yield App(e.symbol, tuple(Var(u) for u in e.args)), Var(e.defined)
        for a, b in self.var_equalities:
            yield Var(a), Var(b)

    @cached_property
    def dag(self) -> TermDag:
        return term_dag(self.variables,
                        [t for sides in self._sides() for t in sides])

    @cached_property
    def classification(self) -> Classification:
        return _classify(self)

    def to_term_system(self) -> TermSystem:
        return TermSystem(self.variables, self.signature,
                          tuple(Equation(*sides) for sides in self._sides()))


class UnionFind:
    """Union-find whose class representative is the minimum under
    (original-variable-before-auxiliary, then lexicographic name)."""

    def __init__(self, names, auxiliaries):
        self.parent = {v: v for v in names}
        self.position = {v: i for i, v in enumerate(names)}
        self.aux = frozenset(auxiliaries)

    def find(self, v: Ident) -> Ident:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:  # path compression
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: Ident, b: Ident) -> Ident | None:
        """Join two classes; return the root this removed, or None."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        keep, drop = sorted((ra, rb), key=lambda v: (v in self.aux, v))
        self.parent[drop] = keep
        return drop


@dataclass(frozen=True)
class Merge:
    kept: Ident
    removed: Ident
    stage: str


@dataclass(frozen=True)
class Classification:
    defined: tuple[Ident, ...]
    sources: tuple[Ident, ...]
    is_fnf: bool
    is_collision_free: bool

    @property
    def is_cfnf(self) -> bool:
        return self.is_fnf and self.is_collision_free


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[str, ...]
    auxiliaries: tuple[Ident, ...]
    merges: tuple[Merge, ...]
    defined: tuple[Ident, ...]
    sources: tuple[Ident, ...]
    is_normal: bool
    is_collision_free: bool
    is_fnf: bool
    is_cfnf: bool


def flatten(system: TermSystem) -> NormalSystem:
    """Rewrite to depth-1 equations over the original variables plus
    auxiliaries.

    An equation's shape is read off its two roots in `system.dag`, never
    off its trees.  An op over variables against a variable (`f(vars) = v`,
    either way round) passes through untouched.  `x = y` becomes a variable
    equality.  Anything else gets one auxiliary per distinct application
    subterm, shared across the whole system, with a variable equality tying
    the two sides' handles.  The ops of `system.dag` that a post-order walk
    (children left to right) from those sides reaches are `_z0`, `_z1`, ...
    less any name declared; each equation defines those its sides reach first.
    """
    dag, k = system.dag, len(system.variables)
    names = dict(enumerate(system.variables))  # DAG node -> variable name
    taken = set(system.variables)
    fresh = (z for i in itertools.count() if (z := f"_z{i}") not in taken)
    roots = iter(dag.outputs)
    equations: list[NormalEquation] = []
    equalities: list[tuple[Ident, Ident]] = []
    for lhs, rhs in zip(roots, roots):
        op, var = (lhs, rhs) if rhs < k else (rhs, lhs)  # var < k: a variable
        if op < k:
            equalities.append((names[lhs], names[rhs]))
        elif var < k and all(c < k for c in dag.ops[op - k][1]):
            symbol, children = dag.ops[op - k]
            equations.append(NormalEquation(
                symbol, tuple(names[c] for c in children), names[var]))
        else:
            stack = [rhs, lhs]
            while stack:
                node = stack[-1]
                if node in names:
                    stack.pop()
                    continue
                symbol, children = dag.ops[node - k]
                todo = [c for c in reversed(children) if c not in names]
                if todo:
                    stack += todo
                    continue
                stack.pop()
                names[node] = next(fresh)
                equations.append(NormalEquation(
                    symbol, tuple(names[c] for c in children), names[node]))
            equalities.append((names[lhs], names[rhs]))
    variables = tuple(names.values())
    return NormalSystem(variables, system.signature, tuple(equations),
                        tuple(equalities), variables[k:])


def _substitute(system: NormalSystem, uf: UnionFind) -> NormalSystem:
    """Collapse every union-find class onto its representative; every
    variable equality becomes trivial."""
    rep = {v: uf.find(v) for v in system.variables}
    variables = tuple(v for v in system.variables if rep[v] == v)
    moved = {v for v in system.variables if rep[v] != v}
    equations = dict.fromkeys(  # duplicates collapse; unmoved ones are reused
        eq if eq.defined not in moved and moved.isdisjoint(eq.args)
        else NormalEquation(eq.symbol, tuple(rep[u] for u in eq.args),
                            rep[eq.defined]) for eq in system.equations)
    auxiliaries = tuple(a for a in system.auxiliaries if rep[a] == a)
    return NormalSystem(variables, system.signature, tuple(equations), (),
                        auxiliaries)


def _union_round(uf: UnionFind, pairs, stage: str,
                 merges: list[Merge] | None) -> list[Ident]:
    """Union every pair; return the removed roots in variable order, and
    record each, kept by its class's root after the whole round."""
    removed = [d for a, b in pairs if (d := uf.union(a, b)) is not None]
    removed.sort(key=uf.position.__getitem__)
    if merges is not None:
        merges.extend(Merge(uf.find(d), d, stage) for d in removed)
    return removed


def quotient_vars(system: NormalSystem,
                  merges: list[Merge] | None = None) -> NormalSystem:
    """Eliminate variable equalities by merging each class onto its
    representative (originals beat auxiliaries, then lexicographic).
    Each merge is appended to `merges` when given."""
    if not system.var_equalities:
        return system
    uf = UnionFind(system.variables, system.auxiliaries)
    _union_round(uf, system.var_equalities, "quotient_vars", merges)
    return _substitute(system, uf)


def collision_quotient(system: NormalSystem,
                       merges: list[Merge] | None = None) -> NormalSystem:
    """Merge defined variables of equations sharing a (symbol, args) key:
    congruence closure on one union-find, then one substitution.  Round 1
    keys every equation, later rounds only those over a root the round
    before removed (found by use-lists).  A round keys before it unions,
    so it removes the same roots as re-substituting the whole system after
    every round would.  Each merge is appended to `merges` when given.  An
    input where no key collides and no equation repeats comes back as is."""
    if system.var_equalities:
        raise PreconditionError("collision quotient expects a quotiented system")
    equations = system.equations
    table: dict[tuple, Ident] = {}
    # round 1, where every variable is its own root; a pair whose two sides
    # are one variable would be a no-op union, so none is made
    pairs = [(kept, defined) for symbol, args, defined in equations
             if (kept := table.setdefault((symbol, args), defined)) != defined]
    if not pairs and len(table) == len(equations):
        return system  # no key collides and no equation repeats
    uf = UnionFind(system.variables, system.auxiliaries)
    uses: dict[Ident, list[int]] = {v: [] for v in system.variables}
    for i, eq in enumerate(equations):
        for u in eq.args:
            uses[u].append(i)
    while pairs:
        removed = _union_round(uf, pairs, "collision_quotient", merges)
        todo = sorted({i for d in removed for i in uses[d]})
        for d in removed:  # the shorter use-list joins the longer
            keep = uf.find(d)
            small, uses[keep] = sorted((uses.pop(d), uses[keep]), key=len)
            uses[keep] += small
        pairs = []
        for i in todo:
            symbol, args, defined = equations[i]
            kept = table.setdefault((symbol, tuple(map(uf.find, args))), defined)
            if kept != defined:
                pairs.append((kept, defined))
    return _substitute(system, uf)


def classify(system: NormalSystem) -> Classification:
    """Split variables into defined and source, and test FNF/CFNF: the
    system's cached `classification`."""
    return system.classification


def _classify(system: NormalSystem) -> Classification:
    if system.var_equalities:  # raises every time: nothing is cached
        raise PreconditionError("classify expects a quotiented system")
    equations = system.equations
    defining = {defined for _, _, defined in equations}
    distinct = set(equations)
    defined = tuple(v for v in system.variables if v in defining)
    sources = tuple(v for v in system.variables if v not in defining)
    is_fnf = len(defining) == len(equations)  # one equation per variable
    # no two distinct equations share a key
    is_collision_free = len({eq[:2] for eq in distinct}) == len(distinct)
    return Classification(defined, sources, is_fnf, is_collision_free)


def pipeline(system: TermSystem) -> tuple[NormalSystem, PipelineReport]:
    """flatten -> quotient_vars -> collision_quotient (congruence closure)
    -> classify, with a report of merges, auxiliaries, and final flags."""
    merges: list[Merge] = []
    flat = flatten(system)
    quot = quotient_vars(flat, merges)
    out = collision_quotient(quot, merges)
    cls = classify(out)
    report = PipelineReport(
        stages=("flatten", "quotient_vars", "collision_quotient", "classify"),
        auxiliaries=flat.auxiliaries,
        merges=tuple(merges),
        defined=cls.defined,
        sources=cls.sources,
        is_normal=not out.var_equalities,
        is_collision_free=cls.is_collision_free,
        is_fnf=cls.is_fnf,
        is_cfnf=cls.is_cfnf,
    )
    return out, report


def diversify(system: NormalSystem) -> NormalSystem:
    """Give the i-th equation its own fresh symbol "<f>@<i>" of the same
    arity.

    The new signature holds exactly the fresh symbols: the originals occur
    in no equation afterwards, so interpreting them cannot change any
    solution set, and dropping them keeps the oracle's interpretation space
    to the symbols that matter.
    """
    symbols = []
    equations = []
    for i, eq in enumerate(system.equations):
        name = f"{eq.symbol}@{i}"
        symbols.append((name, len(eq.args)))
        equations.append(NormalEquation(name, eq.args, eq.defined))
    return NormalSystem(system.variables, Signature(tuple(symbols)),
                        tuple(equations), system.var_equalities,
                        system.auxiliaries)


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = "_" + name
    taken.add(name)
    return name


def embed_dispersion(spec: DispersionSpec) -> TermSystem:
    """Term system whose max solution count equals the input map's dispersion.

    Adds one output variable per output term (`yi = ti`) and one fresh r-ary
    decoder symbol per input (`xj = hj(y1,...,yr)`).
    """
    taken = set(spec.inputs) | set(spec.signature.names)
    y_names = [_fresh(f"y{i}", taken) for i in range(1, spec.r + 1)]
    h_names = [_fresh(f"h{j}", taken) for j in range(1, spec.k + 1)]
    signature = Signature(spec.signature.symbols
                          + tuple((h, spec.r) for h in h_names))
    y_tuple = tuple(Var(y) for y in y_names)
    equations = [Equation(Var(y_names[i]), spec.outputs[i])
                 for i in range(spec.r)]
    equations += [Equation(Var(spec.inputs[j]), App(h_names[j], y_tuple))
                  for j in range(spec.k)]
    return TermSystem(spec.inputs + tuple(y_names), signature, tuple(equations))


def pad_dispersion(spec: DispersionSpec, r2: int, k2: int) -> DispersionSpec:
    """Pad to r2 outputs and k2 inputs.

    Requires r2 >= r and k2 >= max(k, r2).  The original outputs are kept;
    output i for r < i <= r2 is the input variable at position i of the
    extended input list (new inputs are named "x<position>").  Padding with
    a position beyond every coordinate the original outputs consume raises
    the dispersion exponent by exactly one per projection and keeps
    perfect dispersion equivalent to the original's.
    """
    if r2 < spec.r or k2 < max(spec.k, r2):
        raise PreconditionError(
            f"padding needs r' >= r and k' >= max(k, r'); "
            f"got r'={r2}, k'={k2} for r={spec.r}, k={spec.k}")
    taken = set(spec.inputs) | set(spec.signature.names)
    inputs = list(spec.inputs)
    for pos in range(spec.k + 1, k2 + 1):
        inputs.append(_fresh(f"x{pos}", taken))
    outputs = list(spec.outputs)
    for pos in range(spec.r + 1, r2 + 1):
        outputs.append(Var(inputs[pos - 1]))
    return DispersionSpec(tuple(inputs), spec.signature, tuple(outputs))
