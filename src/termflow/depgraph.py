"""Dependency graphs of FNF systems, and the guessing-game view.

Each variable is a vertex; each defining equation `f(u1,...,uk) = v`
contributes edges u_i -> v (parallel occurrences collapse to one edge).
Sources are the variables with no defining equation; the other vertices
are the players.  A game is a system: `graph_system` writes
`v(in-neighbours of v) = v` per player, so a guessing strategy is an
`Interpretation` of `graph_system(graph)`, one table per player over its
in-neighborhood, and its solutions are the configurations it wins;
`dependency_graph` maps the system back.  The oracle's brute_guessing
maximizes the number of winning configurations.

`passthrough_graph` tells from a system's term DAG alone whether the
pipeline would leave it unchanged and, if so, reads its graph straight
off that DAG; the CLI runs the pipeline only for other systems.  Both
routes build through `_from_codes`: each edge an int over vertex
positions, sorted once, and no edge checked again by name.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import PreconditionError, ValidationError
from .normalize import NormalEquation, NormalSystem, classify
from .terms import Ident, Signature, TermSystem


@dataclass(frozen=True)
class DependencyGraph:
    vertices: tuple[Ident, ...]
    edges: frozenset[tuple[Ident, Ident]]
    sources: frozenset[Ident]
    # (tail, head) in vertex order: the order every output lists edges in
    sorted_edges: tuple[tuple[Ident, Ident], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        declared = set(self.vertices)
        if len(declared) != len(self.vertices):
            raise ValidationError("duplicate vertex")
        off = [(u, v) for u, v in self.edges
               if u not in declared or v not in declared]
        if off:  # the least by repr: the message never hangs on hash order
            u, v = min(off, key=repr)
            raise ValidationError(f"edge ({u!r}, {v!r}) off the vertex set")
        if not self.sources <= declared:
            raise ValidationError("sources must be vertices")
        at = {v: i for i, v in enumerate(self.vertices)}
        k = len(at)
        object.__setattr__(self, "sorted_edges", _decoded(
            self.vertices, {at[u] * k + at[v] for u, v in self.edges}))

    @cached_property
    def _in(self) -> dict[Ident, tuple[Ident, ...]]:
        """Each vertex's in-neighbours in vertex order, built on first use."""
        nbrs: dict[Ident, list[Ident]] = {v: [] for v in self.vertices}
        for u, v in self.sorted_edges:
            nbrs[v].append(u)
        return {v: tuple(us) for v, us in nbrs.items()}

    def in_neighbors(self, v: Ident) -> tuple[Ident, ...]:
        """In-neighborhood as a set, ordered by vertex order."""
        return self._in.get(v, ())


def _decoded(vertices: tuple[Ident, ...], codes: set[int]
             ) -> tuple[tuple[Ident, Ident], ...]:
    """The edges that `codes` holds as `tail * k + head` over vertex
    positions, as (tail, head) name pairs in vertex order: one C-level
    sort of ints, where a key per edge pair would cost a Python call."""
    k, name = len(vertices), vertices.__getitem__
    codes = sorted(codes)
    return tuple(zip(map(name, map(k.__rfloordiv__, codes)),
                     map(name, map(k.__rmod__, codes))))


def _from_codes(vertices: tuple[Ident, ...], codes: set[int],
                sources: frozenset[Ident]) -> DependencyGraph:
    """The graph of the edges coded in `codes` (see `_decoded`), built
    without the constructor's checks, as `terms._from_dag` builds a
    parsed system.  The caller vouches for the vertex set: the distinct
    variables of a checked system, every code's ends below their count
    and the sources among them."""
    graph = object.__new__(DependencyGraph)
    edges = _decoded(vertices, codes)
    object.__setattr__(graph, "vertices", vertices)
    object.__setattr__(graph, "edges", frozenset(edges))
    object.__setattr__(graph, "sources", sources)
    object.__setattr__(graph, "sorted_edges", edges)
    return graph


def dependency_graph(system) -> DependencyGraph:
    """Graph of a functional-normal-form system; rejects anything else."""
    cls = classify(system)
    if not cls.is_fnf:
        count = Counter(eq.defined for eq in system.equations)
        over = [v for v in cls.defined if count[v] > 1]
        raise PreconditionError(
            "dependency graph needs functional normal form; "
            f"multiply-defined: {', '.join(over) if over else '(none)'}")
    at = {v: i for i, v in enumerate(system.variables)}
    k = len(at)
    codes = {at[u] * k + at[v] for _, args, v in system.equations for u in args}
    return _from_codes(system.variables, codes, frozenset(cls.sources))


def passthrough_graph(system: TermSystem) -> DependencyGraph | None:
    """`dependency_graph(pipeline(system)[0])`, read off `system.dag`, when
    the pipeline would leave `system` unchanged; else None.

    That is when every equation passes through `flatten` (`f(vars) = v`,
    either way round), no two equations share an op node (the DAG is
    hash-consed: no key collides and no equation repeats) and no variable
    is defined twice: one op per equation, each root pair one variable
    (node < k) and one op, no op with an op child, and distinct defined
    variables, all checked with C-level maps over the roots and the ops.
    The i-th op is then the i-th equation's, and its edges run from its
    children to its defined variable: node ids below `k`, so vertex
    positions."""
    dag, variables, k = system.dag, system.variables, len(system.variables)
    roots = dag.outputs
    if 2 * len(dag.ops) != len(roots):  # one op per equation
        return None
    ops, defined = roots[0::2], roots[1::2]
    if max(defined, default=-1) >= k:  # not all written `f(vars) = v`
        ops, defined = (list(map(max, ops, defined)),
                        list(map(min, ops, defined)))
    op_children = itertools.chain.from_iterable(map(itemgetter(1), dag.ops))
    if not (max(defined, default=-1) < k <= min(ops, default=k)
            and max(op_children, default=-1) < k
            and len(set(defined)) == len(defined)):
        return None
    codes = {c * k + v for v, (_, children) in zip(defined, dag.ops)
             for c in children}
    sources = frozenset(map(variables.__getitem__,
                            set(range(k)).difference(defined)))
    return _from_codes(variables, codes, sources)


def graph_system(graph: DependencyGraph) -> NormalSystem:
    """The guessing game as a system: one equation `v(in-neighbours) = v`
    per player, in vertex order, each player's symbol named after it.  A
    `TermSystem` would refuse a variable named like a symbol, so none is
    built: the oracle reads the normal system's own `dag`."""
    equations = tuple(NormalEquation(v, graph.in_neighbors(v), v)
                      for v in graph.vertices if v not in graph.sources)
    signature = Signature(tuple((e.symbol, len(e.args)) for e in equations))
    return NormalSystem(graph.vertices, signature, equations)


def add_source_loops(graph: DependencyGraph) -> DependencyGraph:
    """Self-loop every source and empty the source set.

    A looped vertex may guess from its own value, so the identity strategy
    keeps every previously-free configuration winnable: the brute-force
    game value is unchanged (oracle-tested).
    """
    edges = set(graph.edges) | {(s, s) for s in graph.sources}
    return DependencyGraph(graph.vertices, frozenset(edges), frozenset())


def to_dot(graph: DependencyGraph) -> str:
    """Deterministic DOT text; sources are drawn boxed."""
    lines = ["digraph dependencies {"]
    for v in graph.vertices:
        mark = " [shape=box]" if v in graph.sources else ""
        lines.append(f'  "{v}"{mark};')
    for u, v in graph.sorted_edges:
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
